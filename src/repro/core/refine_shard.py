"""Component-decomposed PC-Refine: partition, per-component body, replay.

Refinement decomposes along connected components of the graph whose edges
are the candidate pairs *plus* the current clustering's within-cluster
links: a split's relevant pairs stay inside its record's cluster, and a
merge is only ever enumerated for clusters joined by a candidate edge
(:func:`~repro.core.refine.enumerate_operations`), so no operation — and
no pair any operation needs — crosses a component boundary.  The
component-streaming executor of :mod:`repro.runtime.pipeline` runs
refinement on that decomposition with the pieces here:

1. **Partition** — :func:`build_refine_partition` splits the record set
   over candidate pairs + per-cluster chain edges (each cluster therefore
   lands wholly inside one component) and assembles each multi-vertex
   component's worker payload in global order.
2. **Coordinate** — the same prologue builds the global histogram
   estimator *once* from the machine scores and the shared phase-2
   answer set, and computes the single global budget ``T = N_m / x``
   once from the entry-state record, cluster, and unknown-pair counts.
   The budget is frozen and shipped to every worker: all components pack
   against the same ``T``, so no component's progress can skew
   another's packing room.  Each worker seeds a *private copy* of the
   global histogram and evolves it with its own component's fresh
   answers — estimates sharpen round over round as in the global
   engine, but as a pure function of the component.  This deliberately
   deviates from the global engine, which re-derives ``T`` per round and
   grows one shared histogram across all components — that coupling is
   inherently sequential.  On the paper's datasets the coordination
   converges to the same partition (confirmed benefits are exact;
   estimates only order the packing), which the parity suites check
   instance by instance.
3. **Per component** — :func:`_run_component` runs the fast incremental
   refine loop over one component against a forked copy of the
   *pair-deterministic* answer source.  It journals every applied
   operation as an id-independent record reference — ``("s", record)``
   for splits, ``("m", rep_a, rep_b)`` for merges, the representatives
   being each side's smallest member captured just before application —
   and returns plain-tuple round logs plus its final local partition.
4. **Replay** — :func:`_replay_component_runs` primes the parent's answer
   source with the worker confidences, then replays *merged rounds*
   through the caller's oracle and clustering: round ``r`` is the union
   of every component's local round ``r``, components ordered by their
   smallest member.  One crowd batch, one diagnostics entry, and one
   ``refine.round`` event per merged round — ``CrowdStats.iterations``
   therefore reports the parallel crowd latency (the deepest
   component's round count).  A fidelity guard cross-checks the
   replayed per-component partitions against what the workers computed.

Determinism contract: the replay consumes the round logs in canonical
component order, so every worker count and fault schedule produces a
byte-identical clustering (ids included, via the terminal
:meth:`~repro.core.clustering.Clustering.canonicalize` shared with the
global engines), stats, diagnostics, and event stream.  Identity *to the
global engines* holds at the partition level on the paper's datasets and
is tested rather than proven — see point 2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import Merge, Operation, Split
from repro.core.refine import (
    BENEFIT_TOLERANCE,
    OperationCache,
    apply_free_operations,
    build_estimator,
)
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet
from repro.pruning.components import connected_components

Pair = Tuple[int, int]

#: An applied operation as an id-independent record reference:
#: ``("s", record_id)`` or ``("m", rep_a, rep_b)``.
_OpRef = Tuple

#: One worker round: (free_op_refs, packed_count, needed_pairs,
#: fresh_answers, applied_op_refs).  The trailing entry of every
#: component log has ``packed_count == 0`` and carries only the final
#: free pass.  Plain tuples so the pipe can pickle them cheaply.
_RoundLog = Tuple[Tuple[_OpRef, ...], int, Tuple[Pair, ...],
                  Tuple[Tuple[int, int, float], ...], Tuple[_OpRef, ...]]

def _op_ref(clustering: Clustering, operation: Operation) -> _OpRef:
    """Reference an operation by records, not cluster ids.

    Captured against the *pre-application* clustering: a merge names
    each side's smallest member, which resolves to the same cluster on
    any clustering with identical membership — regardless of how its
    ids were assigned.
    """
    if isinstance(operation, Split):
        return ("s", operation.record_id)
    assert isinstance(operation, Merge)
    return ("m", min(clustering.members(operation.cluster_a)),
            min(clustering.members(operation.cluster_b)))


def _apply_ref(clustering: Clustering, ref: _OpRef) -> None:
    """Apply a journaled record reference to a clustering."""
    if ref[0] == "s":
        clustering.split(ref[1])
    else:
        clustering.merge(clustering.cluster_of(ref[1]),
                         clustering.cluster_of(ref[2]))


def _run_component(
    cluster_entries: Sequence[Tuple[int, Tuple[int, ...]]],
    pairs: Sequence[Pair],
    scores: Dict[Pair, float],
    known: Sequence[Tuple[Pair, float]],
    next_id: int,
    threshold: float,
    budget: float,
    ranking: str,
    estimator,
    answers,
) -> Tuple[List[_RoundLog], Tuple[Tuple[int, ...], ...],
           Tuple[int, int, int, int]]:
    """Run the fast PC-Refine loop over one connected component.

    The local clustering keeps the caller's global cluster ids (so
    packing tie-breaks are reproducible for every task grouping), the
    local oracle is seeded with the global answer set restricted to the
    component, and the estimator + budget arrive frozen from the
    coordinator.  Returns the round logs, the final local partition
    (for the replay-fidelity guard), and the evaluation-cache counters.
    """
    from repro.core.pc_refine import _pack_independent_operations_fast

    clustering = Clustering.from_state({
        "clusters": [[cid, list(members)] for cid, members in cluster_entries],
        "next_id": next_id,
    })
    candidates = CandidateSet(pairs=tuple(pairs), machine_scores=scores,
                              threshold=threshold)
    oracle = CrowdOracle(answers)
    oracle.seed_known(dict(known))
    # Each worker evolves a private copy of the coordinator's histogram
    # with its own component's fresh answers — the component's estimates
    # sharpen round over round exactly as the classic engine's would,
    # while staying a pure function of the component (so no task grouping
    # or fault schedule can perturb them).  The coordinator pre-builds
    # the shared histogram, so this cheap clone starts clean and only a
    # component that actually crowdsources pays a rebuild.
    estimator = estimator.copy()
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)

    rounds: List[_RoundLog] = []
    while True:
        free_refs: List[_OpRef] = []
        apply_free_operations(
            clustering, cache, evaluations,
            on_apply=lambda op: free_refs.append(_op_ref(clustering, op)),
        )
        packed = _pack_independent_operations_fast(cache, evaluations,
                                                   budget, ranking=ranking)
        if not packed:
            rounds.append((tuple(free_refs), 0, (), (), ()))
            break

        needed: Set[Pair] = set()
        for operation in packed:
            needed.update(evaluations.unknown_pairs(operation))
        issued = tuple(sorted(needed))
        epoch = oracle.answer_epoch
        oracle.ask_batch(issued)
        fresh = tuple(
            (a, b, oracle.known_confidence(a, b))
            for a, b in oracle.answers_since(epoch)
        )
        for a, b in oracle.answers_since(epoch):
            if (a, b) in candidates:
                estimator.add_sample((a, b), scores[(a, b)],
                                     oracle.known_confidence(a, b))

        applied_refs: List[_OpRef] = []
        for operation in packed:
            benefit = evaluations.exact_benefit(operation)
            if benefit is not None and benefit > BENEFIT_TOLERANCE:
                applied_refs.append(_op_ref(clustering, operation))
                cache.apply(operation)
        rounds.append((tuple(free_refs), len(packed), issued, fresh,
                       tuple(applied_refs)))
        if not applied_refs:
            break

    final = tuple(tuple(sorted(members)) for members in clustering.as_sets())
    stats = evaluations.stats
    return rounds, final, (stats.lookups, stats.hits, stats.refreshes,
                           stats.evaluations)


def build_refine_partition(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_records: int,
    threshold_divisor: float,
    num_buckets: int,
):
    """Partition the refinement problem into per-component worker inputs.

    The coordination prologue of component refinement: splits the record
    set over candidate pairs plus
    per-cluster chain edges, freezes the global histogram estimator and
    the single budget ``T``, and assembles each multi-vertex component's
    worker payload in global order.  Returns ``(components, multi,
    multi_components, estimator, budget)`` where ``multi`` indexes the
    multi-vertex entries of ``components`` and ``multi_components[i]``
    is the ``(cluster_entries, pairs, scores, known)`` payload for
    component ``multi[i]``.
    """
    ids = sorted(clustering.record_ids())
    # Candidate edges + per-cluster chain edges: components of this
    # graph are exactly the units no refinement operation crosses,
    # and they keep every current cluster in one piece.
    edges: List[Pair] = list(candidates.pairs)
    for cluster_id in clustering.cluster_ids:
        members = sorted(clustering.members(cluster_id))
        edges.extend(zip(members, members[1:]))
    components = connected_components(ids, edges)
    prepared = prepare_refine_partition(components, candidates)
    return finish_refine_partition(prepared, clustering, candidates,
                                   oracle, num_records,
                                   threshold_divisor, num_buckets)


def prepare_refine_partition(components, candidates: CandidateSet):
    """Index a component partition: the clustering-independent prefix.

    Everything here depends only on the candidate set and the component
    list, so a caller that already knows the partition — the pipelined
    executor reuses the candidate-graph components, which equal the
    refine components whenever every cluster sits inside one candidate
    component (always true for pivot-produced clusterings: pivot never
    clusters across candidate edges, and the chain edges above then
    merge nothing) — can run this while the generation phase is still
    draining and pay only :func:`finish_refine_partition` at the
    barrier.
    """
    multi = [index for index, members in enumerate(components)
             if len(members) > 1]
    comp_of: Dict[int, int] = {}
    for index in multi:
        for vertex in components[index]:
            comp_of[vertex] = index
    pairs_of: Dict[int, List[Pair]] = {index: [] for index in multi}
    for pair in candidates.pairs:
        pairs_of[comp_of[pair[0]]].append(pair)
    scores_of = {
        index: {pair: candidates.machine_scores[pair]
                for pair in pairs_of[index]}
        for index in multi
    }
    return components, multi, comp_of, pairs_of, scores_of


def finish_refine_partition(prepared, clustering: Clustering,
                            candidates: CandidateSet, oracle: CrowdOracle,
                            num_records: int, threshold_divisor: float,
                            num_buckets: int):
    """Clustering-dependent suffix of :func:`build_refine_partition`."""
    components, multi, comp_of, pairs_of, scores_of = prepared
    # Frozen global coordination state: one histogram from the shared
    # phase-2 answer set, one budget T from the entry-state counts.
    estimator = build_estimator(candidates, oracle,
                                num_buckets=num_buckets)
    # Force the histogram build now: every per-component clone then
    # starts clean, and only components that crowdsource fresh
    # answers ever pay a rebuild.
    estimator.bucket_table()
    from repro.core.pc_refine import refinement_budget
    num_unknown = sum(1 for pair in candidates.pairs
                      if not oracle.knows(*pair))
    budget = refinement_budget(
        num_records, max(1, len(clustering)), num_unknown,
        threshold_divisor=threshold_divisor,
    )

    # Per-component worker inputs, all in global order: cluster
    # entries ascend by cluster id, pairs keep the candidate-set
    # order, known answers keep the oracle's arrival order.
    entries_of: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {
        index: [] for index in multi
    }
    for cluster_id in clustering.cluster_ids:
        members = tuple(sorted(clustering.members(cluster_id)))
        index = comp_of.get(members[0])
        if index is not None:
            entries_of[index].append((cluster_id, members))
    known_of: Dict[int, List[Tuple[Pair, float]]] = {
        index: [] for index in multi
    }
    for pair, confidence in oracle.known_in_order():
        index = comp_of.get(pair[0])
        if index is not None and comp_of.get(pair[1]) == index:
            known_of[index].append((pair, confidence))

    multi_components = [
        (tuple(entries_of[index]), tuple(pairs_of[index]),
         scores_of[index], tuple(known_of[index]))
        for index in multi
    ]
    return components, multi, multi_components, estimator, budget


def aggregate_refine_diagnostics(diagnostics, component_runs) -> None:
    """Fold worker evaluation-cache counters into the diagnostics."""
    if diagnostics is None:
        return
    lookups = hits = refreshes = evaluations = 0
    for _, _, counters in component_runs.values():
        lookups += counters[0]
        hits += counters[1]
        refreshes += counters[2]
        evaluations += counters[3]
    diagnostics.operation_evaluations = evaluations + refreshes
    diagnostics.evaluation_cache = {
        "lookups": lookups,
        "hits": hits,
        "refreshes": refreshes,
        "evaluations": evaluations,
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
    }


def _replay_component_runs(
    clustering: Clustering,
    components: Sequence[Tuple[int, ...]],
    component_runs: Dict[int, Tuple[List[_RoundLog], tuple, tuple]],
    oracle: CrowdOracle,
    candidates: CandidateSet,
    estimator,
    budget: float,
    diagnostics,
    obs,
    source,
) -> None:
    """Replay worker round logs through the caller's oracle + clustering.

    The replay *is* the authoritative accounting: priming the source
    with the worker-computed confidences makes ``oracle.ask_batch`` a
    cheap memo lookup while still flowing through the known-answer set,
    ``CrowdStats``, journaling, and the ``crowd.batch`` event — exactly
    as a single-process run would.  Rounds merge across components
    (round ``r`` = every component's local round ``r``, components in
    ascending smallest-member order): one crowd batch and one
    diagnostics/obs round each, so the iteration count reports the
    parallel crowd latency instead of a per-component sum.
    """
    prime = getattr(source, "prime", None)
    if prime is not None:
        fresh_map: Dict[Pair, float] = {}
        for rounds, _, _ in component_runs.values():
            for log in rounds:
                for a, b, confidence in log[3]:
                    fresh_map[(a, b)] = confidence
        prime(fresh_map)

    # Components replay in ascending order of their smallest member — a
    # canonical order no task grouping or fault schedule can perturb.
    replay_order = sorted(component_runs,
                          key=lambda index: components[index][0])
    by_round: List[List[_RoundLog]] = []
    for comp_index in replay_order:
        for depth, log in enumerate(component_runs[comp_index][0]):
            if depth == len(by_round):
                by_round.append([])
            by_round[depth].append(log)

    round_index = 0
    for logs in by_round:
        freed = 0
        needed_all: List[Pair] = []
        packed_total = applied_total = 0
        for free_refs, packed, needed, _fresh, applied_refs in logs:
            for ref in free_refs:
                _apply_ref(clustering, ref)
            freed += len(free_refs)
            needed_all.extend(needed)
            packed_total += packed
        if diagnostics is not None:
            diagnostics.free_operations_applied += freed
        if obs is not None and freed:
            obs.metrics.counter(
                "refine_free_operations_total",
                help="Zero-cost refinement operations applied",
            ).inc(freed)
        if not packed_total:
            continue  # pure tail entries: final free passes, no batch

        answers = oracle.ask_batch(needed_all)
        for pair, crowd_score in answers.items():
            if pair in candidates:
                estimator.add_sample(
                    pair, candidates.machine_scores[pair], crowd_score
                )
        for _free_refs, _packed, _needed, _fresh, applied_refs in logs:
            for ref in applied_refs:
                _apply_ref(clustering, ref)
            applied_total += len(applied_refs)
        round_index += 1
        if diagnostics is not None:
            diagnostics.batch_sizes.append(len(needed_all))
            diagnostics.operations_packed.append(packed_total)
            diagnostics.operations_applied.append(applied_total)
        if obs is not None:
            obs.metrics.counter(
                "refine_rounds_total",
                help="PC-Refine parallel rounds executed",
            ).inc()
            obs.event(
                "refine.round",
                round=round_index,
                budget=budget,
                batch_pairs=len(needed_all),
                packed=packed_total,
                applied=applied_total,
                clusters=len(clustering),
                histogram_samples=len(estimator),
                histogram_buckets=estimator.num_buckets,
            )

    # Fidelity guard: the replayed global clustering must restrict to
    # exactly the partition each worker computed.
    for comp_index, (_, final, _) in component_runs.items():
        by_cluster: Dict[int, List[int]] = {}
        for record_id in components[comp_index]:
            by_cluster.setdefault(clustering.cluster_of(record_id),
                                  []).append(record_id)
        replayed = sorted(tuple(sorted(members))
                          for members in by_cluster.values())
        if replayed != sorted(final):
            raise RuntimeError(
                f"component replay diverged from worker result on "
                f"component with smallest member "
                f"{components[comp_index][0]}"
            )

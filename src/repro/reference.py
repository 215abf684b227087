"""Reference engines: the literal readings of the paper, kept as test oracles.

Every ACD phase has exactly one production implementation — the
incremental PC-Pivot / Crowd-Pivot loops, the cached PC-Refine /
Crowd-Refine loops, and the prefix-join pruning path.  This module keeps
the straightforward readings those were derived from, so the identity
suites and the BENCH A/B stages have something independent to check them
against:

- :func:`pc_pivot` / :func:`choose_k` — Algorithm 3 re-sorting the live
  vertices and re-deriving the Equation-3/4 scan from scratch each round;
- :func:`partial_pivot` — Algorithm 2 deriving its own pivots (the first
  ``k`` live vertices by permutation rank) and their Equation-3 bound;
- :func:`crowd_pivot` — Algorithm 1 scanning the live vertices for the
  minimum permutation rank each iteration;
- :func:`pc_refine` / :func:`pack_independent_operations` — Algorithm 5
  with fresh evaluator walks, a full re-enumeration and re-sort per round,
  and a per-round unknown-pair sweep;
- :func:`crowd_refine` — Algorithm 4 re-evaluating every costly operation
  per outer iteration;
- :func:`apply_free_operations` — Algorithm 4 lines 5-7 re-enumerating
  every operation per applied free operation;
- :func:`prefix_filtered_candidates` — the prefix join one record at a
  time over Python frozensets with per-pair verification, the scalar
  reading of the sharded vectorized join in :mod:`repro.pruning.shard`;
- :func:`candidate_set` — the seed's enumerate-and-score pruning loop for
  every input, including those the production path answers with the
  prefix join;
- :func:`run_acd` — generation then refinement over one shared oracle,
  composed from the oracles above.

Each oracle is byte-identical to its production counterpart: same
clusterings, crowd batches, diagnostics and observability events.  None
of this is product surface: only ``tests/`` and ``benchmarks/`` import
this module, and ``tests/test_reference_boundary.py`` fails if a module
under ``src/repro`` does.
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS, HistogramEstimator
from repro.core.operations import (
    Operation,
    OperationEvaluator,
    apply_operation,
)
from repro.core.partial_pivot import PartialPivotResult, waste_estimates
from repro.core.partial_pivot import partial_pivot as _core_partial_pivot
from repro.core.pc_pivot import (
    DEFAULT_EPSILON,
    PCPivotDiagnostics,
    _finish_round,
)
from repro.core.pc_refine import (
    DEFAULT_THRESHOLD_DIVISOR,
    PCRefineDiagnostics,
    refinement_budget,
)
from repro.core.permutation import Permutation
from repro.core.refine import (
    BENEFIT_TOLERANCE,
    OperationCache,
    _operation_sort_key,
    _record_answers,
    build_estimator,
    enumerate_operations,
)
from repro.core.refine import apply_free_operations as _apply_free_heap
from repro.crowd.oracle import CrowdOracle
from repro.crowd.stats import CrowdStats
from repro.datasets.schema import Record, canonical_pair
from repro.obs import maybe_span
from repro.pruning.candidate import (
    DEFAULT_THRESHOLD,
    CandidateSet,
    _run_reference,
)
from repro.pruning.graph import CandidateGraph
from repro.pruning.prefix_join import (
    EPS,
    PREFIX_METRICS,
    canonical_token_order,
    partner_size_need,
    prefix_length,
)
from repro.similarity.composite import SimilarityFunction

Pair = Tuple[int, int]
SetFunction = Callable[[FrozenSet[str], FrozenSet[str]], float]

__all__ = [
    "apply_free_operations",
    "candidate_set",
    "choose_k",
    "crowd_pivot",
    "crowd_refine",
    "pack_independent_operations",
    "partial_pivot",
    "pc_pivot",
    "pc_refine",
    "prefix_filtered_candidates",
    "run_acd",
]


# ---------------------------------------------------------------------------
# Cluster generation (Algorithms 1-3)
# ---------------------------------------------------------------------------


def choose_k(graph: CandidateGraph, permutation: Permutation,
             epsilon: float) -> int:
    """The largest ``k`` satisfying Equation 4 on the current graph.

    Scans live vertices in permutation order, accumulating the waste bound
    ``sum w_j`` and the issued-edge count ``|P_j|``; returns the largest
    prefix length where ``sum w_j <= epsilon * |P_k|``.  Always >= 1
    (``w_1 = 0``).

    ``epsilon=0`` contract: the zero budget admits only waste-free
    prefixes, so ``k`` is the longest prefix of pivots that provably
    cannot waste a pair (pairwise distance > 2 in the candidate graph).
    On dense graphs that prefix is usually a single pivot — every round
    then degrades to ``k=1`` and PC-Pivot serializes into Crowd-Pivot.
    The same degradation appears for ``ε > 0`` when the waste bound binds
    immediately; PC-Pivot flags those rounds with a
    ``pivot.waste_bound_binding`` warning event on the attached obs
    context.

    The production scan is
    :func:`~repro.core.pivot_engine.choose_pivots`, which fuses this loop
    with :func:`~repro.core.partial_pivot.waste_estimates` and exits early.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    ordered = permutation.ordered(graph.vertices)
    if not ordered:
        return 0
    estimates = waste_estimates(graph, ordered)

    best_k = 1
    cumulative_waste = 0
    issued_edges = 0
    earlier_pivots = set()
    for j, pivot in enumerate(ordered, start=1):
        cumulative_waste += estimates[j - 1]
        # Fresh edges contributed by r_j: all incident edges except those to
        # earlier pivots (already counted from the other endpoint).
        fresh = sum(1 for n in graph.neighbors(pivot) if n not in earlier_pivots)
        issued_edges += fresh
        earlier_pivots.add(pivot)
        if cumulative_waste <= epsilon * issued_edges:
            best_k = j
    return best_k


def partial_pivot(
    graph: CandidateGraph,
    k: int,
    permutation: Permutation,
    oracle: CrowdOracle,
    obs=None,
) -> PartialPivotResult:
    """Partial-Pivot (Algorithm 2) with self-derived pivots: the first
    ``k`` live vertices in permutation order (``k`` clamped to the live
    count) and their Equation-3 bound, then
    :func:`repro.core.partial_pivot.partial_pivot`'s round."""
    pivots = permutation.ordered(graph.vertices)[:k]
    return _core_partial_pivot(
        graph, k, oracle, obs=obs, pivots=pivots,
        predicted_waste=sum(waste_estimates(graph, pivots)),
    )


def pc_pivot(
    record_ids,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    epsilon: float = DEFAULT_EPSILON,
    permutation: Optional[Permutation] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    diagnostics: Optional[PCPivotDiagnostics] = None,
    obs=None,
) -> Clustering:
    """PC-Pivot with whole-graph re-derivation every round.

    Same arguments and output as :func:`repro.core.pc_pivot.pc_pivot`.
    """
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, rng=rng, seed=seed)
    graph = CandidateGraph(ids, candidates.pairs)
    clustering = Clustering()

    round_index = 0
    while not graph.is_empty():
        live_before = len(graph)
        k = choose_k(graph, permutation, epsilon)
        result = partial_pivot(graph, k, permutation, oracle, obs=obs)
        for cluster in result.clusters:
            clustering.add_cluster(cluster)
        round_index += 1
        _finish_round(obs, diagnostics, round_index, k, result, epsilon,
                      live_before, remaining=len(graph))

    return clustering


def crowd_pivot(
    record_ids,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    permutation: Optional[Permutation] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    obs=None,
) -> Clustering:
    """Crowd-Pivot with a minimum-rank scan over the live vertices per
    iteration.

    Same arguments and output as :func:`repro.core.pivot.crowd_pivot`.
    """
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, rng=rng, seed=seed)
    graph = CandidateGraph(ids, candidates.pairs)
    clustering = Clustering()

    while not graph.is_empty():
        pivot = permutation.first(graph.vertices)
        neighbors = graph.neighbors(pivot)
        answers = oracle.ask_batch((pivot, n) for n in neighbors)
        cluster = {pivot}
        for neighbor in neighbors:
            key = (pivot, neighbor) if pivot < neighbor else (neighbor, pivot)
            if answers[key] > 0.5:
                cluster.add(neighbor)
        clustering.add_cluster(cluster)
        graph.remove_vertices(cluster)
        if obs is not None:
            obs.metrics.counter(
                "pivot_rounds_total",
                help="Sequential Crowd-Pivot iterations executed",
            ).inc()
            obs.event(
                "pivot.pivot",
                pivot=pivot,
                incident_edges=len(neighbors),
                cluster_size=len(cluster),
                remaining_records=len(graph),
            )

    return clustering


# ---------------------------------------------------------------------------
# Cluster refinement (Algorithms 4-5)
# ---------------------------------------------------------------------------


def apply_free_operations(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    estimator: HistogramEstimator,
) -> int:
    """Algorithm 4 lines 5-7 with a full re-enumeration per applied
    operation: repeatedly apply the known-benefit operation with the
    largest positive benefit until none is left.

    Same contract as :func:`repro.core.refine.apply_free_operations`
    (the lazy max-heap), including the canonical tie-break.
    """
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    applied = 0
    while True:
        best_operation: Optional[Operation] = None
        best_key: Optional[Tuple] = None
        for operation in enumerate_operations(clustering, candidates):
            benefit = evaluator.exact_benefit(operation)
            if benefit is None or benefit <= BENEFIT_TOLERANCE:
                continue
            key = (-benefit, _operation_sort_key(operation))
            if best_key is None or key < best_key:
                best_key = key
                best_operation = operation
        if best_operation is None:
            return applied
        apply_operation(clustering, best_operation)
        applied += 1


def crowd_refine(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    obs=None,
) -> Clustering:
    """Crowd-Refine re-evaluating every costly operation per outer
    iteration.

    Same arguments and output as :func:`repro.core.refine.crowd_refine`.
    """
    estimator = build_estimator(candidates, oracle, num_buckets=num_buckets)
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    # One cache for the whole refinement: each outer iteration touches at
    # most a handful of clusters, so re-enumeration cost drops from O(|S|)
    # per loop to the few entries those clusters invalidated.
    cache = OperationCache(clustering, candidates)

    step = 0
    while True:
        # The from-scratch evaluator serves the heap's exact benefits
        # (EvaluationCache's exact_benefit contract, re-derived per call).
        applied = _apply_free_heap(clustering, cache, evaluator)
        if obs is not None and applied:
            obs.metrics.counter(
                "refine_free_operations_total",
                help="Zero-cost refinement operations applied",
            ).inc(applied)

        # Estimated path: best benefit-cost ratio among costly operations.
        best_operation: Optional[Operation] = None
        best_ratio = 0.0
        for operation in cache.operations():
            cost = evaluator.cost(operation)
            if cost <= 0:
                continue  # exact benefit known; the free path already saw it
            ratio = evaluator.estimated_benefit(operation) / cost
            if best_operation is None or ratio > best_ratio:
                best_ratio = ratio
                best_operation = operation
        if best_operation is None or best_ratio <= 0.0:
            return clustering

        cost = evaluator.cost(best_operation)
        answers = oracle.ask_batch(evaluator.unknown_pairs(best_operation))
        _record_answers(answers, candidates, estimator)
        benefit = evaluator.exact_benefit(best_operation)
        confirmed = benefit is not None and benefit > BENEFIT_TOLERANCE
        if confirmed:
            cache.apply(best_operation)
        step += 1
        if obs is not None:
            obs.metrics.counter(
                "refine_steps_total",
                help="Costly Crowd-Refine iterations executed",
            ).inc()
            obs.event(
                "refine.step",
                step=step,
                operation=repr(best_operation),
                ratio=best_ratio,
                cost=cost,
                benefit=benefit,
                applied=confirmed,
                clusters=len(clustering),
                histogram_samples=len(estimator),
                histogram_buckets=estimator.num_buckets,
            )


def pack_independent_operations(
    clustering: Clustering,
    candidates: CandidateSet,
    evaluator: OperationEvaluator,
    budget: float,
    ranking: str = "ratio",
    hard_budget: bool = False,
    obs=None,
) -> List[Operation]:
    """Greedy O^i construction (Algorithm 5 lines 9-14): scan operations by
    descending benefit-cost ratio; keep those with positive ratio that are
    independent of everything already packed; stop once the packed cost
    reaches the budget.

    ``ranking="benefit"`` ranks by estimated benefit alone instead — the
    cost-blind alternative the paper argues against (Section 5.2), kept as
    an ablation knob.

    ``hard_budget=True`` changes the stopping rule from Algorithm 5's
    ``Σc ≥ T`` (which lets the last packed operation overshoot) to a strict
    knapsack-style filter: an operation is only packed if its cost still
    fits.  Used to honor an exact caller-imposed pair cap.

    The production packer is
    :func:`repro.core.pc_refine._pack_independent_operations_fast`.
    """
    if ranking not in ("ratio", "benefit"):
        raise ValueError(f"ranking must be 'ratio' or 'benefit', got {ranking!r}")
    scored: List[Tuple[float, int, Operation]] = []
    with maybe_span(obs, "refine.evaluate"):
        for operation in enumerate_operations(clustering, candidates):
            cost = evaluator.cost(operation)
            if cost <= 0:
                continue  # known benefit; handled by the free path
            benefit = evaluator.estimated_benefit(operation)
            key = benefit / cost if ranking == "ratio" else benefit
            if key > 0.0:
                scored.append((key, cost, operation))
    with maybe_span(obs, "refine.pack"):
        # Deterministic order: ratio desc, then a stable textual tiebreak.
        scored.sort(key=lambda item: (-item[0], repr(item[2])))

        packed: List[Operation] = []
        touched: Set[int] = set()
        total_cost = 0
        for ratio, cost, operation in scored:
            if total_cost >= budget:
                break
            if hard_budget and total_cost + cost > budget:
                continue
            if set(operation.touched_clusters) & touched:
                continue
            packed.append(operation)
            touched.update(operation.touched_clusters)
            total_cost += cost
    return packed


def pc_refine(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_records: Optional[int] = None,
    threshold_divisor: float = DEFAULT_THRESHOLD_DIVISOR,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    diagnostics: Optional[PCRefineDiagnostics] = None,
    ranking: str = "ratio",
    max_refinement_pairs: Optional[int] = None,
    obs=None,
) -> Clustering:
    """PC-Refine with fresh evaluator walks, full re-enumeration and
    re-sort per round, and a per-round unknown-pair sweep.

    Same arguments and output as :func:`repro.core.pc_refine.pc_refine`,
    except that ``diagnostics.operation_evaluations`` counts from-scratch
    evaluator walks and ``diagnostics.evaluation_cache`` stays ``None``.
    """
    if num_records is None:
        num_records = clustering.num_records
    if max_refinement_pairs is not None and max_refinement_pairs < 0:
        raise ValueError(
            f"max_refinement_pairs must be >= 0, got {max_refinement_pairs}"
        )
    pairs_at_start = oracle.stats.pairs_issued
    estimator = build_estimator(candidates, oracle, num_buckets=num_buckets)
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)

    def finish() -> Clustering:
        if diagnostics is not None:
            diagnostics.operation_evaluations = evaluator.evaluations
        return clustering.canonicalize()

    round_index = 0
    while True:
        with maybe_span(obs, "refine.free"):
            # A fresh cache per round: the packed operations below are
            # applied without its tracker.  The from-scratch evaluator
            # serves the exact benefits, so every walk is counted in
            # ``operation_evaluations``.
            freed = _apply_free_heap(
                clustering, OperationCache(clustering, candidates), evaluator)
        if diagnostics is not None:
            diagnostics.free_operations_applied += freed
        if obs is not None and freed:
            obs.metrics.counter(
                "refine_free_operations_total",
                help="Zero-cost refinement operations applied",
            ).inc(freed)

        spent = oracle.stats.pairs_issued - pairs_at_start
        if max_refinement_pairs is not None and spent >= max_refinement_pairs:
            return finish()

        num_unknown = sum(
            1 for pair in candidates.pairs if not oracle.knows(*pair)
        )
        budget = refinement_budget(
            num_records, max(1, len(clustering)), num_unknown,
            threshold_divisor=threshold_divisor,
        )
        if max_refinement_pairs is not None:
            budget = min(budget, float(max_refinement_pairs - spent))
        packed = pack_independent_operations(
            clustering, candidates, evaluator, budget, ranking=ranking,
            hard_budget=max_refinement_pairs is not None, obs=obs,
        )
        if not packed:
            return finish()

        # One crowd batch resolves every packed operation's unknown pairs.
        with maybe_span(obs, "refine.crowd"):
            needed: Set[Pair] = set()
            for operation in packed:
                needed.update(evaluator.unknown_pairs(operation))
            answers = oracle.ask_batch(sorted(needed))
            _record_answers(answers, candidates, estimator)

        with maybe_span(obs, "refine.apply"):
            applied = 0
            for operation in packed:
                benefit = evaluator.exact_benefit(operation)
                if benefit is not None and benefit > BENEFIT_TOLERANCE:
                    apply_operation(clustering, operation)
                    applied += 1
        if diagnostics is not None:
            diagnostics.batch_sizes.append(len(needed))
            diagnostics.operations_packed.append(len(packed))
            diagnostics.operations_applied.append(applied)
        round_index += 1
        if obs is not None:
            obs.metrics.counter(
                "refine_rounds_total",
                help="PC-Refine parallel rounds executed",
            ).inc()
            obs.event(
                "refine.round",
                round=round_index,
                budget=budget,
                batch_pairs=len(needed),
                packed=len(packed),
                applied=applied,
                clusters=len(clustering),
                histogram_samples=len(estimator),
                histogram_buckets=estimator.num_buckets,
            )
        if applied == 0:
            return finish()


# ---------------------------------------------------------------------------
# Pruning and the end-to-end composition
# ---------------------------------------------------------------------------


def prefix_filtered_candidates(
    records: Sequence[Record],
    set_of: Callable[[Record], FrozenSet[str]],
    set_function: SetFunction,
    metric: str,
    threshold: float,
    include_empty_pairs: bool = False,
    obs=None,
) -> Tuple[List[Pair], Dict[Pair, float]]:
    """Run the join; returns ``(sorted surviving pairs, pair -> score)``.

    Args:
        records: The record set ``R``.
        set_of: Maps a record to the frozenset the metric compares (cached
            word tokens or q-grams — see ``SimilarityFunction.set_of``).
        set_function: The exact set metric (e.g. ``jaccard``); used verbatim
            for verification so scores match the reference bit-for-bit.
        metric: One of :data:`PREFIX_METRICS` (selects the filter algebra).
        threshold: τ; pairs with score strictly above τ survive.
        include_empty_pairs: Also emit pairs of records with *empty* sets
            (scored by ``set_function(∅, ∅)``) — matches the all-pairs
            reference instead of the token-blocking reference.
        obs: Optional :class:`~repro.obs.ObsContext`; spans ``blocking``
            (ordering, prefix index, candidate generation) and
            ``scoring`` (exact verification).
    """
    if metric not in PREFIX_METRICS:
        raise ValueError(f"unknown prefix-join metric {metric!r}")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")

    with maybe_span(obs, "blocking"):
        sets: Dict[int, FrozenSet[str]] = {
            record.record_id: set_of(record) for record in records
        }
        nonempty = [record_id for record_id, s in sets.items() if s]
        empty = [record_id for record_id, s in sets.items() if not s]

        order = canonical_token_order([sets[record_id] for record_id in nonempty])
        sorted_tokens: Dict[int, List[str]] = {
            record_id: sorted(sets[record_id], key=order.__getitem__)
            for record_id in nonempty
        }
        # Process records in ascending set size (ties by id) so each probe
        # only ever meets partners that are no larger than itself.
        by_size = sorted(nonempty, key=lambda rid: (len(sets[rid]), rid))

        index: Dict[str, List[int]] = {}
        candidate_pairs: List[Pair] = []
        for record_id in by_size:
            tokens = sorted_tokens[record_id]
            size = len(tokens)
            size_need = partner_size_need(metric, threshold, size) - EPS
            probed: Dict[int, None] = {}
            prefix = tokens[:prefix_length(metric, threshold, size)]
            for token in prefix:
                for other_id in index.get(token, ()):
                    if other_id in probed:
                        continue
                    probed[other_id] = None
                    if len(sets[other_id]) < size_need:
                        continue  # too small for any τ-passing overlap
                    candidate_pairs.append(canonical_pair(other_id, record_id))
            for token in prefix:
                index.setdefault(token, []).append(record_id)

    surviving: List[Pair] = []
    scores: Dict[Pair, float] = {}
    with maybe_span(obs, "scoring"):
        for pair in candidate_pairs:
            score = set_function(sets[pair[0]], sets[pair[1]])
            score = min(1.0, max(0.0, score))
            if score > threshold:
                surviving.append(pair)
                scores[pair] = score
        if include_empty_pairs and len(empty) >= 2:
            empty_score = min(1.0, max(0.0, set_function(frozenset(),
                                                         frozenset())))
            if empty_score > threshold:
                ordered = sorted(empty)
                for i, a in enumerate(ordered):
                    for b in ordered[i + 1:]:
                        pair = (a, b)
                        surviving.append(pair)
                        scores[pair] = empty_score
        surviving.sort()
    return surviving, scores


def candidate_set(
    records: Sequence[Record],
    similarity: SimilarityFunction,
    threshold: float = DEFAULT_THRESHOLD,
    candidate_pairs: Optional[Iterable[Pair]] = None,
    use_token_blocking: bool = True,
    parallel: int = 0,
    obs=None,
) -> CandidateSet:
    """The pruning phase through the enumerate-and-score loop, whatever
    the metric: token blocking (or all pairs, or ``candidate_pairs``),
    then one similarity call per pair.

    Same arguments and output as
    :func:`repro.pruning.candidate.build_candidate_set`, minus the
    prefix-join and fault-handling knobs.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    surviving, scores = _run_reference(
        records, similarity, threshold, candidate_pairs, use_token_blocking,
        parallel, obs,
    )
    return CandidateSet(pairs=tuple(surviving), machine_scores=scores,
                        threshold=threshold)


def run_acd(
    record_ids,
    candidates: CandidateSet,
    answers,
    seed: Optional[int] = None,
    parallel: bool = True,
    pairs_per_hit: int = 20,
    generation=None,
    refinement=None,
) -> Tuple[Clustering, CrowdStats]:
    """Generation then refinement over one shared oracle (default ε,
    ``x`` and histogram granularity).

    Args:
        parallel: PC-Pivot + PC-Refine (``True``, the composition
            :func:`repro.core.acd.run_acd` runs) or Crowd-Pivot +
            Crowd-Refine (``False``).  The sequential composition has no
            production entry point: callers run
            :func:`repro.core.pivot.crowd_pivot` then
            :func:`repro.core.refine.crowd_refine` over one
            :class:`~repro.crowd.oracle.CrowdOracle`, and this is its
            oracle.
        generation: Replace the generation oracle with another function
            of the same signature (e.g. the production
            :func:`repro.core.pc_pivot.pc_pivot`) — the BENCH A/B stages
            swap one phase at a time.
        refinement: Likewise for the refinement phase.

    Returns:
        ``(clustering, stats)``.
    """
    ids = list(record_ids)
    stats = CrowdStats(pairs_per_hit=pairs_per_hit,
                       num_workers=answers.num_workers)
    oracle = CrowdOracle(answers, stats=stats)
    if parallel:
        generation = generation or pc_pivot
        clustering = generation(ids, candidates, oracle, seed=seed)
        refinement = refinement or pc_refine
        clustering = refinement(clustering, candidates, oracle,
                                num_records=len(ids))
    else:
        generation = generation or crowd_pivot
        clustering = generation(ids, candidates, oracle, seed=seed)
        refinement = refinement or crowd_refine
        clustering = refinement(clustering, candidates, oracle)
    return clustering, stats

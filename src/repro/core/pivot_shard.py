"""Component-decomposed PC-Pivot: the lockstep task runner and the merge.

Cluster generation decomposes exactly along connected components of the
candidate graph: every pair Crowd-Pivot issues is pivot-incident, so
work in one component never touches another's vertices, and running
PC-Pivot per component (with the global permutation restricted to the
component) produces precisely the clusters the whole-graph run would —
Lemma 2/4 applied component-wise.  The component-streaming executor of
:mod:`repro.runtime.pipeline` exploits that with the two halves here:

1. **Per task, in lockstep** — :func:`_run_components` runs the
   PC-Pivot loop over every component a pool task carries, each on its
   own :class:`~repro.pruning.graph.EagerCandidateGraph`, against a
   forked copy of the *pair-deterministic* answer source (every process
   resolves a pair to the same confidence, so placement cannot change
   any answer).  Each round, every still-live component plans its own
   pivots; the union of their pivot-incident pairs goes out as **one**
   crowd batch, and each component forms its clusters from its own
   pairs.  A task therefore waits out its deepest component's rounds,
   not the sum over its components.  It returns one round log per
   component: chosen ``k``, predicted waste, issued pairs, clusters, and
   the fresh confidences — exactly the log that component would produce
   run alone.
2. **Merge** — :func:`_merge_component_runs` primes the parent's answer
   source with the worker confidences, then replays *merged rounds*
   through the caller's oracle: round ``r`` is the union of every
   component's local round ``r``, components ordered by their smallest
   permutation rank.  One crowd batch, one diagnostics entry, and one
   ``pivot.round`` event per merged round — so ``CrowdStats.iterations``
   reports the true parallel crowd latency (the deepest component's
   round count: every component crowdsources its round-``r`` batch
   simultaneously), typically *far below* the global engine's count.
   A cluster's pivot is always its minimum-rank member and the global
   engine emits clusters in strictly ascending pivot rank, so sorting
   all clusters by pivot rank reproduces the global engine's cluster
   IDs byte for byte.

Determinism contract: the **clustering (including cluster IDs) is
byte-identical to the global engines** for the same permutation and
answers.  Round *accounting* (``CrowdStats`` batch boundaries, per-round
diagnostics) follows the merged component-local rounds — the maximum
and the sum over components of what a stand-alone PC-Pivot on each
component would report — whereas the global engine's Equation-4 rounds
couple components through the global permutation prefix.  A
component's round log is a pure function of ``(component, permutation,
epsilon, answer source)``: which components share a task changes only
the worker's wall-clock crowd waits, never a log.  The
per-component ε waste bound still holds round by round, hence so does
the global one (a sum of per-component bounds, every issued pair being
fresh).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.clustering import Clustering
from repro.core.partial_pivot import (
    PartialPivotResult,
    form_clusters,
    pivot_incident_pairs,
)
from repro.core.pc_pivot import _finish_round
from repro.core.permutation import Permutation
from repro.core.pivot_engine import LiveVertexOrder, choose_pivots
from repro.crowd.oracle import CrowdOracle
from repro.obs import maybe_span
from repro.pruning.graph import EagerCandidateGraph

Pair = Tuple[int, int]

#: One worker round: (k, predicted_waste, issued_pairs, live_before,
#: remaining, clusters, fresh_answers).  Plain tuples so the pipe can
#: pickle them cheaply.
_RoundLog = Tuple[int, int, Tuple[Pair, ...], int, int,
                  Tuple[Tuple[int, ...], ...],
                  Tuple[Tuple[int, int, float], ...]]

def require_pair_deterministic(source) -> None:
    """Reject answer sources component execution cannot safely fork.

    Worker processes resolve pairs through forked copies of the source;
    unless every copy maps a pair to the same confidence regardless of
    query order (``pair_deterministic``), component execution could
    change answers.  Stateful sources (fallback tracking, platform
    simulators with cross-batch RNG) must use the global engines.
    """
    if not getattr(source, "pair_deterministic", False):
        raise ValueError(
            f"component execution requires a pair-deterministic answer "
            f"source; {type(source).__name__} does not declare "
            "pair_deterministic — run with pipeline disabled"
        )


def _run_components(
    groups: Sequence[Tuple[Sequence[int], Sequence[Pair]]],
    permutation: Permutation,
    epsilon: float,
    answers,
) -> List[List[_RoundLog]]:
    """Run the PC-Pivot loop over ``(vertices, edges)`` components in
    lockstep: one crowd batch per round for all of them.

    Components share no edge, so batching their rounds together changes
    no component's pivots, pairs or clusters — only how many crowd round
    trips the group waits out.  A local throwaway oracle collects the
    answers; the parent replays the returned logs through the caller's
    oracle, which is where the authoritative stats/journal/events
    accounting happens.

    Returns:
        One round log per component, in ``groups`` order.
    """
    oracle = CrowdOracle(answers)
    runs = []
    for vertices, edges in groups:
        # Rank-sort the component instead of filtering the global
        # permutation (LiveVertexOrder's constructor is O(records);
        # per-component that would be quadratic in the record count).
        order = LiveVertexOrder.from_ranked(
            sorted(vertices, key=permutation.rank))
        runs.append((EagerCandidateGraph(vertices, edges), order, []))
    live = [run for run in runs if not run[0].is_empty()]
    while live:
        planned = []
        batch: List[Pair] = []
        for graph, order, _ in live:
            ordered = order.live()
            k, estimates = choose_pivots(graph, ordered, epsilon)
            pivots = ordered[:k]
            pairs = pivot_incident_pairs(graph, pivots)
            planned.append((k, sum(estimates), len(ordered), pivots, pairs))
            batch.extend(pairs)
        confidences = oracle.ask_batch(batch)
        for (graph, order, rounds), (k, waste, live_before, pivots, pairs) \
                in zip(live, planned):
            clusters = form_clusters(graph, pivots, pairs, confidences)
            for cluster in clusters:
                order.discard(cluster)
            # Every issued pair is fresh: each pivot leaves the graph in
            # its own round, and no two components share a pair.
            fresh = tuple((a, b, confidences[(a, b)]) for a, b in pairs)
            rounds.append((k, waste, tuple(pairs), live_before, len(graph),
                           tuple(tuple(sorted(c)) for c in clusters),
                           fresh))
        live = [run for run in live if not run[0].is_empty()]
    return [rounds for _, _, rounds in runs]


def _merge_component_runs(
    ids: Sequence[int],
    components: Sequence[Tuple[int, ...]],
    component_rounds: Dict[int, List[_RoundLog]],
    permutation: Permutation,
    oracle: CrowdOracle,
    epsilon: float,
    diagnostics,
    obs,
    source,
) -> Clustering:
    """Replay worker round logs through the caller's oracle and merge.

    The replay *is* the authoritative accounting: priming the source
    with the worker-computed confidences makes ``oracle.ask_batch`` a
    cheap memo lookup while still flowing through the known-answer set,
    ``CrowdStats``, journaling, and the ``crowd.batch`` event — exactly
    as a single-process run would.  Rounds are merged across components
    (round ``r`` = every component's local round ``r``, components in
    ascending min-rank order): one crowd batch and one diagnostics/obs
    round each, so the iteration count reports the parallel crowd
    latency instead of a per-component sum.
    """
    rank = permutation.rank

    prime = getattr(source, "prime", None)
    if prime is not None:
        fresh_map: Dict[Pair, float] = {}
        for rounds in component_rounds.values():
            for log in rounds:
                for a, b, confidence in log[6]:
                    fresh_map[(a, b)] = confidence
        prime(fresh_map)

    # Components replay in ascending rank of their smallest-rank member —
    # a canonical order no task grouping or fault schedule can perturb.
    replay_order = sorted(component_rounds,
                          key=lambda index: min(map(rank,
                                                    components[index])))
    by_round: List[List[_RoundLog]] = []
    for comp_index in replay_order:
        for depth, log in enumerate(component_rounds[comp_index]):
            if depth == len(by_round):
                by_round.append([])
            by_round[depth].append(log)

    keyed_clusters: List[Tuple[int, Tuple[int, ...]]] = []
    round_index = 0
    for logs in by_round:
        issued_all: List[Pair] = []
        clusters_all: List[Tuple[int, ...]] = []
        k_sum = waste_sum = live_sum = remaining_sum = 0
        for k, predicted_waste, issued, live_before, remaining, clusters, \
                _fresh in logs:
            k_sum += k
            waste_sum += predicted_waste
            live_sum += live_before
            remaining_sum += remaining
            issued_all.extend(issued)
            clusters_all.extend(clusters)
        round_index += 1
        with maybe_span(obs, "pivot.partial", k=k_sum) as span:
            oracle.ask_batch(issued_all)
            if obs is not None:
                span.set_attr("issued_pairs", len(issued_all))
                span.set_attr("clusters", len(clusters_all))
                span.set_attr("predicted_waste", waste_sum)
        if diagnostics is not None or obs is not None:
            result = PartialPivotResult(
                clusters=tuple(frozenset(c) for c in clusters_all),
                issued_pairs=tuple(issued_all),
                predicted_waste=waste_sum,
            )
            _finish_round(obs, diagnostics, round_index, k_sum, result,
                          epsilon, live_sum, remaining_sum)
        for members in clusters_all:
            keyed_clusters.append((min(map(rank, members)), members))

    # Singleton components never issue a pair: they contribute their
    # vertex as a rank-keyed singleton cluster straight to the merge.
    for index, members in enumerate(components):
        if index not in component_rounds:
            if len(members) != 1:
                raise RuntimeError(
                    f"component {index} ({len(members)} vertices) produced "
                    "no component run"
                )
            keyed_clusters.append((rank(members[0]), members))

    # A cluster's pivot is its minimum-rank member, and the global
    # engine emits clusters in strictly ascending pivot rank — sorting by
    # pivot rank therefore reproduces its cluster IDs exactly.  Pivot
    # ranks are unique across the disjoint clusters, so the bare tuple
    # sort never compares the member tuples.
    keyed_clusters.sort()
    clustering = Clustering()
    seen: set = set()
    for _, members in keyed_clusters:
        overlap = seen.intersection(members)
        if overlap:
            raise RuntimeError(
                f"component merge produced overlapping clusters: "
                f"records {sorted(overlap)} appear twice"
            )
        seen.update(members)
        clustering.add_cluster(members)
    if len(seen) != len(set(ids)):
        raise RuntimeError(
            f"component merge lost records: {len(seen)} clustered, "
            f"{len(set(ids))} expected"
        )
    return clustering

"""PC-Pivot (Algorithm 3): the parallel cluster-generation phase of ACD.

Each round, PC-Pivot picks the largest pivot count ``k`` whose predicted
wasted pairs stay within an ``ε`` fraction of all pairs issued (Equation 4),
then runs one Partial-Pivot round.  Lemma 4: the clustering equals sequential
Crowd-Pivot's for the same permutation (hence the same expected
5-approximation), and at most an ``ε`` fraction of issued pairs is wasted.

Two engines run the loop (see :data:`~repro.core.pivot_engine.PIVOT_ENGINES`):
``reference`` re-sorts the live vertices and re-derives the waste estimates
from scratch every round (the literal reading above), while ``fast`` keeps
an incremental permutation-ordered live list, fuses the Equation-4 scan into
one early-exiting pass, and hands the chosen pivots to Partial-Pivot instead
of recomputing them.  Outputs are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.clustering import Clustering
from repro.core.partial_pivot import partial_pivot, waste_estimates
from repro.core.permutation import Permutation
from repro.core.pivot_engine import (
    PIVOT_ENGINES,
    LiveVertexOrder,
    choose_pivots,
    require_pivot_engine,
)
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet
from repro.pruning.graph import CandidateGraph, EagerCandidateGraph

DEFAULT_EPSILON = 0.1

__all__ = [
    "DEFAULT_EPSILON",
    "PIVOT_ENGINES",
    "PCPivotDiagnostics",
    "choose_k",
    "pc_pivot",
]


@dataclass
class PCPivotDiagnostics:
    """Per-run diagnostics of PC-Pivot (used by the ε experiments).

    Attributes:
        ks: The pivot count chosen in each round.
        predicted_waste: Equation-3 waste bound summed per round.
        issued_per_round: Number of candidate pairs issued per round.
    """

    ks: List[int] = field(default_factory=list)
    predicted_waste: List[int] = field(default_factory=list)
    issued_per_round: List[int] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.ks)

    @property
    def total_predicted_waste(self) -> int:
        return sum(self.predicted_waste)


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
    immediately; :func:`pc_pivot` flags those rounds with a
    ``pivot.waste_bound_binding`` warning event on the attached obs
    context.
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
    engine: str = "fast",
) -> Clustering:
    """Run PC-Pivot over the candidate graph.

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: The candidate set ``S``.
        oracle: Crowd access (one batch per round).
        epsilon: The wasted-pair budget ε of Equation 4 (paper default 0.1).
        permutation: Explicit permutation ``M``; random when ``None``.
        seed: Seed for the random permutation (ignored if ``permutation``).
        rng: Alternative RNG for the permutation.
        diagnostics: Optional sink for per-round measurements.
        obs: Optional :class:`~repro.obs.ObsContext`; each round emits a
            ``pivot.round`` event (chosen ``k``, predicted waste, issued
            pairs, clusters formed) and bumps the round counter.  Rounds
            forced down to ``k=1`` under a positive ε additionally emit a
            ``pivot.waste_bound_binding`` warning event — the waste bound
            is binding and the round runs sequentially.
        engine: One of :data:`~repro.core.pivot_engine.PIVOT_ENGINES` —
            "fast" (incremental order + fused Equation-4 scan, default)
            or "reference" (per-round re-derivation); outputs are
            byte-identical.

    Returns:
        The clustering ``C`` (identical in distribution — in fact identical
        per-permutation — to Crowd-Pivot's).
    """
    require_pivot_engine(engine)
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, rng=rng, seed=seed)
    run = _pc_pivot_fast if engine == "fast" else _pc_pivot_reference
    return run(ids, candidates, oracle, epsilon, permutation, diagnostics,
               obs)


def _finish_round(obs, diagnostics, round_index, k, result, epsilon,
                  live_before, remaining) -> None:
    """Per-round bookkeeping shared by both engines (identical streams)."""
    if diagnostics is not None:
        diagnostics.ks.append(k)
        diagnostics.predicted_waste.append(result.predicted_waste)
        diagnostics.issued_per_round.append(len(result.issued_pairs))
    if obs is not None:
        obs.metrics.counter(
            "pivot_rounds_total",
            help="PC-Pivot parallel rounds executed",
        ).inc()
        if k == 1 and epsilon > 0 and live_before > 1:
            obs.event(
                "pivot.waste_bound_binding",
                round=round_index,
                epsilon=epsilon,
                live_records=live_before,
            )
        obs.event(
            "pivot.round",
            round=round_index,
            k=k,
            predicted_waste=result.predicted_waste,
            issued_pairs=len(result.issued_pairs),
            clusters=len(result.clusters),
            remaining_records=remaining,
        )


def _pc_pivot_reference(ids, candidates, oracle, epsilon, permutation,
                        diagnostics, obs) -> Clustering:
    """Reference engine: whole-graph re-derivation every round."""
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


def _pc_pivot_fast(ids, candidates, oracle, epsilon, permutation,
                   diagnostics, obs) -> Clustering:
    """Fast engine: incremental live order, fused scan, shared estimates.

    Byte-identical to :func:`_pc_pivot_reference` (same pivots, same crowd
    batches, same diagnostics and events) — property-tested in
    ``tests/core/test_pivot_engines.py``.
    """
    graph = EagerCandidateGraph(ids, candidates.pairs)
    order = LiveVertexOrder(permutation, graph.vertices)
    clustering = Clustering()

    round_index = 0
    while not graph.is_empty():
        ordered = order.live()
        live_before = len(ordered)
        k, estimates = choose_pivots(graph, ordered, epsilon)
        result = partial_pivot(
            graph, k, permutation, oracle, obs=obs,
            pivots=ordered[:k], predicted_waste=sum(estimates),
        )
        for cluster in result.clusters:
            clustering.add_cluster(cluster)
            order.discard(cluster)
        round_index += 1
        _finish_round(obs, diagnostics, round_index, k, result, epsilon,
                      live_before, remaining=len(graph))

    return clustering

"""PC-Pivot (Algorithm 3): the parallel cluster-generation phase of ACD.

Each round, PC-Pivot picks the largest pivot count ``k`` whose predicted
wasted pairs stay within an ``ε`` fraction of all pairs issued (Equation 4),
then runs one Partial-Pivot round.  Lemma 4: the clustering equals sequential
Crowd-Pivot's for the same permutation (hence the same expected
5-approximation), and at most an ``ε`` fraction of issued pairs is wasted.

The loop keeps an incremental permutation-ordered live list, fuses the
Equation-4 scan into one early-exiting pass, and hands the chosen pivots to
Partial-Pivot instead of recomputing them.  The literal per-round
re-derivation is the test oracle :func:`repro.reference.pc_pivot`; the two
are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.clustering import Clustering
from repro.core.partial_pivot import partial_pivot
from repro.core.permutation import Permutation
from repro.core.pivot_engine import LiveVertexOrder, choose_pivots
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet
from repro.pruning.graph import EagerCandidateGraph

DEFAULT_EPSILON = 0.1

__all__ = [
    "DEFAULT_EPSILON",
    "PCPivotDiagnostics",
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

    def to_state(self) -> Dict[str, List[int]]:
        """A JSON-safe snapshot (checkpoint payloads)."""
        return {"ks": list(self.ks),
                "predicted_waste": list(self.predicted_waste),
                "issued_per_round": list(self.issued_per_round)}

    @classmethod
    def from_state(cls, state: Dict) -> "PCPivotDiagnostics":
        """Inverse of :meth:`to_state`."""
        return cls(
            ks=[int(k) for k in state["ks"]],
            predicted_waste=[int(w) for w in state["predicted_waste"]],
            issued_per_round=[int(p) for p in state["issued_per_round"]],
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

    Returns:
        The clustering ``C`` (identical in distribution — in fact identical
        per-permutation — to Crowd-Pivot's).
    """
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, rng=rng, seed=seed)
    return _pc_pivot_fast(ids, candidates, oracle, epsilon, permutation,
                          diagnostics, obs)


def _finish_round(obs, diagnostics, round_index, k, result, epsilon,
                  live_before, remaining) -> None:
    """Per-round bookkeeping, shared with the :mod:`repro.reference`
    oracle so both emit identical diagnostics and event streams."""
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


def _pc_pivot_fast(ids, candidates, oracle, epsilon, permutation,
                   diagnostics, obs) -> Clustering:
    """Incremental live order, fused scan, shared estimates.

    Byte-identical to :func:`repro.reference.pc_pivot` (same pivots, same
    crowd batches, same diagnostics and events) — property-tested in
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
        result = partial_pivot(graph, k, oracle, obs=obs, pivots=ordered[:k],
                               predicted_waste=sum(estimates))
        for cluster in result.clusters:
            clustering.add_cluster(cluster)
            order.discard(cluster)
        round_index += 1
        _finish_round(obs, diagnostics, round_index, k, result, epsilon,
                      live_before, remaining=len(graph))

    return clustering

"""PC-Pivot (Algorithm 3): the parallel cluster-generation phase of ACD.

Each round, PC-Pivot picks the largest pivot count ``k`` whose predicted
wasted pairs stay within an ``ε`` fraction of all pairs issued (Equation 4),
then runs one Partial-Pivot round.  Lemma 4: the clustering equals sequential
Crowd-Pivot's for the same permutation (hence the same expected
5-approximation), and at most an ``ε`` fraction of issued pairs is wasted.

Every issued pair is pivot-incident, so the algorithm splits exactly along
the connected components of the candidate graph.  :func:`pc_pivot` runs it
that way — per component, in lockstep rounds, inline or on a worker pool —
through the executor of :mod:`repro.core.pivot_shard`, and records one
merged crowd round per component-local round.  The whole-graph loop the
paper states is the test oracle :func:`repro.reference.pc_pivot`: same
clustering (cluster ids included) for the same permutation; its rounds
couple components through the global permutation prefix, so it reports
more rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.clustering import Clustering
from repro.core.permutation import Permutation
from repro.core.pivot_shard import generate_inline
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet

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
    """Run PC-Pivot over the candidate graph per component, in lockstep.

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: The candidate set ``S``.
        oracle: Crowd access (one batch per merged round).
        epsilon: The wasted-pair budget ε of Equation 4 (paper default 0.1).
        permutation: Explicit permutation ``M``; random when ``None``.
        seed: Seed for the random permutation (ignored if ``permutation``).
        rng: Alternative RNG for the permutation.
        diagnostics: Optional sink for per-round measurements.
        obs: Optional :class:`~repro.obs.ObsContext`; each merged round
            emits a ``pivot.round`` event (chosen ``k``, predicted waste,
            issued pairs, clusters formed) and bumps the round counter.
            Rounds forced down to ``k=1`` under a positive ε additionally
            emit a ``pivot.waste_bound_binding`` warning event — the
            waste bound is binding and the round runs sequentially.
        run: Component work already started for this permutation (on a
            worker pool, by :func:`repro.core.acd.run_acd`); ``None``
            runs every component inline.

    Returns:
        The clustering ``C`` (identical per permutation to Crowd-Pivot's).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, rng=rng, seed=seed)
    return generate_inline(ids, candidates, permutation, oracle, epsilon,
                           diagnostics, obs)

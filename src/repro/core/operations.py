"""Split and merger operations with cost-benefit analysis (Sections 5.1-5.2).

An operation's *benefit* is the exact decrease in Λ'(R) it would cause
(Equations 5-6); its *cost* is the number of still-unknown candidate pairs
that must be crowdsourced to compute that benefit exactly (Equations 7-8).
Pairs pruned away by phase 1 have ``f_c = 0`` by definition — known for free.

:class:`OperationEvaluator` binds an operation to the current clustering,
the candidate set, the known-answer set ``A`` (via the oracle), and the
histogram estimator, and answers: relevant pairs, exact benefit (when
computable without the crowd), estimated benefit ``b*``, and cost ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.clustering import Clustering
from repro.core.estimator import HistogramEstimator
from repro.core.objective import merge_benefit, split_benefit
from repro.crowd.oracle import CrowdOracle
from repro.datasets.schema import canonical_pair
from repro.pruning.candidate import CandidateSet

Pair = Tuple[int, int]


@dataclass(frozen=True)
class Split:
    """Split ``record_id`` out of its cluster ``cluster_id`` (Section 5.1)."""

    record_id: int
    cluster_id: int

    @property
    def touched_clusters(self) -> Tuple[int, ...]:
        return (self.cluster_id,)


@dataclass(frozen=True)
class Merge:
    """Merge clusters ``cluster_a`` and ``cluster_b`` (Section 5.1)."""

    cluster_a: int
    cluster_b: int

    def __post_init__(self) -> None:
        if self.cluster_a == self.cluster_b:
            raise ValueError("merge needs two distinct clusters")

    @property
    def touched_clusters(self) -> Tuple[int, ...]:
        return (self.cluster_a, self.cluster_b)


Operation = Union[Split, Merge]


def independent(op_a: Operation, op_b: Operation) -> bool:
    """Section 5.4 independence: the operations touch disjoint clusters,
    so they can be applied simultaneously without side effects."""
    return not set(op_a.touched_clusters) & set(op_b.touched_clusters)


def apply_operation(clustering: Clustering, operation: Operation) -> None:
    """Apply a split or merger to the clustering in place."""
    if isinstance(operation, Split):
        clustering.split(operation.record_id)
    elif isinstance(operation, Merge):
        clustering.merge(operation.cluster_a, operation.cluster_b)
    else:
        raise TypeError(f"unknown operation type: {type(operation).__name__}")


class OperationEvaluator:
    """Benefit/cost oracle for refinement operations against current state.

    The evaluator never crowdsources anything itself: exact benefits are
    returned only when every needed ``f_c`` is already known (in ``A`` or
    pruned, hence 0); otherwise callers get the histogram-based estimate
    ``b*`` and the crowdsourcing cost ``c``.
    """

    def __init__(
        self,
        clustering: Clustering,
        candidates: CandidateSet,
        oracle: CrowdOracle,
        estimator: HistogramEstimator,
    ):
        self._clustering = clustering
        self._candidates = candidates
        self._oracle = oracle
        self._estimator = estimator
        #: From-scratch derivations performed (each public value walks
        #: ``relevant_pairs`` once).  The refine benchmark reads this to
        #: compare the reference oracle's work against the incremental
        #: :class:`~repro.core.evaluation_cache.EvaluationCache`.
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Pair-level views
    # ------------------------------------------------------------------

    def relevant_pairs(self, operation: Operation) -> List[Pair]:
        """The record pairs whose ``f_c`` the operation's benefit needs."""
        self.evaluations += 1
        if isinstance(operation, Split):
            others = self._clustering.members(operation.cluster_id)
            others.discard(operation.record_id)
            return [canonical_pair(operation.record_id, other)
                    for other in sorted(others)]
        members_a = sorted(self._clustering.members(operation.cluster_a))
        members_b = sorted(self._clustering.members(operation.cluster_b))
        return [canonical_pair(a, b) for a in members_a for b in members_b]

    def known_confidence(self, pair: Pair) -> Optional[float]:
        """``f_c`` for a pair when free: crowdsourced already, or pruned
        (``f_c = 0`` by definition).  ``None`` when crowdsourcing is needed."""
        answered = self._oracle.known_confidence(*pair)
        if answered is not None:
            return answered
        if pair not in self._candidates:
            return 0.0
        return None

    def unknown_pairs(self, operation: Operation) -> List[Pair]:
        """The pairs that must be crowdsourced for the exact benefit
        (Equations 7-8 count these)."""
        return [pair for pair in self.relevant_pairs(operation)
                if self.known_confidence(pair) is None]

    # ------------------------------------------------------------------
    # Benefit and cost
    # ------------------------------------------------------------------

    def cost(self, operation: Operation) -> int:
        """Crowdsourcing cost ``c(o)`` (Equations 7-8)."""
        return len(self.unknown_pairs(operation))

    def exact_benefit(self, operation: Operation) -> Optional[float]:
        """``b(o)`` when every relevant ``f_c`` is known; else ``None``."""
        confidences: List[float] = []
        for pair in self.relevant_pairs(operation):
            confidence = self.known_confidence(pair)
            if confidence is None:
                return None
            confidences.append(confidence)
        if isinstance(operation, Split):
            return split_benefit(confidences)
        return merge_benefit(confidences)

    def estimated_benefit(self, operation: Operation) -> float:
        """``b*(o)``: exact contributions where known, histogram estimates
        (from machine scores) for the rest."""
        confidences: List[float] = []
        for pair in self.relevant_pairs(operation):
            confidence = self.known_confidence(pair)
            if confidence is None:
                confidence = self._estimator.estimate(
                    self._candidates.machine_scores[pair]
                )
            confidences.append(confidence)
        if isinstance(operation, Split):
            return split_benefit(confidences)
        return merge_benefit(confidences)

    def benefit_cost_ratio(self, operation: Operation) -> float:
        """``b*(o) / c(o)``, made total: a zero-cost operation is *free* —
        asking the crowd costs nothing — so its ranking key is simply its
        exact benefit, not an infinite (or undefined) ratio.  This keeps the
        ranking deterministic and finite for every operation; the refinement
        loops still route zero-cost operations through the free path first,
        so in practice this branch only matters to external callers."""
        cost = self.cost(operation)
        if cost <= 0:
            return self.estimated_benefit(operation)
        return self.estimated_benefit(operation) / cost

"""Incremental benefit/cost evaluation for the refinement phase.

:class:`~repro.core.operations.OperationEvaluator` re-derives an
operation's relevant pairs, cost, and benefits from scratch on every call —
correct, but the refinement loops (Algorithms 4-5) ask for the same values
thousands of times while only a handful of clusters change per iteration.
:class:`EvaluationCache` memoizes the full evaluation of each operation and
invalidates *only* what actually changed, keyed on three signals:

* **Cluster versions** — an entry snapshots its touched clusters'
  :class:`~repro.core.refine.ClusterVersionTracker` versions; any applied
  operation bumps only the changed clusters, so only entries touching them
  rebuild.
* **Oracle answer epoch** — the oracle keeps an append-only log of pairs
  transitioning unknown -> known; the cache consumes it through a cursor
  and reads each fresh pair's holders off the cluster map: a pair inside
  cluster ``C`` feeds only ``Split(a, C)`` and ``Split(b, C)``, a pair
  across two clusters only their ``Merge``.  Of those, the entries that
  exist with a current snapshot are marked dirty (a stale one rebuilds
  anyway); a record outside the clustering feeds nothing.
* **Estimator epoch** — new histogram samples bump the estimator's epoch;
  the cache re-queries its per-score estimate memo and marks dirty only
  entries holding unknown pairs whose machine-score estimate *actually
  changed* (a reverse score -> operations index), so a rebuild that lands
  on identical bucket means invalidates nothing.

Everything the cache serves is byte-identical to a fresh
``OperationEvaluator`` derivation: per-pair confidences are stored in
``relevant_pairs`` order and benefits are recomputed as the same ordered
sums (:func:`~repro.core.objective.split_benefit` /
:func:`~repro.core.objective.merge_benefit`), so float summation order — and
therefore every downstream comparison and tie-break — is preserved.

Assumptions (all hold within a run): crowd answers are append-only (a
known pair's confidence never changes), pruned pairs stay pruned, and all
clustering mutations flow through the shared version tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.clustering import Clustering
from repro.core.estimator import HistogramEstimator
from repro.core.objective import merge_benefit, split_benefit
from repro.core.operations import Merge, Operation, Split
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (refine imports us)
    from repro.core.refine import ClusterVersionTracker

Pair = Tuple[int, int]


@dataclass
class EvaluationStats:
    """Work accounting for the cache (read by the refine benchmark).

    Attributes:
        lookups: Public value requests served.
        hits: Lookups answered entirely from a current entry.
        refreshes: Lookups that reused the entry's pair structure but
            re-resolved answers / re-summed benefits (answer or estimate
            delta touched the entry).
        evaluations: Full from-scratch derivations (entry missing or its
            cluster snapshot stale) — the unit the reference oracle pays
            on *every* request.
    """

    lookups: int = 0
    hits: int = 0
    refreshes: int = 0
    evaluations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "refreshes": self.refreshes,
            "evaluations": self.evaluations,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Entry:
    """One operation's memoized evaluation (see module docstring)."""

    __slots__ = (
        "snapshot", "is_split", "pairs", "confidences", "unknown_indices",
        "unknown_scores", "registered_scores", "estimated", "exact",
        "answer_dirty", "estimate_dirty",
    )

    def __init__(self) -> None:
        self.snapshot: Tuple[Tuple[int, int], ...] = ()
        self.is_split = False
        self.pairs: List[Pair] = []
        # One slot per relevant pair, in order: the known f_c (answered or
        # pruned-0.0) or None while the pair is still unknown.
        self.confidences: List[Optional[float]] = []
        self.unknown_indices: List[int] = []
        self.unknown_scores: List[float] = []
        # Distinct scores registered in the score index at build time
        # (kept until rebuild so stale registrations can be dropped; a
        # spurious dirty mark only costs a refresh, never correctness).
        self.registered_scores: Tuple[float, ...] = ()
        self.estimated: float = 0.0
        self.exact: Optional[float] = None
        self.answer_dirty = False
        self.estimate_dirty = False


class EvaluationCache:
    """Version/epoch-invalidated memo of operation evaluations.

    Serves the same values as an
    :class:`~repro.core.operations.OperationEvaluator` over the same state,
    byte-for-byte, while recomputing only entries invalidated by cluster
    changes, fresh crowd answers, or changed histogram estimates.
    """

    def __init__(
        self,
        clustering: Clustering,
        candidates: CandidateSet,
        oracle: CrowdOracle,
        estimator: HistogramEstimator,
        tracker: "ClusterVersionTracker",
    ):
        self._clustering = clustering
        self._candidates = candidates
        self._oracle = oracle
        self._known = oracle.known_map
        self._estimator = estimator
        self._tracker = tracker
        self._entries: Dict[Operation, _Entry] = {}
        # Reverse index: which entries a changed estimate can affect.
        self._score_index: Dict[float, Dict[Operation, _Entry]] = {}
        # Per-machine-score estimate memo, refreshed (and diffed) when the
        # estimator epoch moves; covers every registered score.
        self._estimates: Dict[float, float] = {}
        self._answer_cursor = oracle.answer_epoch
        self._estimator_epoch = estimator.epoch
        # Operations whose cached values changed since the last drain
        # (answer/estimate deltas only; cluster staleness is reported by
        # the tracker, not here).
        self._dirty_ops: Set[Operation] = set()
        self.stats = EvaluationStats()

    # ------------------------------------------------------------------
    # Public accessors (OperationEvaluator-compatible values)
    # ------------------------------------------------------------------

    def relevant_pairs(self, operation: Operation) -> List[Pair]:
        """The record pairs whose ``f_c`` the operation's benefit needs."""
        return list(self._entry(operation, exact_only=True).pairs)

    def cost(self, operation: Operation) -> int:
        """Crowdsourcing cost ``c(o)``."""
        return len(self._entry(operation, exact_only=True).unknown_indices)

    def unknown_pairs(self, operation: Operation) -> List[Pair]:
        """Still-unknown relevant pairs, in ``relevant_pairs`` order."""
        entry = self._entry(operation, exact_only=True)
        return [entry.pairs[index] for index in entry.unknown_indices]

    def exact_benefit(self, operation: Operation) -> Optional[float]:
        """``b(o)`` when every relevant ``f_c`` is known; else ``None``."""
        return self._entry(operation, exact_only=True).exact

    def estimated_benefit(self, operation: Operation) -> float:
        """``b*(o)``: known contributions exact, the rest estimated."""
        return self._entry(operation).estimated

    def ratio_and_cost(self, operation: Operation) -> Tuple[Optional[float], int]:
        """``(b*(o)/c(o), c(o))`` for costly operations; ``(None, cost)``
        when ``c(o) <= 0`` (the refinement loops route those through the
        free path and never rank them)."""
        entry = self._entry(operation)
        cost = len(entry.unknown_indices)
        if cost <= 0:
            return None, cost
        return entry.estimated / cost, cost

    def drain_dirty_operations(self) -> Set[Operation]:
        """Operations whose cached values changed since the last drain due
        to fresh answers or changed estimates.  Cluster-version staleness is
        *not* reported here — callers learn about it from the operations
        they applied through the shared tracker."""
        self._sync()
        dirty = self._dirty_ops
        self._dirty_ops = set()
        return dirty

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------

    def _entry(self, operation: Operation,
               exact_only: bool = False) -> _Entry:
        """Resolve a current entry for ``operation``.

        ``exact_only`` marks accessors whose values don't depend on the
        histogram (pairs / cost / exact benefit): for them an
        estimate-stale entry is still a hit — the free path re-scans every
        operation per pass, and would otherwise pay a refresh per
        histogram change for values the estimator can't move.
        """
        self._sync()
        self.stats.lookups += 1
        entry = self._entries.get(operation)
        if entry is None or not self._tracker.is_current(entry.snapshot):
            self.stats.evaluations += 1
            return self._build(operation)
        if entry.answer_dirty or (entry.estimate_dirty and not exact_only):
            self.stats.refreshes += 1
            self._refresh(entry)
            return entry
        self.stats.hits += 1
        return entry

    def _build(self, operation: Operation) -> _Entry:
        old = self._entries.get(operation)
        if old is not None:
            self._deregister(operation, old)

        entry = _Entry()
        entry.snapshot = self._tracker.snapshot(operation.touched_clusters)
        entry.is_split = isinstance(operation, Split)
        # Canonical pairs built inline, in OperationEvaluator.relevant_pairs
        # order (the operands never share a record, so no pair is (r, r)).
        if entry.is_split:
            record = operation.record_id
            others = self._clustering.members(operation.cluster_id)
            others.discard(record)
            pairs = [(record, other) if record < other else (other, record)
                     for other in sorted(others)]
        else:
            members_a = sorted(self._clustering.members(operation.cluster_a))
            members_b = sorted(self._clustering.members(operation.cluster_b))
            pairs = [(a, b) if a < b else (b, a)
                     for a in members_a for b in members_b]
        entry.pairs = pairs

        # One lookup per pair: answered pairs read f_c from ``A``; on a miss
        # the pair is pruned (no machine score: f_c = 0) or still unknown.
        known = self._known.get
        score_of = self._candidates.machine_scores.get
        confidences = entry.confidences
        unknown_indices = entry.unknown_indices
        unknown_scores = entry.unknown_scores
        for index, pair in enumerate(pairs):
            confidence = known(pair)
            if confidence is None:
                score = score_of(pair)
                if score is None:
                    confidence = 0.0
                else:
                    unknown_indices.append(index)
                    unknown_scores.append(score)
            confidences.append(confidence)

        entry.registered_scores = tuple(set(unknown_scores))
        estimates = self._estimates
        for score in entry.registered_scores:
            if score not in estimates:
                estimates[score] = self._estimator.estimate(score)
            self._score_index.setdefault(score, {})[operation] = entry

        self._recompute_benefits(entry)
        self._entries[operation] = entry
        return entry

    def _refresh(self, entry: _Entry) -> None:
        """Re-resolve answers / re-sum benefits without re-deriving the
        pair structure (cluster snapshot is still current)."""
        if entry.answer_dirty:
            known = self._known.get
            still_indices: List[int] = []
            still_scores: List[float] = []
            for position, index in enumerate(entry.unknown_indices):
                confidence = known(entry.pairs[index])
                if confidence is None:
                    still_indices.append(index)
                    still_scores.append(entry.unknown_scores[position])
                else:
                    entry.confidences[index] = confidence
            entry.unknown_indices = still_indices
            entry.unknown_scores = still_scores
            entry.answer_dirty = False
        # The estimate memo is always current after _sync, so recomputing
        # clears estimate staleness no matter which flag triggered us.
        entry.estimate_dirty = False
        self._recompute_benefits(entry)

    def _recompute_benefits(self, entry: _Entry) -> None:
        # Ordered sums over the relevant pairs — the exact arithmetic of
        # OperationEvaluator.{exact,estimated}_benefit.
        values: List[float] = entry.confidences  # type: ignore[assignment]
        if entry.unknown_indices:
            values = list(values)
            for index, score in zip(entry.unknown_indices, entry.unknown_scores):
                values[index] = self._estimates[score]
        benefit = split_benefit if entry.is_split else merge_benefit
        entry.estimated = benefit(values)
        entry.exact = None if entry.unknown_indices else entry.estimated

    def _deregister(self, operation: Operation, entry: _Entry) -> None:
        for score in entry.registered_scores:
            ops = self._score_index.get(score)
            if ops is not None:
                ops.pop(operation, None)
                if not ops:
                    del self._score_index[score]
                    self._estimates.pop(score, None)

    # ------------------------------------------------------------------
    # Delta ingestion
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        oracle_epoch = self._oracle.answer_epoch
        if oracle_epoch != self._answer_cursor:
            fresh = self._oracle.answers_since(self._answer_cursor)
            self._answer_cursor = oracle_epoch
            clustering = self._clustering
            for record_a, record_b in fresh:
                if record_a not in clustering or record_b not in clustering:
                    continue  # beyond a component oracle's clustering
                # Only these operations' current pairs can hold (a, b).
                cluster_a = clustering.cluster_of(record_a)
                cluster_b = clustering.cluster_of(record_b)
                if cluster_a == cluster_b:
                    holders: Tuple[Operation, ...] = (
                        Split(record_a, cluster_a), Split(record_b, cluster_a))
                else:
                    holders = (Merge(min(cluster_a, cluster_b),
                                     max(cluster_a, cluster_b)),)
                for operation in holders:
                    entry = self._entries.get(operation)
                    if (entry is not None
                            and self._tracker.is_current(entry.snapshot)):
                        entry.answer_dirty = True
                        self._dirty_ops.add(operation)

        estimator_epoch = self._estimator.epoch
        if estimator_epoch != self._estimator_epoch:
            self._estimator_epoch = estimator_epoch
            changed: List[float] = []
            for score, old_value in self._estimates.items():
                new_value = self._estimator.estimate(score)
                if new_value != old_value:
                    self._estimates[score] = new_value
                    changed.append(score)
            for score in changed:
                holders = self._score_index.get(score)
                if holders:
                    for entry in holders.values():
                        entry.estimate_dirty = True
                    self._dirty_ops.update(holders)

"""Incremental benefit/cost evaluation for the refinement phase.

:class:`~repro.core.operations.OperationEvaluator` re-derives an
operation's relevant pairs, cost, and benefits from scratch on every call —
correct, but the refinement loops (Algorithms 4-5) ask for the same values
thousands of times while only a handful of clusters change per iteration.
:class:`EvaluationCache` memoizes the full evaluation of each operation and
updates *only* what actually changed, keyed on four signals:

* **Cluster versions** — an entry snapshots its touched clusters'
  :class:`~repro.core.refine.ClusterVersionTracker` versions; any applied
  operation bumps only the changed clusters, so only entries touching them
  go stale.
* **Cluster deltas** — a stale entry replays the membership changes the
  tracker logged since its snapshot (a split: one record left; a merge:
  the absorbed cluster's records joined) and patches its rows in place:
  only the pairs of records that joined are resolved, the pairs of
  records that left are cut out, and every other pair keeps its term.  A
  record that left and came back is resolved afresh.  The entry rebuilds
  instead when its own split record left its cluster (answers that land
  meanwhile are marked on a ``Merge``), when a cluster was destroyed, or
  when the new pairs would exceed half the grid.
* **Oracle answer epoch** — the oracle keeps an append-only log of pairs
  transitioning unknown -> known; the cache consumes it through a cursor
  and reads each fresh pair's holders off the cluster map: a pair inside
  cluster ``C`` feeds only ``Split(a, C)`` and ``Split(b, C)``, a pair
  across two clusters only their ``Merge``.  Those entries are marked
  dirty — stale ones too, since a patch keeps their old pairs; a record
  outside the clustering feeds nothing.
* **Estimator epoch** — new histogram samples bump the estimator's epoch;
  the cache re-queries its per-score estimate memo and marks dirty only
  entries holding unknown pairs whose machine-score estimate *actually
  changed* (a reverse score -> operations index), so a rebuild that lands
  on identical bucket means invalidates nothing.

The cache observes the tracker: a merge evicts every entry touching the
cluster it destroyed, with its score registrations (cluster ids are
never reused, so such an entry could never be served again).  Entries
that received fresh answers are also collected apart from the dirty
set (:meth:`EvaluationCache.drain_answered_operations`): an answer can
move an exact benefit, an estimate cannot, so only they seed the next
free pass besides the changed clusters' operations.

An entry stores its operation's pairs as a row-major grid — the split's
record against its cluster's other members, or the merge's ``cluster_a``
members against ``cluster_b``'s, both sorted — with one benefit term per
pair (``1 - 2 f_c`` for a split, Equation 5; ``2 f_c - 1`` for a merge,
Equation 6) and an unknown flag; machine scores are kept for the unknown
pairs only.  Everything the cache serves is byte-identical to a fresh
``OperationEvaluator`` derivation: the grid is ``relevant_pairs`` order,
each term is the exact expression of
:func:`~repro.core.objective.split_benefit` /
:func:`~repro.core.objective.merge_benefit`, and a benefit is the same
builtin ``sum`` over the same sequence of terms — so float summation order,
and therefore every downstream comparison and tie-break, is preserved.

Assumptions (all hold within a run): crowd answers are append-only (a
known pair's confidence never changes), pruned pairs stay pruned, and all
clustering mutations flow through the shared version tracker.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count
from typing import (
    TYPE_CHECKING, AbstractSet, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.core.clustering import Clustering
from repro.core.estimator import HistogramEstimator
from repro.core.operations import Merge, Operation, Split
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (refine imports us)
    from repro.core.refine import ClusterVersionTracker, MembershipChange

Pair = Tuple[int, int]
#: ``(start, stop, inserted)``: keep old positions ``start:stop``, then
#: place the ``inserted`` records (see :func:`_splice`).
_Segment = Tuple[int, int, List[int]]


@dataclass
class EvaluationStats:
    """Work accounting for the cache (read by the refine benchmark).

    Attributes:
        lookups: Public value requests served.
        hits: Lookups answered entirely from a current entry.
        refreshes: Lookups that reused the entry's pair structure but
            re-resolved answers / re-summed benefits (answer or estimate
            delta touched the entry).
        evaluations: Full from-scratch derivations (entry missing, or its
            clusters changed too much to patch) — the unit the reference
            oracle pays on *every* request.
        patches: Lookups that brought a stale entry up to date by
            replaying its clusters' membership changes (only the pairs of
            records that joined are resolved).
    """

    lookups: int = 0
    hits: int = 0
    refreshes: int = 0
    evaluations: int = 0
    patches: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "refreshes": self.refreshes,
            "evaluations": self.evaluations,
            "patches": self.patches,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Entry:
    """One operation's memoized evaluation (see module docstring)."""

    __slots__ = (
        "snapshot", "is_split", "rows", "cols", "terms", "unknown",
        "scores", "registered_scores", "estimated", "exact",
        "answer_dirty", "estimate_dirty",
    )

    def __init__(self, is_split: bool) -> None:
        self.snapshot: Tuple[Tuple[int, int], ...] = ()
        self.is_split = is_split
        # The grid's sorted row and column records: a split's record
        # against its cluster's other members, or cluster_a x cluster_b.
        self.rows: List[int] = []
        self.cols: List[int] = []
        # One benefit term per cell, row-major (the estimate's term while
        # the pair is unknown), and a flag per cell marking unknown pairs.
        self.terms: List[float] = []
        self.unknown = bytearray()
        # Machine scores of the unknown cells, in cell order; its length is
        # the operation's cost.
        self.scores: List[float] = []
        # Distinct scores registered in the score index (reset on every
        # build and patch; answers only shrink the unknown set, and a
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

    #: A stale entry rebuilds instead of patching once the pairs a patch
    #: would resolve exceed this share of its new grid.
    _PATCH_LIMIT = 0.5

    def __init__(
        self,
        clustering: Clustering,
        candidates: CandidateSet,
        oracle: CrowdOracle,
        estimator: HistogramEstimator,
        tracker: "ClusterVersionTracker",
    ):
        self._clustering = clustering
        self._machine_scores = candidates.machine_scores
        self._oracle = oracle
        self._known = oracle.known_map
        self._estimator = estimator
        self._tracker = tracker
        self._entries: Dict[Operation, _Entry] = {}
        # cluster id -> the operations whose entry was created touching
        # it, so the entries of a destroyed cluster can be evicted (ids
        # are never reused: such an entry can never be served again).
        self._by_cluster: Dict[int, List[Operation]] = {}
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
        # Operations whose entries received fresh answers since the last
        # drain — the only ones whose exact benefit can have moved
        # without a cluster change (estimate deltas cannot move it).
        self._answered_ops: Set[Operation] = set()
        self.stats = EvaluationStats()
        tracker.observe(self)

    # ------------------------------------------------------------------
    # Public accessors (OperationEvaluator-compatible values)
    # ------------------------------------------------------------------

    def relevant_pairs(self, operation: Operation) -> List[Pair]:
        """The record pairs whose ``f_c`` the operation's benefit needs."""
        entry = self._entry(operation, exact_only=True)
        cols = entry.cols
        return [(row, col) if row < col else (col, row)
                for row in entry.rows for col in cols]

    def cost(self, operation: Operation) -> int:
        """Crowdsourcing cost ``c(o)``."""
        return len(self._entry(operation, exact_only=True).scores)

    def unknown_pairs(self, operation: Operation) -> List[Pair]:
        """Still-unknown relevant pairs, in ``relevant_pairs`` order."""
        entry = self._entry(operation, exact_only=True)
        rows, cols = entry.rows, entry.cols
        width = len(cols)
        pairs = []
        for index in compress(count(), entry.unknown):
            a, b = rows[index // width], cols[index % width]
            pairs.append((a, b) if a < b else (b, a))
        return pairs

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
        cost = len(entry.scores)
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

    def drain_answered_operations(self) -> Set[Operation]:
        """Operations whose entries received fresh crowd answers since the
        last drain (stale ones included: their clusters changed after the
        answer landed)."""
        self._sync()
        answered = self._answered_ops
        self._answered_ops = set()
        return answered

    # ------------------------------------------------------------------
    # Tracker observer
    # ------------------------------------------------------------------

    def on_split(self, record_id: int, cluster_id: int, created: int) -> None:
        """A split destroys no cluster: nothing to evict."""

    def on_merge(self, survivor: int, absorbed: int) -> None:
        """Evict every entry touching the absorbed cluster, with its
        score registrations."""
        for operation in self._by_cluster.pop(absorbed, ()):
            # A merge entry is already gone when its other cluster died
            # first.
            entry = self._entries.pop(operation, None)
            if entry is not None:
                self._unregister(operation, entry.registered_scores)
                self._dirty_ops.discard(operation)
                self._answered_ops.discard(operation)

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------

    def _entry(self, operation: Operation,
               exact_only: bool = False) -> _Entry:
        """Resolve a current entry for ``operation``.

        ``exact_only`` marks accessors whose values don't depend on the
        histogram (pairs / cost / exact benefit): for them an
        estimate-stale entry is still a hit — the free path would
        otherwise pay a refresh per histogram change for values the
        estimator can't move.
        """
        self._sync()
        stats = self.stats
        stats.lookups += 1
        entry = self._entries.get(operation)
        if entry is None:
            entry = _Entry(isinstance(operation, Split))
            self._entries[operation] = entry
            for cluster_id in operation.touched_clusters:
                self._by_cluster.setdefault(cluster_id, []).append(operation)
            stats.evaluations += 1
            self._build(operation, entry)
        elif not self._tracker.is_current(entry.snapshot):
            if self._patch(operation, entry):
                stats.patches += 1
            else:
                stats.evaluations += 1
                self._build(operation, entry)
        elif entry.answer_dirty or (entry.estimate_dirty and not exact_only):
            stats.refreshes += 1
            self._refresh(entry)
        else:
            stats.hits += 1
        return entry

    def _build(self, operation: Operation, entry: _Entry) -> None:
        """Derive ``entry`` from the current clustering (in place, so the
        score index keeps pointing at it)."""
        entry.snapshot = self._tracker.snapshot(operation.touched_clusters)
        view = self._clustering.member_view
        if entry.is_split:
            record = operation.record_id
            entry.rows = [record]
            entry.cols = sorted(view(operation.cluster_id))
            entry.cols.remove(record)
        else:
            entry.rows = sorted(view(operation.cluster_a))
            entry.cols = sorted(view(operation.cluster_b))
        entry.terms = []
        entry.unknown = bytearray()
        entry.scores = []
        for row in entry.rows:
            self._resolve(entry, row, entry.cols)
        entry.answer_dirty = entry.estimate_dirty = False
        self._summarize(entry)
        self._register(operation, entry)

    def _patch(self, operation: Operation, entry: _Entry) -> bool:
        """Bring a stale entry up to date from its clusters' logged
        membership changes; ``False`` when it must rebuild instead."""
        tracker = self._tracker
        moves = []
        for cluster_id, version in entry.snapshot:
            changes = tracker.changes_since(cluster_id, version)
            if changes is None:
                return False  # a touched cluster was destroyed
            moves.append(_net_moves(changes))
        if entry.is_split:
            ((gone_cols, joined_cols),) = moves
            if operation.record_id in gone_cols:
                # The record left (and may be back): answers between were
                # marked on a Merge, so its whole row is suspect.
                return False
            gone_rows: AbstractSet[int] = frozenset()
            joined_rows: AbstractSet[int] = frozenset()
        else:
            (gone_rows, joined_rows), (gone_cols, joined_cols) = moves

        old_rows, old_cols = entry.rows, entry.cols
        row_plan, rows = _splice(old_rows, gone_rows, joined_rows)
        col_plan, cols = _splice(old_cols, gone_cols, joined_cols)
        fresh_pairs = ((len(old_rows) - len(gone_rows)) * len(joined_cols)
                       + len(joined_rows) * len(cols))
        if fresh_pairs > self._PATCH_LIMIT * len(rows) * len(cols):
            return False

        # Walk the old grid in cell order: kept cells are copied in runs
        # (their unknown scores are the matching run of ``scores``, found by
        # counting flags), new cells are resolved.
        old_terms, old_unknown, old_scores = (entry.terms, entry.unknown,
                                              entry.scores)
        terms: List[float] = []
        unknown = bytearray()
        scores: List[float] = []
        entry.terms, entry.unknown, entry.scores = terms, unknown, scores
        width = len(old_cols)
        cursor = rank = 0  # old cell position, unknown cells before it

        def keep(start: int, stop: int) -> None:
            nonlocal cursor, rank
            rank += old_unknown.count(1, cursor, start)
            run = old_unknown.count(1, start, stop)
            terms.extend(old_terms[start:stop])
            unknown.extend(old_unknown[start:stop])
            scores.extend(old_scores[rank:rank + run])
            rank += run
            cursor = stop

        cols_unchanged = not gone_cols and not joined_cols
        for start, stop, inserted_rows in row_plan:
            if cols_unchanged:
                keep(start * width, stop * width)
            else:
                for index in range(start, stop):
                    base = index * width
                    for col_start, col_stop, inserted in col_plan:
                        keep(base + col_start, base + col_stop)
                        if inserted:
                            self._resolve(entry, old_rows[index], inserted)
            for row in inserted_rows:
                self._resolve(entry, row, cols)
        entry.rows, entry.cols = rows, cols
        entry.snapshot = tracker.snapshot(operation.touched_clusters)
        self._refresh(entry)
        self._register(operation, entry)
        return True

    def _resolve(self, entry: _Entry, row: int, cols: Sequence[int]) -> None:
        """Append the cells ``row x cols`` to ``entry``'s grid.

        One lookup per pair: answered pairs read f_c from ``A``; on a miss
        the pair is pruned (no machine score: f_c = 0) or still unknown,
        and takes its score's current estimate."""
        known = self._known.get
        score_of = self._machine_scores.get
        estimates = self._estimates
        unknown = entry.unknown
        scores = entry.scores
        values: List[float] = []
        for col in cols:
            pair = (row, col) if row < col else (col, row)
            confidence = known(pair)
            if confidence is None:
                score = score_of(pair)
                if score is None:
                    confidence = 0.0
                else:
                    confidence = estimates.get(score)
                    if confidence is None:
                        confidence = self._estimator.estimate(score)
                        estimates[score] = confidence
                    scores.append(score)
                    unknown.append(1)
                    values.append(confidence)
                    continue
            unknown.append(0)
            values.append(confidence)
        # The exact per-pair expressions of split_benefit / merge_benefit.
        if entry.is_split:
            entry.terms.extend([1.0 - 2.0 * fc for fc in values])
        else:
            entry.terms.extend([2.0 * fc - 1.0 for fc in values])

    def _refresh(self, entry: _Entry) -> None:
        """Re-resolve answers / re-sum benefits without re-deriving the
        pair structure (cluster snapshot is current)."""
        terms, unknown = entry.terms, entry.unknown
        if entry.answer_dirty:
            known = self._known.get
            rows, cols = entry.rows, entry.cols
            width = len(cols)
            still: List[float] = []
            for index, score in zip(compress(count(), unknown),
                                    entry.scores):
                a, b = rows[index // width], cols[index % width]
                confidence = known((a, b) if a < b else (b, a))
                if confidence is None:
                    still.append(score)
                else:
                    terms[index] = (1.0 - 2.0 * confidence if entry.is_split
                                    else 2.0 * confidence - 1.0)
                    unknown[index] = 0
            entry.scores = still
            entry.answer_dirty = False
        if entry.estimate_dirty:
            estimates = self._estimates
            cells = zip(compress(count(), unknown), entry.scores)
            if entry.is_split:
                for index, score in cells:
                    terms[index] = 1.0 - 2.0 * estimates[score]
            else:
                for index, score in cells:
                    terms[index] = 2.0 * estimates[score] - 1.0
            entry.estimate_dirty = False
        self._summarize(entry)

    @staticmethod
    def _summarize(entry: _Entry) -> None:
        # The same builtin sum over the same ordered terms as
        # OperationEvaluator.{exact,estimated}_benefit.
        entry.estimated = sum(entry.terms)
        entry.exact = None if entry.scores else entry.estimated

    def _register(self, operation: Operation, entry: _Entry) -> None:
        """Index ``entry`` under exactly its unknown cells' scores."""
        registered = set(entry.scores)
        self._unregister(operation, [score for score in entry.registered_scores
                                     if score not in registered])
        index = self._score_index
        for score in registered:
            index.setdefault(score, {})[operation] = entry
        entry.registered_scores = tuple(registered)

    def _unregister(self, operation: Operation,
                    scores: Sequence[float]) -> None:
        """Drop ``operation`` from the score index under ``scores``; a
        score nothing holds any more leaves the estimate memo too."""
        index = self._score_index
        for score in scores:
            ops = index[score]
            del ops[operation]
            if not ops:
                del index[score]
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
                    if entry is not None:
                        # A stale holder is patched, keeping this pair.
                        entry.answer_dirty = True
                        self._answered_ops.add(operation)
                        if self._tracker.is_current(entry.snapshot):
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


def _net_moves(changes: Sequence["MembershipChange"],
               ) -> Tuple[Set[int], Set[int]]:
    """Replay a cluster's changes into ``(gone, joined)``: the snapshot
    members that left (even if they came back) and the records to resolve
    afresh (every current member that joined since, re-joiners included)."""
    gone: Set[int] = set()
    joined: Set[int] = set()
    for arrived, records in changes:
        if arrived:
            joined.update(records)
        else:
            for record in records:
                if record in joined:
                    joined.discard(record)
                else:
                    gone.add(record)
    return gone, joined


def _splice(old: List[int], gone: AbstractSet[int],
            joined: AbstractSet[int]) -> Tuple[List[_Segment], List[int]]:
    """Plan the sorted record list ``old - gone | joined``.

    Returns the plan (segments of kept old positions, each followed by the
    records inserted after it) and the new list itself.  ``gone`` must be a
    subset of ``old``; a record in both ``gone`` and ``joined`` is dropped
    at its old position and inserted there afresh.
    """
    if not gone and not joined:
        return [(0, len(old), [])], old
    dropped = {bisect_left(old, record) for record in gone}
    inserted: Dict[int, List[int]] = {}
    for record in sorted(joined):
        inserted.setdefault(bisect_left(old, record), []).append(record)
    plan: List[_Segment] = []
    new: List[int] = []
    start = 0
    for position in sorted(dropped.union(inserted)):
        records = inserted.get(position, [])
        plan.append((start, position, records))
        new.extend(old[start:position])
        new.extend(records)
        start = position + 1 if position in dropped else position
    plan.append((start, len(old), []))
    new.extend(old[start:])
    return plan, new

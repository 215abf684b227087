"""Crowd-Refine (Algorithm 4): sequential crowd-based cluster refinement.

The refinement phase post-processes the generation phase's clustering with
split/merger operations.  Per iteration it either (a) applies the known
positive-benefit operation with the largest benefit — free, no crowd — or
(b) picks the operation with the best estimated benefit-cost ratio,
crowdsources exactly the pairs needed to compute its true benefit, and
applies it if the benefit is confirmed positive.  It stops when the best
ratio is non-positive.
"""

from __future__ import annotations

import heapq

from typing import (
    Collection, Dict, Iterable, List, Optional, Protocol, Set, Tuple,
)

from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS, HistogramEstimator
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import Merge, Operation, Split
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet

# Positivity tolerance: benefits are sums of f_c terms (multiples of
# 1/num_workers), so any genuine improvement is far above float dust.
BENEFIT_TOLERANCE = 1e-9


def enumerate_operations(clustering: Clustering,
                         candidates: CandidateSet) -> List[Operation]:
    """All refinement operations worth considering on the current clustering.

    Splits: every record in a cluster of size >= 2.  Mergers: every pair of
    clusters connected by at least one candidate edge — a merger of two
    clusters with *no* candidate edge has every cross ``f_c = 0`` (pruned),
    hence a known benefit of ``-|C1||C2| < 0``; such operations can never be
    applied by Algorithm 4/5, so skipping them changes nothing (and keeps the
    scan linear in ``|S|`` instead of quadratic in the cluster count).
    """
    operations: List[Operation] = []
    for cluster_id in clustering.cluster_ids:
        if clustering.size(cluster_id) >= 2:
            for record_id in sorted(clustering.members(cluster_id)):
                operations.append(Split(record_id, cluster_id))
    seen: Set[Tuple[int, int]] = set()
    for a, b in candidates.pairs:
        cluster_a = clustering.cluster_of(a)
        cluster_b = clustering.cluster_of(b)
        if cluster_a == cluster_b:
            continue
        key = (cluster_a, cluster_b) if cluster_a < cluster_b else (cluster_b, cluster_a)
        if key not in seen:
            seen.add(key)
            operations.append(Merge(key[0], key[1]))
    return operations


#: One membership change of a cluster: ``(True, records)`` when the
#: records joined it (a merge absorbed their cluster), ``(False,
#: (record,))`` when one record left it (a split).
MembershipChange = Tuple[bool, Collection[int]]


class ClusterObserver(Protocol):
    """Receives every operation a :class:`ClusterVersionTracker` applies,
    right after the clustering changed."""

    def on_split(self, record_id: int, cluster_id: int,
                 created: int) -> None: ...

    def on_merge(self, survivor: int, absorbed: int) -> None: ...


class ClusterVersionTracker:
    """Monotone per-cluster version counters over a mutating clustering.

    A cluster's version bumps whenever an applied operation changes its
    membership; created clusters start at version 0 (cluster ids are never
    reused, so a fresh id can't collide with a stale cached version).  Both
    the free-operation heap and the costly-operation enumeration cache use
    these versions to invalidate only what an operation actually touched.

    Each bump also logs the membership change behind it, so a consumer
    holding an old version can replay what moved since
    (:meth:`changes_since`) instead of re-reading the whole cluster — the
    :class:`~repro.core.evaluation_cache.EvaluationCache` patches its rows
    this way.  Structures that must follow every change as it happens
    (the :class:`OperationCache` adjacency index, the evaluation cache's
    eviction of destroyed clusters) :meth:`observe` the tracker, so an
    operation applied straight through it reaches them too.
    """

    def __init__(self, clustering: Clustering):
        self._versions: Dict[int, int] = {
            cluster_id: 0 for cluster_id in clustering.cluster_ids
        }
        # cluster id -> its changes, one per version step (created lazily:
        # version v of a cluster is len(self._changes.get(cluster, ()))).
        self._changes: Dict[int, List[MembershipChange]] = {}
        self._observers: List[ClusterObserver] = []

    def observe(self, observer: ClusterObserver) -> None:
        """Report every operation applied from now on to ``observer``."""
        self._observers.append(observer)

    def version(self, cluster_id: int) -> Optional[int]:
        """Current version of a cluster; ``None`` once it is destroyed."""
        return self._versions.get(cluster_id)

    def snapshot(self, cluster_ids: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
        """Frozen (cluster, version) view used for staleness checks."""
        return tuple(
            (cluster_id, self._versions[cluster_id])
            for cluster_id in cluster_ids
        )

    def is_current(self, snapshot: Tuple[Tuple[int, int], ...]) -> bool:
        versions = self._versions
        for cluster_id, version in snapshot:
            if versions.get(cluster_id) != version:
                return False
        return True

    def changes_since(self, cluster_id: int,
                      version: int) -> Optional[List[MembershipChange]]:
        """The membership changes that took a live cluster from
        ``version`` to its current version, oldest first; ``None`` once
        the cluster is destroyed."""
        if cluster_id not in self._versions:
            return None
        return self._changes.get(cluster_id, [])[version:]

    def apply(self, clustering: Clustering, operation: Operation) -> Set[int]:
        """Apply ``operation`` and update versions.

        Returns the ids of clusters whose cached state is now invalid
        (changed survivors plus newly created clusters).
        """
        if isinstance(operation, Split):
            record_id = operation.record_id
            cluster_id = clustering.cluster_of(record_id)
            created = clustering.split(record_id)
            self._bump(cluster_id, (False, (record_id,)))
            self._versions[created] = 0
            for observer in self._observers:
                observer.on_split(record_id, cluster_id, created)
            return {cluster_id, created}
        if isinstance(operation, Merge):
            cluster_a, cluster_b = operation.cluster_a, operation.cluster_b
            members_a = clustering.member_view(cluster_a)
            members_b = clustering.member_view(cluster_b)
            survivor = clustering.merge(cluster_a, cluster_b)
            absorbed, moved = ((cluster_b, members_b) if survivor == cluster_a
                               else (cluster_a, members_a))
            self._bump(survivor, (True, moved))
            del self._versions[absorbed]
            self._changes.pop(absorbed, None)
            for observer in self._observers:
                observer.on_merge(survivor, absorbed)
            return {survivor}
        raise TypeError(f"unknown operation type: {type(operation).__name__}")

    def _bump(self, cluster_id: int, change: MembershipChange) -> None:
        self._versions[cluster_id] += 1
        self._changes.setdefault(cluster_id, []).append(change)


class OperationCache:
    """The live operation list of a mutating clustering.

    Splits are kept per cluster, stamped with
    :class:`ClusterVersionTracker` versions and rebuilt only for clusters
    that changed.  Mergers come from a *cluster-adjacency index*: for
    every pair of live clusters joined by at least one candidate edge, the
    number of crossing edges and the smallest crossing pair.  The cache
    observes its tracker, so the index follows every applied operation in
    O(Δ) — including operations applied straight through a shared
    tracker:

    * a merge folds the absorbed cluster's row into the survivor's (the
      edges between the two become internal and drop out);
    * a split moves only the split record's edges onto the new singleton;
      when a moved edge was some pair's smallest crossing pair, that
      minimum is recomputed lazily, on its next read.

    :meth:`operations` returns the *exact* list (contents and order) that
    ``enumerate_operations`` would produce: splits ascend by (cluster id,
    record id); mergers ascend by their smallest crossing candidate pair,
    which is precisely their first-occurrence order in the sorted pair scan.
    Preserving order matters because the estimated path breaks benefit-ratio
    ties by enumeration order.
    """

    def __init__(self, clustering: Clustering, candidates: CandidateSet,
                 tracker: Optional[ClusterVersionTracker] = None):
        self._clustering = clustering
        self._tracker = tracker if tracker is not None else (
            ClusterVersionTracker(clustering)
        )
        self._neighbors: Dict[int, List[int]] = candidate_adjacency(candidates)
        # cluster id -> (version, splits of that cluster, sorted by record)
        self._split_entries: Dict[int, Tuple[int, List[Operation]]] = {}
        # live cluster id -> {adjacent cluster id: [crossing edges, smallest
        # crossing pair or None while it awaits a recompute]}; both rows of
        # a cluster pair share one list.
        self._adjacent: Dict[int, Dict[int, List]] = {
            cluster_id: {} for cluster_id in clustering.cluster_ids
        }
        cluster_of = clustering.cluster_of
        for a, b in candidates.pairs:
            cluster_a, cluster_b = cluster_of(a), cluster_of(b)
            if cluster_a != cluster_b:
                self._add_crossing(cluster_a, cluster_b,
                                   (a, b) if a < b else (b, a))
        self._tracker.observe(self)

    @property
    def tracker(self) -> ClusterVersionTracker:
        return self._tracker

    def apply(self, operation: Operation) -> Set[int]:
        """Apply an operation through the shared tracker."""
        return self._tracker.apply(self._clustering, operation)

    def operations(self) -> List[Operation]:
        """The current operation list, identical to
        ``enumerate_operations(clustering, candidates)``."""
        operations: List[Operation] = []
        for cluster_id in self._clustering.cluster_ids:
            operations.extend(self._splits(cluster_id))
        merges = [
            (self.min_crossing_pair(cluster_a, cluster_b), cluster_a, cluster_b)
            for cluster_a, row in self._adjacent.items()
            for cluster_b in row if cluster_a < cluster_b
        ]
        merges.sort()  # crossing pairs are unique across cluster pairs
        operations.extend(Merge(cluster_a, cluster_b)
                          for _, cluster_a, cluster_b in merges)
        return operations

    def operations_touching(self, cluster_ids: Iterable[int]) -> List[Operation]:
        """Every operation touching one of ``cluster_ids``, each once;
        destroyed ids contribute nothing."""
        adjacent = self._adjacent
        found: List[Operation] = []
        seen_merges: Set[Tuple[int, int]] = set()
        for cluster_id in cluster_ids:
            row = adjacent.get(cluster_id)
            if row is None:
                continue
            found.extend(self._splits(cluster_id))
            for other in row:
                key = ((cluster_id, other) if cluster_id < other
                       else (other, cluster_id))
                if key not in seen_merges:
                    seen_merges.add(key)
                    found.append(Merge(*key))
        return found

    def __contains__(self, operation: Operation) -> bool:
        """Whether ``operation`` is in the current operation list."""
        if isinstance(operation, Split):
            cluster_id = operation.cluster_id
            clustering = self._clustering
            return (cluster_id in self._adjacent
                    and clustering.cluster_of(operation.record_id) == cluster_id
                    and clustering.size(cluster_id) >= 2)
        return operation.cluster_b in self._adjacent.get(operation.cluster_a, ())

    def min_crossing_pair(self, cluster_a: int, cluster_b: int) -> Tuple[int, int]:
        """The smallest candidate pair crossing two adjacent clusters — the
        merge's first-occurrence position in ``enumerate_operations``'
        sorted pair scan."""
        crossing = self._adjacent[cluster_a][cluster_b]
        if crossing[1] is None:
            clustering = self._clustering
            scan, other = cluster_a, cluster_b
            if clustering.size(other) < clustering.size(scan):
                scan, other = other, scan
            cluster_of = clustering.cluster_of
            crossing[1] = min(
                (record_id, neighbor) if record_id < neighbor
                else (neighbor, record_id)
                for record_id in clustering.member_view(scan)
                for neighbor in self._neighbors.get(record_id, ())
                if cluster_of(neighbor) == other
            )
        return crossing[1]

    # -- tracker observer -------------------------------------------------

    def on_split(self, record_id: int, cluster_id: int, created: int) -> None:
        """Move the split record's edges onto its new singleton."""
        adjacent = self._adjacent
        row = adjacent[cluster_id]
        adjacent[created] = {}
        cluster_of = self._clustering.cluster_of
        for neighbor in self._neighbors.get(record_id, ()):
            other = cluster_of(neighbor)
            pair = ((record_id, neighbor) if record_id < neighbor
                    else (neighbor, record_id))
            if other != cluster_id:  # the edge no longer crosses here
                crossing = row[other]
                if crossing[0] == 1:
                    del row[other]
                    del adjacent[other][cluster_id]
                else:
                    crossing[0] -= 1
                    if crossing[1] == pair:
                        crossing[1] = None
            # Either way it now crosses (created, other); an edge internal
            # to the old cluster crosses (created, cluster).
            self._add_crossing(created, other, pair)

    def on_merge(self, survivor: int, absorbed: int) -> None:
        """Fold the absorbed cluster's row into the survivor's."""
        adjacent = self._adjacent
        row = adjacent.pop(absorbed)
        kept = adjacent[survivor]
        row.pop(survivor, None)
        kept.pop(absorbed, None)
        for other, crossing in row.items():
            back = adjacent[other]
            del back[absorbed]
            mine = kept.get(other)
            if mine is None:
                kept[other] = back[survivor] = crossing
            else:
                mine[0] += crossing[0]
                if mine[1] is not None:
                    mine[1] = (None if crossing[1] is None
                               else min(mine[1], crossing[1]))
        self._split_entries.pop(absorbed, None)

    # -- internals --------------------------------------------------------

    def _add_crossing(self, cluster_a: int, cluster_b: int,
                      pair: Tuple[int, int]) -> None:
        row = self._adjacent[cluster_a]
        crossing = row.get(cluster_b)
        if crossing is None:
            row[cluster_b] = self._adjacent[cluster_b][cluster_a] = [1, pair]
        else:
            crossing[0] += 1
            if crossing[1] is not None and pair < crossing[1]:
                crossing[1] = pair

    def _splits(self, cluster_id: int) -> List[Operation]:
        version = self._tracker.version(cluster_id)
        entry = self._split_entries.get(cluster_id)
        if entry is None or entry[0] != version:
            members = self._clustering.member_view(cluster_id)
            splits: List[Operation] = (
                [Split(record_id, cluster_id) for record_id in sorted(members)]
                if len(members) >= 2 else []
            )
            entry = self._split_entries[cluster_id] = (version, splits)
        return entry[1]


def candidate_adjacency(candidates: CandidateSet) -> Dict[int, List[int]]:
    """Record-level adjacency of the candidate graph."""
    neighbors: Dict[int, List[int]] = {}
    for a, b in candidates.pairs:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    return neighbors


def build_estimator(
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> HistogramEstimator:
    """Algorithm 4 line 1: the histogram ``H`` from the answered pairs ``A``."""
    estimator = HistogramEstimator(num_buckets=num_buckets)
    for pair, crowd_score in oracle.known_pairs().items():
        if pair in candidates:
            estimator.add_sample(pair, candidates.machine_scores[pair], crowd_score)
    return estimator


def _operation_sort_key(operation: Operation) -> Tuple:
    """Canonical tie-break among equal-benefit operations (deterministic and
    shared by the reference and heap-based appliers)."""
    if isinstance(operation, Split):
        return (0, operation.record_id, operation.cluster_id)
    return (1, operation.cluster_a, operation.cluster_b)


def apply_free_operations(
    clustering: Clustering,
    cache: OperationCache,
    evaluations: EvaluationCache,
    invalidated: Optional[Set[int]] = None,
    on_apply=None,
    seeds: Optional[Iterable[Operation]] = None,
) -> int:
    """Step 1 of Section 5.4 / lines 5-7 of Algorithm 4: repeatedly apply the
    known-benefit operation with the largest positive benefit until none is
    left.  Costs nothing.  Returns the number of operations applied.

    Implementation: a lazy max-heap over known-positive operations.  An
    operation's exact benefit depends only on its touched clusters'
    membership (crowd answers don't change on the free path), so applying
    one operation only invalidates and respawns operations touching the
    changed clusters — everything else stays valid in the heap.  Equivalent
    to the oracle :func:`repro.reference.apply_free_operations`, which
    re-enumerates everything per step; both pick the maximum-benefit
    operation with the same canonical tie-break.

    Args:
        cache: The caller's :class:`OperationCache` over ``clustering``.
            Supplies the seed and respawn operations and the
            cluster-version tracker, so the applied operations update
            the caller's cache in turn.
        evaluations: The caller's :class:`EvaluationCache`, sharing
            ``cache``'s tracker; exact benefits are served incrementally
            from it instead of being re-derived per push.
        invalidated: Optional out-parameter; accumulates the cluster ids
            each applied operation touched, changed, or created — exactly
            the set a caller-side ranking structure must re-examine
            (including destroyed cluster ids).
        on_apply: Optional callback invoked with each operation *about to
            be applied* (the clustering still in its pre-application
            state) — lets a caller observe every step against the
            clustering it was applied to.
        seeds: The operations to seed the heap with; ``None`` seeds every
            current operation.  A pass after an earlier one needs only
            :func:`free_pass_seeds`: that pass left no known-positive
            operation, and an exact benefit moves only when a touched
            cluster changes or a relevant pair gets answered.
    """
    exact_benefit = evaluations.exact_benefit
    tracker = cache.tracker

    heap: List[Tuple[float, Tuple, Operation, Tuple[Tuple[int, int], ...]]] = []

    def push_if_positive(operation: Operation) -> None:
        benefit = exact_benefit(operation)
        if benefit is not None and benefit > BENEFIT_TOLERANCE:
            heapq.heappush(heap, (
                -benefit, _operation_sort_key(operation), operation,
                tracker.snapshot(operation.touched_clusters),
            ))

    for operation in cache.operations() if seeds is None else seeds:
        push_if_positive(operation)

    applied = 0
    while heap:
        negative_benefit, _, operation, snap = heapq.heappop(heap)
        # Stale if any touched cluster changed or vanished.
        if not tracker.is_current(snap):
            continue
        if on_apply is not None:
            on_apply(operation)
        changed = tracker.apply(clustering, operation)
        applied += 1
        if invalidated is not None:
            invalidated |= set(operation.touched_clusters) | changed
        for affected in cache.operations_touching(changed):
            push_if_positive(affected)
    return applied


def free_pass_seeds(cache: OperationCache, evaluations: EvaluationCache,
                    changed: Iterable[int]) -> List[Operation]:
    """The seeds of a free pass that follows an earlier one: every
    operation touching a cluster changed since (``changed``, as returned
    by the tracker's applies), plus every current operation whose pairs
    got crowd answers since (which also drains that set).  Nothing else
    can have gained a known positive benefit; the heap key ``(-benefit,
    sort key)`` is unique, so the pass applies exactly what a full seeding
    would."""
    seeds = cache.operations_touching(changed)
    seen = set(seeds)
    seeds.extend(operation
                 for operation in evaluations.drain_answered_operations()
                 if operation not in seen and operation in cache)
    return seeds


def _record_answers(
    answers,
    candidates: CandidateSet,
    estimator: HistogramEstimator,
) -> None:
    """Fold freshly crowdsourced pairs into the histogram (lines 15-16)."""
    for pair, crowd_score in answers.items():
        if pair in candidates:
            estimator.add_sample(pair, candidates.machine_scores[pair], crowd_score)


class _LazyRatioSelector:
    """Persistent best-ratio selection over the costly operations.

    Replaces the reference oracle's full O(ops) rescan per iteration with a
    lazy max-heap keyed ``(-ratio, enumeration-order key)``.  The
    enumeration-order key reproduces ``enumerate_operations``' position
    order (splits ascending by (cluster, record), then merges ascending by
    their minimum crossing candidate pair), so the heap top is exactly the
    operation the reference scan's strict ``ratio > best_ratio`` update
    would select: maximum ratio, earliest enumeration position among ties.

    Staleness is handled lazily: heap entries are discarded on pop when
    their tracked ``(ratio, enumeration key)`` no longer matches — a
    cluster change can move a merge's minimum crossing pair while its
    ratio stays put; invalidated clusters respawn their touching
    operations; answer/estimate deltas arrive through
    :meth:`EvaluationCache.drain_dirty_operations`.
    """

    def __init__(self, cache: OperationCache, evaluations: EvaluationCache):
        self._cache = cache
        self._evaluations = evaluations
        self._heap: List[Tuple[float, Tuple, int, Operation]] = []
        # operation -> (ratio, enumeration key) of its live heap entry
        self._tracked: Dict[Operation, Tuple[float, Tuple]] = {}
        self._by_cluster: Dict[int, Set[Operation]] = {}
        self._pending: Set[int] = set()
        self._seq = 0
        for operation in cache.operations():
            self._consider(operation)

    def invalidate_clusters(self, cluster_ids: Iterable[int]) -> None:
        """Mark clusters whose membership changed (or that died); their
        touching operations are re-examined on the next :meth:`select`."""
        self._pending.update(cluster_ids)

    def select(self) -> Tuple[Optional[Operation], float]:
        """The costly operation the reference scan would pick, with its
        ratio; ``(None, 0.0)`` when no costly operation exists."""
        self._ingest()
        heap = self._heap
        if len(heap) > 64 + 4 * len(self._tracked):
            self._compact()
        while heap:
            negative_ratio, key, _, operation = heap[0]
            current = self._tracked.get(operation)
            if current is None or current != (-negative_ratio, key):
                heapq.heappop(heap)  # stale entry
                continue
            return operation, current[0]
        return None, 0.0

    # -- internals ------------------------------------------------------

    def _ingest(self) -> None:
        dirty = self._evaluations.drain_dirty_operations()
        pending = self._pending
        self._pending = set()
        stale: Set[Operation] = set()
        for cluster_id in pending:
            stale |= self._by_cluster.pop(cluster_id, set())
        fresh = set(self._cache.operations_touching(pending))
        for operation in stale - fresh:
            self._untrack(operation)
        for operation in fresh:
            self._consider(operation)
        for operation in dirty:
            # Untracked live operations have cost <= 0 (answers only ever
            # shrink costs; cost growth requires a cluster change, which
            # arrives via `fresh`), so only tracked ones can move — and
            # without a cluster change their enumeration key stays put.
            if operation not in fresh and operation in self._tracked:
                self._consider(operation, self._tracked[operation][1])

    def _consider(self, operation: Operation,
                  key: Optional[Tuple] = None) -> None:
        """(Re)track ``operation``; ``key`` is its enumeration key when
        the caller knows no touched cluster changed."""
        ratio, cost = self._evaluations.ratio_and_cost(operation)
        if cost <= 0:
            self._untrack(operation)
            return
        for cluster_id in operation.touched_clusters:
            self._by_cluster.setdefault(cluster_id, set()).add(operation)
        if key is None:
            key = self._enum_key(operation)
        if self._tracked.get(operation) == (ratio, key):
            return  # existing heap entry is still valid
        self._tracked[operation] = (ratio, key)
        self._seq += 1
        heapq.heappush(self._heap, (-ratio, key, self._seq, operation))

    def _untrack(self, operation: Operation) -> None:
        if self._tracked.pop(operation, None) is None:
            return
        for cluster_id in operation.touched_clusters:
            ops = self._by_cluster.get(cluster_id)
            if ops is not None:
                ops.discard(operation)
                if not ops:
                    del self._by_cluster[cluster_id]

    def _compact(self) -> None:
        self._heap = [
            (-ratio, key, index, operation)
            for index, (operation, (ratio, key))
            in enumerate(self._tracked.items())
        ]
        heapq.heapify(self._heap)
        self._seq = len(self._heap)

    def _enum_key(self, operation: Operation) -> Tuple:
        if isinstance(operation, Split):
            return (0, operation.cluster_id, operation.record_id)
        return (1, self._cache.min_crossing_pair(operation.cluster_a,
                                                 operation.cluster_b))


def _crowd_refine_fast(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    obs=None,
) -> Clustering:
    """Incremental evaluation + lazy best-ratio selection.

    Byte-identical to :func:`repro.reference.crowd_refine` (same
    operations chosen, same crowd batches, same events) — property-tested
    in ``tests/core/test_refine_engines.py``.
    """
    estimator = build_estimator(candidates, oracle, num_buckets=num_buckets)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)
    selector = _LazyRatioSelector(cache, evaluations)

    step = 0
    seeds: Optional[List[Operation]] = None  # the first pass: everything
    while True:
        invalidated: Set[int] = set()
        applied = apply_free_operations(clustering, cache, evaluations,
                                        invalidated=invalidated, seeds=seeds)
        if invalidated:
            selector.invalidate_clusters(invalidated)
        if obs is not None and applied:
            obs.metrics.counter(
                "refine_free_operations_total",
                help="Zero-cost refinement operations applied",
            ).inc(applied)

        best_operation, best_ratio = selector.select()
        if best_operation is None or best_ratio <= 0.0:
            return clustering

        cost = evaluations.cost(best_operation)
        answers = oracle.ask_batch(evaluations.unknown_pairs(best_operation))
        _record_answers(answers, candidates, estimator)
        benefit = evaluations.exact_benefit(best_operation)
        confirmed = benefit is not None and benefit > BENEFIT_TOLERANCE
        changed: Set[int] = set()
        if confirmed:
            changed = cache.apply(best_operation)
            selector.invalidate_clusters(
                set(best_operation.touched_clusters) | changed
            )
        seeds = free_pass_seeds(cache, evaluations, changed)
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


def crowd_refine(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    obs=None,
) -> Clustering:
    """Run Crowd-Refine; refines ``clustering`` in place and returns it.

    Args:
        clustering: Phase-2 output ``C`` (mutated).
        candidates: The candidate set ``S`` with machine scores.
        oracle: Crowd access whose known set is the phase-2 answer set ``A``.
        num_buckets: Histogram granularity ``m`` (paper: 20).
        obs: Optional :class:`~repro.obs.ObsContext`; each costly
            iteration emits a ``refine.step`` event (chosen operation, its
            ratio / cost / confirmed benefit, histogram state) and bumps
            the step / free-operation counters.
    """
    return _crowd_refine_fast(clustering, candidates, oracle,
                              num_buckets=num_buckets, obs=obs)

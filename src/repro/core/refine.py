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
    Collection, Dict, Iterable, List, Mapping, Optional, Set, Tuple,
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
    this way.
    """

    def __init__(self, clustering: Clustering):
        self._versions: Dict[int, int] = {
            cluster_id: 0 for cluster_id in clustering.cluster_ids
        }
        # cluster id -> its changes, one per version step (created lazily:
        # version v of a cluster is len(self._changes.get(cluster, ()))).
        self._changes: Dict[int, List[MembershipChange]] = {}

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
            return {survivor}
        raise TypeError(f"unknown operation type: {type(operation).__name__}")

    def _bump(self, cluster_id: int, change: MembershipChange) -> None:
        self._versions[cluster_id] += 1
        self._changes.setdefault(cluster_id, []).append(change)


class OperationCache:
    """Version-invalidated cache of :func:`enumerate_operations`.

    ``crowd_refine``'s estimated path re-enumerates every candidate
    operation on every outer iteration — an O(|S|) scan of the candidate
    pairs — even when the iteration applied a single operation.  This cache
    keeps per-cluster split lists and per-cluster-pair merge entries stamped
    with :class:`ClusterVersionTracker` versions, and rebuilds only the
    entries whose clusters changed.

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
        self.neighbors: Dict[int, List[int]] = candidate_adjacency(candidates)
        # cluster id -> (version, splits of that cluster, sorted by record)
        self._split_entries: Dict[int, Tuple[int, List[Operation]]] = {}
        # (cluster_a, cluster_b) -> (version_a, version_b, min crossing pair)
        self._merge_entries: Dict[Tuple[int, int],
                                  Tuple[int, int, Tuple[int, int]]] = {}

    @property
    def tracker(self) -> ClusterVersionTracker:
        return self._tracker

    def apply(self, operation: Operation) -> Set[int]:
        """Apply an operation through the shared tracker."""
        return self._tracker.apply(self._clustering, operation)

    def operations(self) -> List[Operation]:
        """The current operation list, identical to
        ``enumerate_operations(clustering, candidates)``."""
        clustering = self._clustering
        cluster_ids = clustering.cluster_ids  # sorted
        current: Dict[int, int] = {}
        for cluster_id in cluster_ids:
            version = self._tracker.version(cluster_id)
            assert version is not None, "live cluster missing from tracker"
            current[cluster_id] = version

        for key in [k for k, (version_a, version_b, _)
                    in self._merge_entries.items()
                    if current.get(k[0]) != version_a
                    or current.get(k[1]) != version_b]:
            del self._merge_entries[key]
        for dead in set(self._split_entries) - set(current):
            del self._split_entries[dead]

        stale = [
            cluster_id for cluster_id in cluster_ids
            if self._split_entries.get(cluster_id, (None, None))[0]
            != current[cluster_id]
        ]
        for cluster_id in stale:
            self._rebuild(cluster_id, current)

        operations: List[Operation] = []
        for cluster_id in cluster_ids:
            operations.extend(self._split_entries[cluster_id][1])
        for key, _ in sorted(self._merge_entries.items(),
                             key=lambda item: item[1][2]):
            operations.append(Merge(key[0], key[1]))
        return operations

    def _rebuild(self, cluster_id: int, current: Mapping[int, int]) -> None:
        clustering = self._clustering
        members = clustering.members(cluster_id)
        splits: List[Operation] = (
            [Split(record_id, cluster_id) for record_id in sorted(members)]
            if len(members) >= 2 else []
        )
        self._split_entries[cluster_id] = (current[cluster_id], splits)

        # Every candidate edge crossing this cluster has exactly one endpoint
        # inside it, so scanning members x neighbors sees them all — the
        # per-merge minimum crossing pair is exact.
        crossing: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for record_id in members:
            for neighbor in self.neighbors.get(record_id, ()):
                other = clustering.cluster_of(neighbor)
                if other == cluster_id:
                    continue
                key = ((cluster_id, other) if cluster_id < other
                       else (other, cluster_id))
                pair = ((record_id, neighbor) if record_id < neighbor
                        else (neighbor, record_id))
                best = crossing.get(key)
                if best is None or pair < best:
                    crossing[key] = pair
        for key, pair in crossing.items():
            self._merge_entries[key] = (current[key[0]], current[key[1]], pair)


def candidate_adjacency(candidates: CandidateSet) -> Dict[int, List[int]]:
    """Record-level adjacency of the candidate graph (for merge respawning)."""
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


def _operations_touching(
    clustering: Clustering,
    neighbors: Mapping[int, List[int]],
    cluster_ids: Iterable[int],
) -> List[Operation]:
    """All candidate operations touching the given *live* clusters."""
    found: List[Operation] = []
    seen_merges: Set[Tuple[int, int]] = set()
    for cluster_id in cluster_ids:
        members = clustering.members(cluster_id)
        if len(members) >= 2:
            for record_id in members:
                found.append(Split(record_id, cluster_id))
        for record_id in members:
            for neighbor in neighbors.get(record_id, ()):
                other = clustering.cluster_of(neighbor)
                if other == cluster_id:
                    continue
                key = (min(cluster_id, other), max(cluster_id, other))
                if key not in seen_merges:
                    seen_merges.add(key)
                    found.append(Merge(key[0], key[1]))
    return found


def apply_free_operations(
    clustering: Clustering,
    cache: OperationCache,
    evaluations: EvaluationCache,
    invalidated: Optional[Set[int]] = None,
    on_apply=None,
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
            Supplies the initial operation list, the candidate adjacency,
            and the cluster-version tracker — so the heap seeding reuses
            cached enumeration state and the applied operations
            invalidate the caller's cache entries in turn.
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
    """
    exact_benefit = evaluations.exact_benefit
    neighbors = cache.neighbors
    tracker = cache.tracker

    heap: List[Tuple[float, Tuple, Operation, Tuple[Tuple[int, int], ...]]] = []

    def push_if_positive(operation: Operation) -> None:
        benefit = exact_benefit(operation)
        if benefit is not None and benefit > BENEFIT_TOLERANCE:
            heapq.heappush(heap, (
                -benefit, _operation_sort_key(operation), operation,
                tracker.snapshot(operation.touched_clusters),
            ))

    for operation in cache.operations():
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
        for affected in _operations_touching(clustering, neighbors, changed):
            push_if_positive(affected)
    return applied


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

    def __init__(self, clustering: Clustering, cache: OperationCache,
                 evaluations: EvaluationCache):
        self._clustering = clustering
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
        tracker = self._cache.tracker
        live = [cluster_id for cluster_id in pending
                if tracker.version(cluster_id) is not None]
        fresh = set(_operations_touching(self._clustering,
                                         self._cache.neighbors, live))
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
        return (1, self._min_crossing_pair(operation))

    def _min_crossing_pair(self, operation: Merge) -> Tuple[int, int]:
        """The merge's smallest crossing candidate pair — its first
        occurrence position in ``enumerate_operations``' sorted pair scan."""
        clustering = self._clustering
        neighbors = self._cache.neighbors
        scan, other = operation.cluster_a, operation.cluster_b
        if clustering.size(other) < clustering.size(scan):
            scan, other = other, scan
        best: Optional[Tuple[int, int]] = None
        for record_id in clustering.members(scan):
            for neighbor in neighbors.get(record_id, ()):
                if clustering.cluster_of(neighbor) != other:
                    continue
                pair = ((record_id, neighbor) if record_id < neighbor
                        else (neighbor, record_id))
                if best is None or pair < best:
                    best = pair
        assert best is not None, "merge exists without a crossing edge"
        return best


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
    selector = _LazyRatioSelector(clustering, cache, evaluations)

    step = 0
    while True:
        invalidated: Set[int] = set()
        applied = apply_free_operations(clustering, cache, evaluations,
                                        invalidated=invalidated)
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
        if confirmed:
            changed = cache.apply(best_operation)
            selector.invalidate_clusters(
                set(best_operation.touched_clusters) | changed
            )
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

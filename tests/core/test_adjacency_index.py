"""The OperationCache's cluster-adjacency index against from-scratch scans.

The index is updated in O(Δ) by the tracker's observer calls: a merge
folds the absorbed cluster's row into the survivor's, a split moves only
the split record's edges and marks a moved minimum for a lazy recompute.
Over random split/merge sequences — applied through ``cache.apply`` or
straight through a shared tracker, read after every step or only now and
then (so lazy minima pile up across steps) — the operation list, the
operations touching each cluster and every merge's smallest crossing pair
must equal what a scan of the candidate pairs gives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Clustering
from repro.core.operations import Merge, Split
from repro.core.refine import (
    ClusterVersionTracker,
    OperationCache,
    enumerate_operations,
)
from tests.conftest import make_candidates


@st.composite
def mutation_runs(draw):
    num_records = draw(st.integers(3, 14))
    all_pairs = [(i, j) for i in range(num_records)
                 for j in range(i + 1, num_records)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True,
                          max_size=min(len(all_pairs), 40)))
    candidates = make_candidates({pair: 0.5 for pair in edges})
    order = draw(st.permutations(range(num_records)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=num_records,
                          max_size=num_records))
    clusters, index = [], 0
    for size in sizes:
        if index >= num_records:
            break
        clusters.append(order[index:index + size])
        index += size
    steps = draw(st.lists(st.tuples(st.integers(0, 10_000), st.booleans()),
                          max_size=25))
    through_tracker = draw(st.booleans())
    return Clustering(clusters), candidates, steps, through_tracker


def scanned_min_pair(clustering, candidates, cluster_a, cluster_b):
    return min(
        (a, b) for a, b in candidates.pairs
        if {clustering.cluster_of(a), clustering.cluster_of(b)}
        == {cluster_a, cluster_b}
    )


def assert_index_matches_scan(cache, clustering, candidates):
    expected = enumerate_operations(clustering, candidates)
    # Minima first: ``operations()`` would resolve every lazy one.
    for operation in expected:
        assert operation in cache
        if isinstance(operation, Merge):
            assert (cache.min_crossing_pair(operation.cluster_a,
                                            operation.cluster_b)
                    == scanned_min_pair(clustering, candidates,
                                        operation.cluster_a,
                                        operation.cluster_b))
    for cluster_id in clustering.cluster_ids:
        touching = cache.operations_touching([cluster_id])
        assert len(touching) == len(set(touching))
        assert set(touching) == {
            operation for operation in expected
            if cluster_id in operation.touched_clusters
        }
    assert cache.operations() == expected
    # Operations outside the list are not in the cache either.
    ids = clustering.cluster_ids
    listed = set(expected)
    for cluster_a in ids:
        for cluster_b in ids:
            if cluster_a < cluster_b:
                merge = Merge(cluster_a, cluster_b)
                assert (merge in cache) == (merge in listed)
    for record_id in clustering.record_ids():
        split = Split(record_id, clustering.cluster_of(record_id))
        assert (split in cache) == (split in listed)


@settings(max_examples=150, deadline=None)
@given(mutation_runs())
def test_index_matches_scan_across_mutations(run):
    clustering, candidates, steps, through_tracker = run
    tracker = ClusterVersionTracker(clustering)
    cache = OperationCache(clustering, candidates, tracker=tracker)
    for choice, inspect in steps:
        if inspect:
            assert_index_matches_scan(cache, clustering, candidates)
        operations = enumerate_operations(clustering, candidates)
        if not operations:
            break
        operation = operations[choice % len(operations)]
        if through_tracker:
            tracker.apply(clustering, operation)
        else:
            cache.apply(operation)
    assert_index_matches_scan(cache, clustering, candidates)


def test_split_recomputes_a_moved_minimum():
    """Record 0's edge (0, 3) is the smallest pair crossing {0, 1} and
    {3}; splitting 0 out moves it, and that minimum falls back to (1, 3)."""
    clustering = Clustering([[0, 1], [3]])
    candidates = make_candidates({(1, 3): 0.5, (0, 3): 0.5, (0, 1): 0.5})
    cache = OperationCache(clustering, candidates)
    left, right = clustering.cluster_of(0), clustering.cluster_of(3)
    assert cache.min_crossing_pair(left, right) == (0, 3)
    cache.apply(Split(0, left))
    single = clustering.cluster_of(0)
    assert cache.min_crossing_pair(single, right) == (0, 3)
    assert cache.min_crossing_pair(left, right) == (1, 3)
    assert cache.operations() == enumerate_operations(clustering, candidates)

"""The EvaluationCache must serve exactly the values a fresh
OperationEvaluator derives — across arbitrary interleavings of applied
operations, fresh crowd answers, and histogram samples — while
invalidating only the entries those deltas actually touched."""

import random as random_module

import pytest

from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import Merge, OperationEvaluator, Split
from repro.core.refine import (
    ClusterVersionTracker,
    build_estimator,
    enumerate_operations,
)
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from tests.conftest import make_candidates


def random_cache_state(seed):
    """A random clustering over a random candidate graph with *partial*
    crowd knowledge, so both exact and estimated benefits have work."""
    rng = random_module.Random(seed)
    num_records = rng.randint(4, 16)
    machine = {}
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.45:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice(
                    (0.0, 1 / 3, 0.5, 2 / 3, 1.0)
                )
    candidates = make_candidates(machine)
    oracle = CrowdOracle(ScriptedAnswers(confidences, num_workers=3))
    known = [pair for pair in candidates.pairs if rng.random() < 0.5]
    if known:
        oracle.ask_batch(known)
    records = list(range(num_records))
    rng.shuffle(records)
    clusters = []
    while records:
        take = min(len(records), rng.randint(1, 4))
        clusters.append(records[:take])
        records = records[take:]
    clustering = Clustering(clusters)
    estimator = build_estimator(candidates, oracle)
    return clustering, candidates, oracle, estimator


def assert_matches_evaluator(cache, evaluator, clustering, candidates):
    for operation in enumerate_operations(clustering, candidates):
        assert (cache.relevant_pairs(operation)
                == evaluator.relevant_pairs(operation))
        assert cache.cost(operation) == evaluator.cost(operation)
        assert (cache.unknown_pairs(operation)
                == evaluator.unknown_pairs(operation))
        # Benefits must be byte-identical, not approximately equal — the
        # refinement loops break ties on exact float comparisons.
        assert (cache.exact_benefit(operation)
                == evaluator.exact_benefit(operation))
        assert (cache.estimated_benefit(operation)
                == evaluator.estimated_benefit(operation))
        ratio, cost = cache.ratio_and_cost(operation)
        assert cost == evaluator.cost(operation)
        if cost > 0:
            assert ratio == evaluator.estimated_benefit(operation) / cost
        else:
            assert ratio is None


@pytest.mark.parametrize("seed", range(10))
def test_cache_matches_evaluator_across_deltas(seed):
    rng = random_module.Random(seed * 991 + 3)
    clustering, candidates, oracle, estimator = random_cache_state(seed)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)

    for _ in range(10):
        assert_matches_evaluator(cache, evaluator, clustering, candidates)
        # 1-4 deltas of any kind between two lookups, in random order: an
        # answer can land before the cluster change that follows it is
        # synced, and vice versa.
        for _ in range(rng.randint(1, 4)):
            mutate(rng, clustering, candidates, oracle, estimator, tracker)


def mutate(rng, clustering, candidates, oracle, estimator, tracker):
    """Apply one random delta: an operation, a fresh answer (folded into
    the histogram, as the refinement loops do) or a histogram sample."""
    operations = enumerate_operations(clustering, candidates)
    unknown = [pair for pair in candidates.pairs if not oracle.knows(*pair)]
    roll = rng.random()
    if roll < 0.4 and operations:
        tracker.apply(clustering, rng.choice(operations))
    elif roll < 0.7 and unknown:
        answers = oracle.ask_batch([rng.choice(unknown)])
        for pair, crowd_score in answers.items():
            estimator.add_sample(
                pair, candidates.machine_scores[pair], crowd_score
            )
    elif candidates.pairs:
        pair = rng.choice(list(candidates.pairs))
        estimator.add_sample(pair, candidates.machine_scores[pair],
                             rng.choice((0.0, 1 / 3, 2 / 3, 1.0)))


def small_state():
    """Three clusters, one known pair, two unknown pairs.

    Merge(c0, c1) needs unknown (1, 2); Merge(c1, c2) needs unknown (2, 3);
    Split(1, c0) needs only the known (0, 1).
    """
    clustering = Clustering()
    c0 = clustering.add_cluster([0, 1])
    c1 = clustering.add_cluster([2])
    c2 = clustering.add_cluster([3])
    candidates = make_candidates({(0, 1): 0.8, (1, 2): 0.6, (2, 3): 0.4})
    oracle = CrowdOracle(ScriptedAnswers(
        {(0, 1): 1.0, (1, 2): 0.0, (2, 3): 1.0}, num_workers=3
    ))
    oracle.ask_batch([(0, 1)])
    estimator = build_estimator(candidates, oracle)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    return clustering, candidates, oracle, estimator, tracker, cache, (c0, c1, c2)


def test_cluster_change_patches_entry():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    assert cache.cost(merge) == 1
    assert cache.stats.evaluations == 1
    cache.cost(merge)
    assert cache.stats.hits == 1

    tracker.apply(clustering, Split(1, c0))  # c0 shrinks to {0}
    assert cache.cost(merge) == 0  # only the pruned (0, 2) remains relevant
    # Record 1's row is cut out of the grid; nothing is re-derived.
    assert (cache.stats.evaluations, cache.stats.patches) == (1, 1)
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    assert cache.relevant_pairs(merge) == evaluator.relevant_pairs(merge)
    assert cache.exact_benefit(merge) == evaluator.exact_benefit(merge)


def test_answer_delta_refreshes_only_affected_entries():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, c2 = ids
    merge01 = Merge(c0, c1)
    merge12 = Merge(c1, c2)
    assert cache.cost(merge01) == 1
    assert cache.cost(merge12) == 1
    assert cache.drain_dirty_operations() == set()

    oracle.ask_batch([(1, 2)])
    assert cache.drain_dirty_operations() == {merge01}

    evaluations_before = cache.stats.evaluations
    assert cache.cost(merge01) == 0
    assert cache.exact_benefit(merge01) is not None
    assert cache.stats.evaluations == evaluations_before  # refresh, no rebuild
    assert cache.stats.refreshes >= 1

    hits_before = cache.stats.hits
    assert cache.cost(merge12) == 1  # untouched entry stays a pure hit
    assert cache.stats.hits == hits_before + 1


def test_estimate_delta_refreshes_estimated_values():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    before = cache.estimated_benefit(merge)

    # The histogram holds only (0.8 -> 1.0), so estimate(0.6) is 1.0; the
    # new sample splits the bucket and moves estimate(0.6) to 0.0.
    estimator.add_sample((7, 8), 0.7, 0.0)
    assert cache.drain_dirty_operations() == {merge}

    # Exact-only accessors ignore estimate staleness (still pure hits).
    hits_before = cache.stats.hits
    assert cache.cost(merge) == 1
    assert cache.stats.hits == hits_before + 1

    refreshes_before = cache.stats.refreshes
    after = cache.estimated_benefit(merge)
    assert cache.stats.refreshes == refreshes_before + 1
    assert after != before
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    assert after == evaluator.estimated_benefit(merge)


def test_unchanged_estimates_invalidate_nothing():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    cache.estimated_benefit(merge)

    epoch_before = estimator.epoch
    # Re-adding an existing sample bumps the epoch but leaves every bucket
    # (and hence every estimate) identical.
    estimator.add_sample((0, 1), 0.8, 1.0)
    assert estimator.epoch > epoch_before
    assert cache.drain_dirty_operations() == set()

    hits_before = cache.stats.hits
    cache.estimated_benefit(merge)
    assert cache.stats.hits == hits_before + 1


def test_stats_accounting():
    _, _, _, _, _, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    assert cache.stats.lookups == 0
    assert cache.stats.hit_rate == 0.0

    cache.cost(merge)
    cache.cost(merge)
    stats = cache.stats
    assert (stats.lookups, stats.evaluations, stats.hits,
            stats.refreshes, stats.patches) == (2, 1, 1, 0, 0)
    payload = stats.as_dict()
    assert payload["hit_rate"] == 0.5
    assert payload["lookups"] == 2
    assert payload["patches"] == 0


def holder_state():
    """c0 = {0, 1, 2}, c1 = {3}, c2 = {4, 5}; only (0, 1) answered.

    The unknown (1, 2) lies inside c0; the unknown (1, 5) crosses c0/c2.
    """
    clustering = Clustering()
    c0 = clustering.add_cluster([0, 1, 2])
    c1 = clustering.add_cluster([3])
    c2 = clustering.add_cluster([4, 5])
    scores = {(0, 1): 0.8, (0, 2): 0.7, (1, 2): 0.6, (2, 3): 0.5,
              (3, 4): 0.45, (1, 5): 0.4}
    candidates = make_candidates(scores)
    oracle = CrowdOracle(ScriptedAnswers(
        {pair: 1.0 for pair in scores}, num_workers=3
    ))
    oracle.ask_batch([(0, 1)])
    estimator = build_estimator(candidates, oracle)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    for operation in enumerate_operations(clustering, candidates):
        cache.cost(operation)
    assert cache.drain_dirty_operations() == set()
    return clustering, candidates, oracle, estimator, tracker, cache, (c0, c1, c2)


def test_answer_marks_exactly_the_current_holders():
    clustering, candidates, oracle, estimator, tracker, cache, ids = holder_state()
    c0, _, c2 = ids
    # Inside c0: only the splits of its two records hold the pair.
    oracle.ask_batch([(1, 2)])
    assert cache.drain_dirty_operations() == {Split(1, c0), Split(2, c0)}
    # Across c0/c2: only their merge holds it.
    oracle.ask_batch([(1, 5)])
    assert cache.drain_dirty_operations() == {Merge(c0, c2)}

    evaluations = cache.stats.evaluations
    refreshes = cache.stats.refreshes
    assert_matches_evaluator(
        cache, OperationEvaluator(clustering, candidates, oracle, estimator),
        clustering, candidates,
    )
    assert cache.stats.evaluations == evaluations  # refreshed in place
    assert cache.stats.refreshes > refreshes


def test_answer_outside_the_clustering_marks_nothing():
    clustering, candidates, oracle, estimator, tracker, cache, _ = holder_state()
    # A component oracle can be seeded with answers beyond its records.
    oracle.seed_known({(2, 99): 1.0, (98, 99): 0.0})
    assert cache.drain_dirty_operations() == set()
    hits = cache.stats.hits
    operations = enumerate_operations(clustering, candidates)
    for operation in operations:
        cache.cost(operation)
    assert cache.stats.hits == hits + len(operations)


def test_stale_holder_is_patched_not_refreshed():
    clustering, candidates, oracle, estimator, tracker, cache, ids = holder_state()
    c0, _, c2 = ids
    merge = Merge(c0, c2)
    assert cache.cost(merge) == 1  # (1, 5) unknown
    tracker.apply(clustering, Split(4, c2))  # c2 shrinks to {5}
    oracle.ask_batch([(1, 5)])
    # The merge still holds (1, 5) but its snapshot is stale: it is not
    # reported dirty (callers learn of it from the tracker) ...
    assert cache.drain_dirty_operations() == set()

    evaluations = cache.stats.evaluations
    refreshes = cache.stats.refreshes
    patches = cache.stats.patches
    # ... yet the answer is recorded on it, so the patch that keeps the
    # (1, 5) cell resolves it.
    assert cache.cost(merge) == 0
    assert cache.stats.evaluations == evaluations
    assert cache.stats.patches == patches + 1
    assert cache.stats.refreshes == refreshes
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    assert cache.relevant_pairs(merge) == evaluator.relevant_pairs(merge)
    assert cache.exact_benefit(merge) == evaluator.exact_benefit(merge)


@pytest.mark.parametrize("seed", range(40))
def test_cache_matches_evaluator_when_lookups_skip_deltas(seed):
    """Entries looked up only now and then must replay several deltas of
    every kind at once (the refinement loops never ask for every
    operation after every change)."""
    rng = random_module.Random(seed * 7919 + 11)
    clustering, candidates, oracle, estimator = random_cache_state(seed + 100)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)

    for _ in range(25):
        operations = enumerate_operations(clustering, candidates)
        sample = [operation for operation in operations
                  if rng.random() < 0.3]
        for operation in sample:
            assert_operation_matches(cache, evaluator, operation, rng)
        for _ in range(rng.randint(1, 6)):
            mutate(rng, clustering, candidates, oracle, estimator, tracker)
    assert_matches_evaluator(cache, evaluator, clustering, candidates)


def assert_operation_matches(cache, evaluator, operation, rng):
    """One accessor, chosen at random: exact-only lookups leave estimate
    staleness in place, so the accessor order matters."""
    accessor = rng.choice(("relevant_pairs", "cost", "unknown_pairs",
                           "exact_benefit", "estimated_benefit"))
    assert (getattr(cache, accessor)(operation)
            == getattr(evaluator, accessor)(operation))


def grid_state():
    """c0 = {0, 1, 2, 3}, c1 = {4, 5}, c2 = {6}: every pair a candidate,
    only (0, 4) and (1, 4) answered, so nearly every pair is unknown."""
    clustering = Clustering()
    c0 = clustering.add_cluster([0, 1, 2, 3])
    c1 = clustering.add_cluster([4, 5])
    c2 = clustering.add_cluster([6])
    scores = {(a, b): round(0.4 + 0.05 * ((a + b) % 9), 2)
              for a in range(7) for b in range(a + 1, 7)}
    candidates = make_candidates(scores)
    oracle = CrowdOracle(ScriptedAnswers(
        {pair: (1.0 if (pair[0] < 4) == (pair[1] < 4) else 0.0)
         for pair in scores}, num_workers=3,
    ))
    oracle.ask_batch([(0, 4), (1, 4)])  # the histogram's two samples
    estimator = build_estimator(candidates, oracle)
    tracker = ClusterVersionTracker(clustering)
    cache = EvaluationCache(clustering, candidates, oracle, estimator,
                            tracker)
    return clustering, candidates, oracle, estimator, tracker, cache, (c0, c1, c2)


def check_all(cache, clustering, candidates, oracle, estimator):
    assert_matches_evaluator(
        cache, OperationEvaluator(clustering, candidates, oracle, estimator),
        clustering, candidates,
    )


def test_split_record_out_and_back_while_answers_land():
    clustering, candidates, oracle, estimator, tracker, cache, ids = grid_state()
    c0, _, _ = ids
    split = Split(1, c0)
    assert cache.cost(split) == 3
    singleton = min(tracker.apply(clustering, split) - {c0})
    oracle.ask_batch([(1, 2)])
    # Synced while record 1 is out: the answer lands on the merge.
    assert cache.drain_dirty_operations() == set()
    assert cache.cost(Merge(c0, singleton)) == 2
    tracker.apply(clustering, Merge(c0, singleton))  # c0 survives
    assert clustering.cluster_of(1) == c0

    evaluations = cache.stats.evaluations
    assert cache.cost(split) == 2  # (1, 2) is known now
    assert cache.stats.evaluations == evaluations + 1  # rebuilt, not patched
    check_all(cache, clustering, candidates, oracle, estimator)


def test_member_out_and_back_is_resolved_afresh():
    clustering, candidates, oracle, estimator, tracker, cache, ids = grid_state()
    c0, _, _ = ids
    split = Split(0, c0)
    assert cache.cost(split) == 3
    singleton = min(tracker.apply(clustering, Split(2, c0)) - {c0})
    oracle.ask_batch([(0, 2)])
    assert cache.drain_dirty_operations() == set()  # marks Merge(c0, {2})
    tracker.apply(clustering, Merge(c0, singleton))

    patches = cache.stats.patches
    assert cache.cost(split) == 2
    assert cache.exact_benefit(split) is None
    assert cache.stats.patches == patches + 1
    check_all(cache, clustering, candidates, oracle, estimator)


def test_member_moves_from_cluster_b_to_cluster_a():
    clustering, candidates, oracle, estimator, tracker, cache, ids = grid_state()
    c0, c1, c2 = ids
    merge = Merge(c1, c2)  # rows {4, 5}, column {6}
    assert cache.relevant_pairs(merge) == [(4, 6), (5, 6)]
    wide = Merge(c0, c1)  # rows {0..3}, columns {4, 5}
    assert cache.cost(wide) == 6  # (0, 4) and (1, 4) are answered
    # Record 5 moves from c1 (Merge(c1, c2)'s rows) to c2 (its column):
    # c1 = {4}, c2 = {5, 6}.
    singleton = min(tracker.apply(clustering, Split(5, c1)) - {c1})
    tracker.apply(clustering, Merge(c2, singleton))
    oracle.ask_batch([(4, 6)])

    patches = cache.stats.patches
    assert cache.relevant_pairs(merge) == [(4, 5), (4, 6)]
    assert cache.cost(merge) == 1
    assert cache.cost(wide) == 2  # column 5 is cut out
    assert cache.stats.patches == patches + 2
    check_all(cache, clustering, candidates, oracle, estimator)

    # And from cluster_b to cluster_a: record 6 moves from c2 into c0.
    merge_02 = Merge(c0, c2)
    cache.cost(merge_02)
    moved = min(tracker.apply(clustering, Split(6, c2)) - {c2})
    tracker.apply(clustering, Merge(c0, moved))
    patches = cache.stats.patches
    assert cache.relevant_pairs(merge_02) == [
        (0, 5), (1, 5), (2, 5), (3, 5), (5, 6)]
    assert cache.stats.patches == patches + 1
    check_all(cache, clustering, candidates, oracle, estimator)


def test_tracker_logs_membership_changes():
    clustering = Clustering([[0, 1, 2], [3], [4, 5]])
    tracker = ClusterVersionTracker(clustering)
    assert tracker.changes_since(0, 0) == []
    changed = tracker.apply(clustering, Split(1, 0))
    created = min(changed - {0})
    assert changed == {0, created}
    assert tracker.version(created) == 0
    assert tracker.changes_since(0, 0) == [(False, (1,))]
    assert tracker.apply(clustering, Merge(2, 1)) == {2}
    assert tracker.version(1) is None and tracker.changes_since(1, 0) is None
    assert tracker.changes_since(2, 0) == [(True, {3})]
    tracker.apply(clustering, Merge(0, created))
    assert tracker.changes_since(0, 1) == [(True, {1})]
    assert tracker.version(0) == 2
    with pytest.raises(TypeError):
        tracker.apply(clustering, "split")

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


def test_cluster_change_forces_rebuild():
    clustering, candidates, oracle, estimator, tracker, cache, ids = small_state()
    c0, c1, _ = ids
    merge = Merge(c0, c1)
    assert cache.cost(merge) == 1
    assert cache.stats.evaluations == 1
    cache.cost(merge)
    assert cache.stats.hits == 1

    tracker.apply(clustering, Split(1, c0))  # c0 shrinks to {0}
    assert cache.cost(merge) == 0  # only the pruned (0, 2) remains relevant
    assert cache.stats.evaluations == 2
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
            stats.refreshes) == (2, 1, 1, 0)
    payload = stats.as_dict()
    assert payload["hit_rate"] == 0.5
    assert payload["lookups"] == 2


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


def test_stale_holder_is_rebuilt_not_refreshed():
    clustering, candidates, oracle, estimator, tracker, cache, ids = holder_state()
    c0, _, c2 = ids
    merge = Merge(c0, c2)
    assert cache.cost(merge) == 1  # (1, 5) unknown
    tracker.apply(clustering, Split(4, c2))  # c2 shrinks to {5}
    oracle.ask_batch([(1, 5)])
    # The merge still holds (1, 5) but its snapshot is stale: not marked.
    assert cache.drain_dirty_operations() == set()

    evaluations = cache.stats.evaluations
    refreshes = cache.stats.refreshes
    assert cache.cost(merge) == 0
    assert cache.stats.evaluations == evaluations + 1
    assert cache.stats.refreshes == refreshes
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    assert cache.relevant_pairs(merge) == evaluator.relevant_pairs(merge)
    assert cache.exact_benefit(merge) == evaluator.exact_benefit(merge)

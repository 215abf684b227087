"""Change-seeded free passes and the eviction of destroyed clusters.

After a first, fully seeded free pass, PC-Refine seeds each later pass
only with the operations touching clusters changed since and the
operations whose pairs got crowd answers since
(:func:`repro.core.refine.free_pass_seeds`).  Such a pass must apply
exactly what :func:`repro.reference.apply_free_operations` (a full
re-enumeration per step) applies.
"""

import random as random_module

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import Merge
from repro.core.refine import (
    OperationCache,
    apply_free_operations,
    build_estimator,
    enumerate_operations,
    free_pass_seeds,
)
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from tests.conftest import make_candidates


def partially_answered_state(seed):
    """A random clustering with about a third of its candidate pairs
    answered: free operations exist, and crowd rounds create more."""
    rng = random_module.Random(seed)
    num_records = rng.randint(4, 18)
    machine, confidences = {}, {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.4:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice((0.0, 1 / 3, 2 / 3, 1.0))
    candidates = make_candidates(machine)
    oracle = CrowdOracle(ScriptedAnswers(confidences, num_workers=3))
    known = [pair for pair in candidates.pairs if rng.random() < 0.35]
    if known:
        oracle.ask_batch(known)
    records = list(range(num_records))
    rng.shuffle(records)
    clusters = []
    while records:
        take = min(len(records), rng.randint(1, 4))
        clusters.append(records[:take])
        records = records[take:]
    return rng, Clustering(clusters), candidates, oracle


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 3))
def test_seeded_pass_matches_reference_after_crowd_rounds(seed, applies):
    rng, clustering, candidates, oracle = partially_answered_state(seed)
    estimator = build_estimator(candidates, oracle)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)
    apply_free_operations(clustering, cache, evaluations)
    for _ in range(3):
        # A crowd round: a random batch of unknown pairs gets answered.
        unknown = [pair for pair in candidates.pairs
                   if not oracle.knows(*pair)]
        batch = [pair for pair in unknown if rng.random() < 0.5]
        for pair, crowd_score in oracle.ask_batch(batch).items():
            estimator.add_sample(pair, candidates.machine_scores[pair],
                                 crowd_score)
        # An apply step: a few operations change clusters.
        changed = set()
        for _ in range(applies):
            operations = enumerate_operations(clustering, candidates)
            if operations:
                changed |= cache.apply(rng.choice(operations))
        expected = clustering.copy()
        expected_applied = reference.apply_free_operations(
            expected, candidates, oracle, estimator)
        applied = apply_free_operations(
            clustering, cache, evaluations,
            seeds=free_pass_seeds(cache, evaluations, changed))
        assert applied == expected_applied
        assert clustering.to_state() == expected.to_state()


def test_answered_merge_is_seeded_without_a_cluster_change():
    """Two singletons whose one pair the crowd confirms: the merge turns
    free with no cluster changed, so only the answer seeds it."""
    candidates = make_candidates({(0, 1): 0.9})
    oracle = CrowdOracle(ScriptedAnswers({(0, 1): 1.0}))
    clustering = Clustering([[0], [1]])
    estimator = build_estimator(candidates, oracle)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)
    assert apply_free_operations(clustering, cache, evaluations) == 0
    oracle.ask_batch(evaluations.unknown_pairs(Merge(0, 1)))
    seeds = free_pass_seeds(cache, evaluations, set())
    assert seeds == [Merge(0, 1)]
    assert apply_free_operations(clustering, cache, evaluations,
                                 seeds=seeds) == 1
    assert clustering.together(0, 1)


def test_destroyed_cluster_entries_are_evicted():
    """Entries of a cluster a merge absorbed can never be served again:
    the merge evicts them together with their score registrations."""
    candidates = make_candidates({(0, 1): 0.9, (1, 2): 0.6, (2, 3): 0.4,
                                  (0, 3): 0.7})
    oracle = CrowdOracle(ScriptedAnswers({}, default=0.5))
    clustering = Clustering([[0, 1], [2], [3]])
    estimator = build_estimator(candidates, oracle)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)
    before = cache.operations()
    for operation in before:
        evaluations.ratio_and_cost(operation)
    survivor = cache.apply(Merge(1, 2)).pop()
    absorbed = 2 if survivor == 1 else 1
    for operation in before:
        assert (operation in evaluations._entries) == (
            absorbed not in operation.touched_clusters)
    registered = {operation
                  for holders in evaluations._score_index.values()
                  for operation in holders}
    assert all(absorbed not in operation.touched_clusters
               for operation in registered)
    assert {score for score in evaluations._estimates} == set(
        evaluations._score_index)

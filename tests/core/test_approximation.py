"""Empirical check of the Pivot approximation guarantee (Lemma 1/4).

Pivot is a 5-approximation of the Λ' minimum *in expectation over its
random pivot order*.  On small instances the optimum is computable by
exhaustive partition enumeration, and the expectation can be estimated by
averaging many permutations — the averaged cost must stay within the
guarantee (with slack for sampling noise).
"""

import itertools
import random

import pytest

from repro.core.clustering import Clustering
from repro.core.objective import lambda_objective
from repro.core.permutation import Permutation
from repro.core.generation import crowd_pivot
from tests.conftest import make_candidates, scripted_oracle


def all_partitions(items):
    if not items:
        yield []
        return
    head, *rest = items
    for partition in all_partitions(rest):
        for index in range(len(partition)):
            yield (partition[:index] + [partition[index] + [head]]
                   + partition[index + 1:])
        yield partition + [[head]]


def optimal_lambda(num_records, confidences):
    best = float("inf")
    for partition in all_partitions(list(range(num_records))):
        clustering = Clustering(partition)
        cost = lambda_objective(
            clustering, confidences,
            lambda a, b: confidences.get((min(a, b), max(a, b)), 0.0),
        )
        best = min(best, cost)
    return best


def random_instance(seed, num_records=6, density=0.5):
    rng = random.Random(seed)
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < density:
                confidences[(i, j)] = rng.choice(
                    (0.1, 0.25, 0.4, 0.6, 0.75, 0.9)
                )
    return confidences


@pytest.mark.parametrize("seed", range(8))
def test_expected_pivot_cost_within_guarantee(seed):
    num_records = 6
    confidences = random_instance(seed, num_records)
    if not confidences:
        pytest.skip("degenerate empty instance")
    optimum = optimal_lambda(num_records, confidences)
    candidates = make_candidates({pair: 0.8 for pair in confidences})

    total = 0.0
    runs = 150
    for run in range(runs):
        permutation = Permutation.random(range(num_records),
                                         seed=seed * 1000 + run)
        clustering = crowd_pivot(
            range(num_records), candidates, scripted_oracle(confidences),
            permutation=permutation,
        )
        total += lambda_objective(
            clustering, confidences,
            lambda a, b: confidences.get((min(a, b), max(a, b)), 0.0),
        )
    average = total / runs
    # 5-approximation in expectation; allow sampling slack.
    assert average <= 5.0 * optimum + 0.35


def test_pivot_exact_on_consistent_instance():
    """When the crowd is perfectly consistent (0/1 confidences matching a
    true clustering), Pivot recovers the optimum (cost 0) regardless of
    the permutation."""
    # True clusters {0,1,2} and {3,4}; all pairs present.
    confidences = {}
    for i in range(5):
        for j in range(i + 1, 5):
            same = (i < 3) == (j < 3)
            confidences[(i, j)] = 1.0 if same else 0.0
    candidates = make_candidates({pair: 0.8 for pair in confidences})
    for order in itertools.permutations(range(5)):
        clustering = crowd_pivot(
            range(5), candidates, scripted_oracle(confidences),
            permutation=Permutation(list(order)),
        )
        assert clustering.as_sets() == [
            frozenset({0, 1, 2}), frozenset({3, 4})
        ]

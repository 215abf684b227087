"""Tests for repro.core.lowerbound (the LP relaxation)."""

import pytest

from repro.core.clustering import Clustering
from repro.core.lowerbound import lp_lower_bound, optimality_gap
from repro.core.objective import lambda_objective
from tests.core.test_objective import TABLE2_SCORES, all_partitions


def brute_force_optimum(num_records, confidences):
    best = float("inf")
    for partition in all_partitions(list(range(num_records))):
        clustering = Clustering(partition)
        cost = lambda_objective(
            clustering, confidences,
            lambda a, b: confidences.get((min(a, b), max(a, b)), 0.0),
        )
        best = min(best, cost)
    return best


class TestLpLowerBound:
    def test_trivial_instances(self):
        assert lp_lower_bound([], {}) == 0.0
        assert lp_lower_bound([0], {}) == 0.0

    def test_consistent_instance_bound_is_tight(self):
        # Perfectly clusterable: {0,1} together, 2 apart.
        confidences = {(0, 1): 1.0, (0, 2): 0.0, (1, 2): 0.0}
        assert lp_lower_bound([0, 1, 2], confidences) == pytest.approx(0.0, abs=1e-8)

    def test_bad_triangle_bound(self):
        # fc(0,1)=fc(1,2)=1, fc(0,2)=0: any clustering pays >= ...; the LP
        # relaxation pays 1/2 (x_01=x_12=0? then x_02<=0 pays 1; LP optimum
        # sets x_01=x_12=1/2, x_02=1 -> cost 0.5+0.5+0 = 1? compute below).
        confidences = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 0.0}
        bound = lp_lower_bound([0, 1, 2], confidences)
        optimum = brute_force_optimum(3, confidences)
        assert bound <= optimum + 1e-8
        assert bound > 0.0

    def test_lower_bounds_brute_force_optimum(self):
        import random
        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(3, 6)
            confidences = {
                (i, j): rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
                for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.7
            }
            bound = lp_lower_bound(range(n), confidences)
            optimum = brute_force_optimum(n, confidences)
            assert bound <= optimum + 1e-8

    def test_example1_bound(self):
        """The LP bound on Example 1 is at most the known optimum 2.85."""
        bound = lp_lower_bound(range(6), TABLE2_SCORES)
        assert bound <= 2.85 + 1e-8
        assert bound > 1.0  # and it is non-trivial

    def test_max_records_cap(self):
        with pytest.raises(ValueError):
            lp_lower_bound(range(50), {}, max_records=40)


class TestOptimalityGap:
    def test_gap_of_optimal_clustering(self):
        confidences = {(0, 1): 1.0, (0, 2): 0.0, (1, 2): 0.0}
        # Optimal clustering {{0,1},{2}} has Λ' = 0; bound 0 -> gap 1.
        assert optimality_gap(0.0, [0, 1, 2], confidences) == 1.0

    def test_positive_gap(self):
        confidences = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 0.0}
        bound = lp_lower_bound([0, 1, 2], confidences)
        assert optimality_gap(2.0 * bound, [0, 1, 2], confidences) == pytest.approx(2.0)

    def test_infinite_gap_when_bound_zero(self):
        confidences = {(0, 1): 1.0}
        assert optimality_gap(0.5, [0, 1], confidences) == float("inf")

    def test_pivot_gap_within_guarantee_on_example1(self):
        """Crowd-Pivot's average Λ' on Example 1 sits within the 5x LP
        guarantee (in fact well within)."""
        from repro.core.permutation import Permutation
        from repro.core.generation import crowd_pivot
        from tests.conftest import make_candidates, scripted_oracle

        candidates = make_candidates({pair: 0.8 for pair in TABLE2_SCORES})
        total = 0.0
        runs = 40
        for seed in range(runs):
            clustering = crowd_pivot(
                range(6), candidates, scripted_oracle(TABLE2_SCORES),
                permutation=Permutation.random(range(6), seed=seed),
            )
            total += lambda_objective(
                clustering, TABLE2_SCORES,
                lambda a, b: TABLE2_SCORES.get((min(a, b), max(a, b)), 0.0),
            )
        average = total / runs
        gap = optimality_gap(average, range(6), TABLE2_SCORES)
        assert gap <= 5.0

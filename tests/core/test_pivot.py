"""Tests for repro.core.generation.crowd_pivot (Crowd-Pivot, Algorithm 1)."""

import pytest

from repro.core.clustering import Clustering
from repro.core.permutation import Permutation
from repro.core.generation import crowd_pivot
from tests.conftest import (
    FIG2_IDS,
    fig2_candidates,
    fig2_oracle,
    make_candidates,
    scripted_oracle,
)


class TestBasics:
    def test_covers_all_records(self):
        oracle = fig2_oracle()
        clustering = crowd_pivot(range(6), fig2_candidates(), oracle, seed=0)
        assert clustering.num_records == 6

    def test_isolated_vertices_become_singletons(self):
        candidates = make_candidates({(0, 1): 0.8})
        oracle = scripted_oracle({(0, 1): 0.9})
        clustering = crowd_pivot([0, 1, 2, 3], candidates, oracle, seed=1)
        assert clustering.together(0, 1)
        assert {frozenset({2}), frozenset({3})} <= set(clustering.as_sets())

    def test_isolated_vertices_cost_nothing(self):
        candidates = make_candidates({})
        oracle = scripted_oracle({})
        crowd_pivot([0, 1, 2], candidates, oracle, seed=1)
        assert oracle.stats.pairs_issued == 0
        assert oracle.stats.iterations == 0

    def test_low_confidence_neighbors_excluded(self):
        candidates = make_candidates({(0, 1): 0.8, (0, 2): 0.8})
        oracle = scripted_oracle({(0, 1): 0.9, (0, 2): 0.2})
        permutation = Permutation([0, 1, 2])
        clustering = crowd_pivot([0, 1, 2], candidates, oracle,
                                 permutation=permutation)
        assert clustering.together(0, 1)
        assert not clustering.together(0, 2)

    def test_exact_half_confidence_is_not_duplicate(self):
        candidates = make_candidates({(0, 1): 0.8})
        oracle = scripted_oracle({(0, 1): 0.5})
        clustering = crowd_pivot([0, 1], candidates, oracle, seed=0)
        assert not clustering.together(0, 1)


class TestPermutationSemantics:
    def test_pivot_order_respected(self):
        """With permutation (b, f, ...) on the Figure 2 graph, the clusters
        of Case 1 emerge: {b,a,c} and {f,d,e}."""
        permutation = Permutation([FIG2_IDS[x] for x in "bfacde"])
        clustering = crowd_pivot(range(6), fig2_candidates(), fig2_oracle(),
                                 permutation=permutation)
        assert clustering.as_sets() == [
            frozenset({FIG2_IDS["a"], FIG2_IDS["b"], FIG2_IDS["c"]}),
            frozenset({FIG2_IDS["d"], FIG2_IDS["e"], FIG2_IDS["f"]}),
        ]

    def test_case3_permutation_single_cluster_then_rest(self):
        """Permutation (b, c, a, f, d, e): c is absorbed by b's cluster, so
        the next actual pivot is f."""
        permutation = Permutation([FIG2_IDS[x] for x in "bcafde"])
        clustering = crowd_pivot(range(6), fig2_candidates(), fig2_oracle(),
                                 permutation=permutation)
        sets = set(clustering.as_sets())
        assert frozenset({FIG2_IDS["a"], FIG2_IDS["b"], FIG2_IDS["c"]}) in sets
        assert frozenset({FIG2_IDS["d"], FIG2_IDS["e"], FIG2_IDS["f"]}) in sets

    def test_one_iteration_per_pivot_with_edges(self):
        permutation = Permutation([FIG2_IDS[x] for x in "bfacde"])
        oracle = fig2_oracle()
        crowd_pivot(range(6), fig2_candidates(), oracle,
                    permutation=permutation)
        assert oracle.stats.iterations == 2  # pivots b and f

    def test_deterministic_given_seed(self):
        a = crowd_pivot(range(6), fig2_candidates(), fig2_oracle(), seed=3)
        b = crowd_pivot(range(6), fig2_candidates(), fig2_oracle(), seed=3)
        assert a.as_sets() == b.as_sets()


class TestRealInstance:
    def test_reasonable_on_tiny_restaurant(self, tiny_restaurant):
        from repro.crowd.oracle import CrowdOracle
        from repro.eval.metrics import f1_score
        oracle = CrowdOracle(tiny_restaurant.answers)
        clustering = crowd_pivot(
            tiny_restaurant.record_ids, tiny_restaurant.candidates, oracle,
            seed=5,
        )
        assert clustering.num_records == len(tiny_restaurant.dataset)
        assert f1_score(clustering, tiny_restaurant.dataset.gold) > 0.7

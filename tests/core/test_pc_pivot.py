"""Tests for repro.core.generation.pc_pivot — Algorithm 3, Equation 4,
Lemma 2/4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation import PCPivotDiagnostics, pc_pivot
from repro.core.permutation import Permutation
from repro.core.generation import crowd_pivot
from repro.core.generation import choose_pivots
from repro.crowd.oracle import CrowdOracle
from repro.pruning.graph import CandidateGraph
from tests.conftest import (
    FIG2_EDGES,
    FIG2_IDS,
    fig2_candidates,
    fig2_oracle,
    make_candidates,
    scripted_oracle,
)


def fig2_graph():
    return CandidateGraph(range(6), [
        (FIG2_IDS[x], FIG2_IDS[y]) for x, y in FIG2_EDGES
    ])


def ids(letters):
    return [FIG2_IDS[x] for x in letters]


def choose_k(graph, permutation, epsilon):
    """Equation 4's ``k`` as PC-Pivot computes it on ``graph``."""
    return choose_pivots(graph, permutation.ordered(graph.vertices),
                         epsilon)[0]


class TestChooseK:
    def test_epsilon_zero_still_parallelizes_disjoint_pivots(self):
        """With M = (b, f, ...) both pivots can be taken even at ε = 0
        because they can waste nothing (Case 1)."""
        k = choose_k(fig2_graph(), Permutation(ids("bfacde")), epsilon=0.0)
        assert k >= 2

    def test_epsilon_zero_rejects_wasting_prefix(self):
        """With M = (b, c, ...) pivot c risks 2 wasted pairs; at ε = 0 the
        chosen prefix must stop before accumulating predicted waste."""
        graph = fig2_graph()
        k = choose_k(graph, Permutation(ids("bcafde")), epsilon=0.0)
        estimates_prefix = [0]  # only b is waste-free at the start
        assert k == 1 or sum(estimates_prefix[:k]) == 0

    def test_larger_epsilon_never_decreases_k(self):
        permutation = Permutation(ids("beacdf"))
        previous = 0
        for epsilon in (0.0, 0.1, 0.3, 1.0, 5.0):
            k = choose_k(fig2_graph(), permutation, epsilon=epsilon)
            assert k >= previous
            previous = k

    def test_huge_epsilon_takes_everything(self):
        k = choose_k(fig2_graph(), Permutation(ids("abcdef")), epsilon=100.0)
        assert k == 6

    def test_always_at_least_one(self):
        k = choose_k(fig2_graph(), Permutation(ids("cbadef")), epsilon=0.0)
        assert k >= 1

    def test_empty_graph(self):
        graph = CandidateGraph([], [])
        assert choose_k(graph, Permutation([]), epsilon=0.1) == 0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            choose_k(fig2_graph(), Permutation(ids("abcdef")), epsilon=-0.1)


class TestLemma2Equivalence:
    """PC-Pivot must produce exactly Crowd-Pivot's clustering for the same
    permutation and answers, for every ε."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5, 2.0])
    def test_fig2_equivalence(self, epsilon):
        for seed in range(6):
            permutation = Permutation.random(range(6), seed=seed)
            sequential = crowd_pivot(range(6), fig2_candidates(),
                                     fig2_oracle(), permutation=permutation)
            parallel = pc_pivot(range(6), fig2_candidates(), fig2_oracle(),
                                epsilon=epsilon, permutation=permutation)
            assert sequential.as_sets() == parallel.as_sets()

    @pytest.mark.parametrize("dataset_fixture", [
        "tiny_restaurant", "tiny_paper", "tiny_product",
    ])
    def test_real_instance_equivalence(self, dataset_fixture, request):
        instance = request.getfixturevalue(dataset_fixture)
        permutation = Permutation.random(instance.record_ids, seed=11)
        sequential = crowd_pivot(
            instance.record_ids, instance.candidates,
            CrowdOracle(instance.answers), permutation=permutation,
        )
        parallel = pc_pivot(
            instance.record_ids, instance.candidates,
            CrowdOracle(instance.answers), epsilon=0.1,
            permutation=permutation,
        )
        assert sequential.as_sets() == parallel.as_sets()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 3.0))
    def test_property_random_graphs(self, seed, epsilon):
        """Equivalence on random scripted graphs with mixed answers."""
        import random as random_module
        rng = random_module.Random(seed)
        n = rng.randint(2, 14)
        vertices = list(range(n))
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges[(i, j)] = rng.choice((0.1, 0.4, 0.6, 0.9))
        candidates = make_candidates({pair: 0.8 for pair in edges})
        permutation = Permutation.random(vertices, seed=seed + 1)
        sequential = crowd_pivot(
            vertices, candidates, scripted_oracle(edges),
            permutation=permutation,
        )
        parallel = pc_pivot(
            vertices, candidates, scripted_oracle(edges),
            epsilon=epsilon, permutation=permutation,
        )
        assert sequential.as_sets() == parallel.as_sets()


class TestWasteFractionBound:
    @pytest.mark.parametrize("epsilon", [0.1, 0.3])
    def test_predicted_waste_within_epsilon_of_issued(self, tiny_paper,
                                                      epsilon):
        """Lemma 4: per-round predicted waste stays within ε of pairs issued."""
        diagnostics = PCPivotDiagnostics()
        pc_pivot(
            tiny_paper.record_ids, tiny_paper.candidates,
            CrowdOracle(tiny_paper.answers), epsilon=epsilon, seed=2,
            diagnostics=diagnostics,
        )
        for waste, issued in zip(diagnostics.predicted_waste,
                                 diagnostics.issued_per_round):
            assert waste <= epsilon * issued + 1e-9


class TestDiagnosticsAndCosts:
    def test_fewer_iterations_than_sequential(self, tiny_restaurant):
        sequential_oracle = CrowdOracle(tiny_restaurant.answers)
        crowd_pivot(tiny_restaurant.record_ids, tiny_restaurant.candidates,
                    sequential_oracle, seed=3)
        parallel_oracle = CrowdOracle(tiny_restaurant.answers)
        pc_pivot(tiny_restaurant.record_ids, tiny_restaurant.candidates,
                 parallel_oracle, epsilon=0.1, seed=3)
        assert parallel_oracle.stats.iterations < sequential_oracle.stats.iterations

    def test_diagnostics_populated(self):
        diagnostics = PCPivotDiagnostics()
        pc_pivot(range(6), fig2_candidates(), fig2_oracle(), epsilon=0.1,
                 seed=1, diagnostics=diagnostics)
        assert diagnostics.rounds >= 1
        assert len(diagnostics.ks) == diagnostics.rounds
        assert diagnostics.total_predicted_waste >= 0

    def test_covers_all_records(self):
        clustering = pc_pivot(range(6), fig2_candidates(), fig2_oracle(),
                              epsilon=0.1, seed=1)
        assert clustering.num_records == 6

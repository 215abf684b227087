"""Tests for Partial-Pivot — Algorithm 2, Equation 3, and the three
Figure 2 cases of Section 4.2.  The rounds run through
``repro.reference.partial_pivot``, which derives its own pivots from the
permutation and hands them to ``repro.core.generation.pivot_incident_pairs``
and ``repro.core.generation.form_clusters``."""

import pytest

from repro.core.generation import waste_estimates
from repro.core.permutation import Permutation
from repro.pruning.graph import CandidateGraph
from repro.reference import partial_pivot
from tests.conftest import FIG2_EDGES, FIG2_IDS, fig2_candidates, fig2_oracle


def fig2_graph():
    return CandidateGraph(range(6), [
        (FIG2_IDS[x], FIG2_IDS[y]) for x, y in FIG2_EDGES
    ])


def ids(letters):
    return [FIG2_IDS[x] for x in letters]


class TestWasteEstimates:
    def test_case1_distance_greater_than_two(self):
        """Pivots b, f: far apart, no waste possible (w = [0, 0])."""
        assert waste_estimates(fig2_graph(), ids("bf")) == [0, 0]

    def test_case2_distance_two(self):
        """Pivots b, e: share neighbor a, so one edge may be wasted."""
        assert waste_estimates(fig2_graph(), ids("be")) == [0, 1]

    def test_case3_adjacent_pivots(self):
        """Pivots b, c: adjacent, so all of c's non-pivot edges ({a, d})
        may be wasted (Equation 3, first case)."""
        assert waste_estimates(fig2_graph(), ids("bc")) == [0, 2]

    def test_first_pivot_never_wastes(self):
        for letter in "abcdef":
            assert waste_estimates(fig2_graph(), ids(letter)) == [0]

    def test_three_pivots_mixed(self):
        # b, f (far), then e: e adjacent to pivot f -> first case of Eq. 3:
        # neighbors of e except pivots {b,f} = {a, d} -> 2.
        assert waste_estimates(fig2_graph(), ids("bfe")) == [0, 0, 2]


class TestPartialPivotClusters:
    def test_case1(self):
        """M = (b, f, a, c, d, e), k = 2: clusters {b,a,c} and {f,d,e};
        issued pairs exactly the 4 edges of b and f."""
        graph = fig2_graph()
        oracle = fig2_oracle()
        result = partial_pivot(graph, 2, Permutation(ids("bfacde")), oracle)
        assert set(result.clusters) == {
            frozenset(ids("bac")), frozenset(ids("fde")),
        }
        assert len(result.issued_pairs) == 4
        assert result.predicted_waste == 0
        assert graph.is_empty()

    def test_case2(self):
        """M = (b, e, a, c, d, f), k = 2: clusters {b,a,c} and {e,d,f};
        5 edges issued, of which (e, a) is the wasted one."""
        graph = fig2_graph()
        oracle = fig2_oracle()
        result = partial_pivot(graph, 2, Permutation(ids("beacdf")), oracle)
        assert set(result.clusters) == {
            frozenset(ids("bac")), frozenset(ids("edf")),
        }
        assert len(result.issued_pairs) == 5
        assert result.predicted_waste == 1

    def test_case3(self):
        """M = (b, c, a, f, d, e), k = 2: c is absorbed into b's cluster, so
        only one cluster forms; d remains unclustered."""
        graph = fig2_graph()
        oracle = fig2_oracle()
        result = partial_pivot(graph, 2, Permutation(ids("bcafde")), oracle)
        assert set(result.clusters) == {frozenset(ids("bac"))}
        assert len(result.issued_pairs) == 4  # (a,b),(b,c),(a,c),(c,d)
        assert set(graph.vertices) == set(ids("def"))

    def test_one_iteration_per_call(self):
        oracle = fig2_oracle()
        partial_pivot(fig2_graph(), 3, Permutation(ids("abcdef")), oracle)
        assert oracle.stats.iterations == 1

    def test_k_larger_than_graph_is_clamped(self):
        graph = fig2_graph()
        result = partial_pivot(graph, 100, Permutation(ids("abcdef")),
                               fig2_oracle())
        assert graph.is_empty()
        assert sum(len(c) for c in result.clusters) == 6

    def test_empty_graph(self):
        graph = CandidateGraph([], [])
        result = partial_pivot(graph, 1, Permutation([]), fig2_oracle())
        assert result.clusters == ()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partial_pivot(fig2_graph(), 0, Permutation(ids("abcdef")),
                          fig2_oracle())

    def test_isolated_pivot_forms_singleton(self):
        graph = CandidateGraph([0, 1, 2], [(1, 2)])
        from tests.conftest import scripted_oracle
        oracle = scripted_oracle({(1, 2): 0.9})
        result = partial_pivot(graph, 2, Permutation([0, 1, 2]), oracle)
        assert frozenset({0}) in set(result.clusters)
        assert frozenset({1, 2}) in set(result.clusters)


class TestWasteBoundHolds:
    def test_actual_waste_never_exceeds_estimate(self, tiny_paper):
        """Lemma 3: the Equation-3 estimate upper-bounds the actual wasted
        pairs (issued by Partial-Pivot but not by sequential Crowd-Pivot)."""
        from repro.core.generation import crowd_pivot
        from repro.crowd.oracle import CrowdOracle

        ids_ = tiny_paper.record_ids
        candidates = tiny_paper.candidates
        for seed in range(3):
            permutation = Permutation.random(ids_, seed=seed)
            sequential_oracle = CrowdOracle(tiny_paper.answers)
            crowd_pivot(ids_, candidates, sequential_oracle,
                        permutation=permutation)
            sequential_pairs = set(sequential_oracle.known_pairs())

            graph = CandidateGraph(ids_, candidates.pairs)
            parallel_oracle = CrowdOracle(tiny_paper.answers)
            total_estimate = 0
            actual_waste = 0
            while not graph.is_empty():
                result = partial_pivot(graph, 4, permutation, parallel_oracle)
                total_estimate += result.predicted_waste
                actual_waste += sum(
                    1 for pair in result.issued_pairs
                    if pair not in sequential_pairs
                )
            assert actual_waste <= total_estimate

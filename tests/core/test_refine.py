"""Tests for repro.core.refine (Crowd-Refine, Algorithm 4) — including the
full Appendix B walkthrough (Example 3)."""

import pytest

from repro.core.clustering import Clustering
from repro.core.objective import lambda_objective
from repro.core.permutation import Permutation
from repro.core.generation import pc_pivot
from repro.core.refine import (
    build_estimator,
    crowd_refine,
    enumerate_operations,
)
from repro.core.operations import Merge, Split
from repro.crowd.oracle import CrowdOracle
from tests.conftest import make_candidates, scripted_oracle

# ---------------------------------------------------------------------------
# Appendix B, Example 3.  Records a..f -> 0..5.  Candidate edges and the
# crowd confidences each pair would get.
# ---------------------------------------------------------------------------
A, B, C, D, E, F = range(6)

EXAMPLE3_CONFIDENCES = {
    (A, B): 0.9, (A, C): 0.9, (B, C): 0.9, (C, D): 0.6,
    (A, E): 0.3, (D, E): 0.8, (E, F): 0.9,
    (A, D): 0.4, (D, F): 0.8,
}
# Machine scores mirror the crowd scores (the example states b* == b).
EXAMPLE3_CANDIDATES = make_candidates(EXAMPLE3_CONFIDENCES)


def example3_oracle():
    return scripted_oracle(EXAMPLE3_CONFIDENCES)


class TestExample3:
    def test_generation_phase(self):
        """With permutation (c, e, b, d, a, f) and ε = 0.4, PC-Pivot issues
        both pivots' edges in one batch and forms {a,b,c,d} and {e,f}."""
        oracle = example3_oracle()
        permutation = Permutation([C, E, B, D, A, F])
        clustering = pc_pivot(range(6), EXAMPLE3_CANDIDATES, oracle,
                              epsilon=0.4, permutation=permutation)
        assert clustering.as_sets() == [
            frozenset({A, B, C, D}), frozenset({E, F}),
        ]
        assert oracle.stats.iterations == 1
        assert oracle.stats.pairs_issued == 6  # c's and e's edges

    def test_refinement_reaches_paper_result(self):
        """Crowd-Refine then splits d, merges {d} with {e,f}, and stops:
        final clusters {a,b,c} and {d,e,f}, crowdsourcing exactly the two
        extra pairs (a,d) and (d,f)."""
        oracle = example3_oracle()
        permutation = Permutation([C, E, B, D, A, F])
        clustering = pc_pivot(range(6), EXAMPLE3_CANDIDATES, oracle,
                              epsilon=0.4, permutation=permutation)
        refined = crowd_refine(clustering, EXAMPLE3_CANDIDATES, oracle)
        assert refined.as_sets() == [
            frozenset({A, B, C}), frozenset({D, E, F}),
        ]
        extra = set(oracle.known_pairs()) - {
            (A, C), (B, C), (C, D), (A, E), (D, E), (E, F)
        }
        assert extra == {(A, D), (D, F)}

    def test_split_benefit_value(self):
        """The example's split of d has benefit exactly 1.0 once (a,d) is
        known: fc(a,d)=0.4, fc(b,d)=0 (pruned), fc(c,d)=0.6."""
        from repro.core.objective import split_benefit
        assert split_benefit([0.4, 0.0, 0.6]) == pytest.approx(1.0)

    def test_merge_benefit_value(self):
        """The example's merger of {d} and {e,f} has benefit 1.2:
        fc(d,e)=0.8, fc(d,f)=0.8."""
        from repro.core.objective import merge_benefit
        assert merge_benefit([0.8, 0.8]) == pytest.approx(1.2)


class TestEnumerateOperations:
    def test_splits_only_for_multi_record_clusters(self):
        clustering = Clustering([{0, 1}, {2}])
        candidates = make_candidates({(0, 1): 0.8})
        operations = enumerate_operations(clustering, candidates)
        splits = [op for op in operations if isinstance(op, Split)]
        assert {op.record_id for op in splits} == {0, 1}

    def test_merges_only_for_candidate_connected_clusters(self):
        clustering = Clustering([{0}, {1}, {2}])
        candidates = make_candidates({(0, 1): 0.8})
        operations = enumerate_operations(clustering, candidates)
        merges = [op for op in operations if isinstance(op, Merge)]
        assert len(merges) == 1  # only the {0}-{1} pair; {2} is unreachable

    def test_no_duplicate_merges(self):
        clustering = Clustering([{0, 1}, {2, 3}])
        candidates = make_candidates({(0, 2): 0.8, (1, 3): 0.8})
        operations = enumerate_operations(clustering, candidates)
        merges = [op for op in operations if isinstance(op, Merge)]
        assert len(merges) == 1  # two edges, same cluster pair


class TestBuildEstimator:
    def test_uses_only_candidate_pairs_from_a(self):
        candidates = make_candidates({(0, 1): 0.8})
        oracle = scripted_oracle({(0, 1): 0.9, (5, 6): 0.5})
        oracle.ask_batch([(0, 1), (5, 6)])
        estimator = build_estimator(candidates, oracle)
        assert len(estimator) == 1


class TestRefinementInvariants:
    def test_lambda_never_increases(self, tiny_paper):
        """Refinement must not increase Λ'(R) measured on full answers."""
        for seed in (0, 1):
            oracle = CrowdOracle(tiny_paper.answers)
            clustering = pc_pivot(
                tiny_paper.record_ids, tiny_paper.candidates, oracle,
                epsilon=0.1, seed=seed,
            )
            def full_confidence(a, b):
                return tiny_paper.answers.confidence(a, b)
            before = lambda_objective(
                clustering.copy(), tiny_paper.candidates.pairs, full_confidence
            )
            refined = crowd_refine(clustering, tiny_paper.candidates, oracle)
            after = lambda_objective(
                refined, tiny_paper.candidates.pairs, full_confidence
            )
            assert after <= before + 1e-9

    def test_refinement_preserves_record_set(self, tiny_restaurant):
        oracle = CrowdOracle(tiny_restaurant.answers)
        clustering = pc_pivot(
            tiny_restaurant.record_ids, tiny_restaurant.candidates, oracle,
            epsilon=0.1, seed=0,
        )
        refined = crowd_refine(clustering, tiny_restaurant.candidates, oracle)
        assert refined.num_records == len(tiny_restaurant.dataset)
        refined.check_invariants()

    def test_terminates_with_nothing_to_do(self):
        """A clustering that is already optimal for fully-known answers must
        be returned unchanged without crowdsourcing."""
        candidates = make_candidates({(0, 1): 0.9, (2, 3): 0.9})
        oracle = scripted_oracle({(0, 1): 1.0, (2, 3): 0.0})
        oracle.ask_batch([(0, 1), (2, 3)])
        clustering = Clustering([{0, 1}, {2}, {3}])
        pairs_before = oracle.stats.pairs_issued
        refined = crowd_refine(clustering, candidates, oracle)
        assert refined.as_sets() == [
            frozenset({0, 1}), frozenset({2}), frozenset({3})
        ]
        assert oracle.stats.pairs_issued == pairs_before

    def test_free_merge_applied_without_crowd(self):
        """Two singletons with a known-duplicate edge merge for free."""
        candidates = make_candidates({(0, 1): 0.9})
        oracle = scripted_oracle({(0, 1): 1.0})
        oracle.ask_batch([(0, 1)])
        clustering = Clustering([{0}, {1}])
        pairs_before = oracle.stats.pairs_issued
        refined = crowd_refine(clustering, candidates, oracle)
        assert refined.together(0, 1)
        assert oracle.stats.pairs_issued == pairs_before

    def test_free_split_applied_without_crowd(self):
        candidates = make_candidates({(0, 1): 0.9})
        oracle = scripted_oracle({(0, 1): 0.0})
        oracle.ask_batch([(0, 1)])
        clustering = Clustering([{0, 1}])
        refined = crowd_refine(clustering, candidates, oracle)
        assert not refined.together(0, 1)

    def test_negative_benefit_operation_not_applied(self):
        """An estimated-positive operation whose confirmed benefit is
        negative must be crowdsourced but not applied."""
        # Estimator will predict high fc for (0,1) (trained on a high pair),
        # but the true answer is low -> merge rejected.
        candidates = make_candidates({(0, 1): 0.9, (2, 3): 0.9})
        oracle = scripted_oracle({(0, 1): 0.1, (2, 3): 0.95})
        oracle.ask_batch([(2, 3)])
        clustering = Clustering([{0}, {1}, {2, 3}])
        refined = crowd_refine(clustering, candidates, oracle)
        assert not refined.together(0, 1)
        assert oracle.knows(0, 1)  # it did pay to check


class TestZeroCostOnlyRefinement:
    """Regression: a refinement state where every operation is zero-cost.

    When the whole candidate set is already crowdsourced, every enumerable
    operation has cost 0.  The loop must drain them through the free path
    and terminate without crowdsourcing anything — and the benefit-cost
    ratio must stay a total, finite function over all of them (it used to
    raise ValueError for zero cost).
    """

    def test_all_known_refines_for_free(self):
        confidences = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.2, (3, 4): 0.8}
        candidates = make_candidates(confidences)
        oracle = scripted_oracle(confidences)
        oracle.ask_batch(list(confidences))
        pairs_before = oracle.stats.pairs_issued

        clustering = Clustering([{0, 1, 2}, {3}, {4}])
        refined = crowd_refine(clustering, candidates, oracle)

        assert oracle.stats.pairs_issued == pairs_before
        assert refined.together(3, 4)  # beneficial free merge applied
        refined.check_invariants()

    def test_ratio_is_total_over_all_zero_cost_operations(self):
        from repro.core.operations import OperationEvaluator
        confidences = {(0, 1): 0.9, (1, 2): 0.4, (0, 2): 0.2}
        candidates = make_candidates(confidences)
        oracle = scripted_oracle(confidences)
        oracle.ask_batch(list(confidences))
        clustering = Clustering([{0, 1}, {2}])
        estimator = build_estimator(candidates, oracle)
        evaluator = OperationEvaluator(clustering, candidates, oracle,
                                       estimator)
        for operation in enumerate_operations(clustering, candidates):
            assert evaluator.cost(operation) == 0
            ratio = evaluator.benefit_cost_ratio(operation)  # must not raise
            assert ratio == pytest.approx(evaluator.exact_benefit(operation))

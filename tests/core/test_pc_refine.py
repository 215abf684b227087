"""Tests for repro.core.pc_refine (PC-Refine, Algorithm 5)."""

import pytest

from repro.core.clustering import Clustering
from repro.core.objective import lambda_objective
from repro.core.generation import pc_pivot
from repro.core.pc_refine import (
    PCRefineDiagnostics,
    pc_refine,
    refinement_budget,
)
from repro.core.refine import crowd_refine
from repro.crowd.oracle import CrowdOracle
from tests.conftest import make_candidates, scripted_oracle


class TestRefinementBudget:
    def test_formula_one_batch_bound(self):
        # |R|=10, |C|=5 -> |R|^2/(2|C|) = 10; N_u = 100 -> N_m = 10; x=2 -> 5.
        assert refinement_budget(10, 5, 100, threshold_divisor=2.0) == 5.0

    def test_formula_unknown_bound(self):
        # N_u = 4 < 10 -> N_m = 4; x = 2 -> 2.
        assert refinement_budget(10, 5, 4, threshold_divisor=2.0) == 2.0

    def test_paper_default_divisor(self):
        assert refinement_budget(100, 10, 10_000) == pytest.approx(500 / 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            refinement_budget(10, 0, 5)
        with pytest.raises(ValueError):
            refinement_budget(10, 5, 5, threshold_divisor=0.0)


class TestBatchedBehaviour:
    def test_independent_operations_resolved_in_one_batch(self):
        """Two independent positive merges should cost one crowd iteration,
        where Crowd-Refine needs two."""
        confidences = {(0, 1): 0.9, (2, 3): 0.9}
        candidates = make_candidates({(0, 1): 0.8, (2, 3): 0.8})

        parallel_oracle = scripted_oracle(confidences)
        parallel = pc_refine(
            Clustering([{0}, {1}, {2}, {3}]), candidates, parallel_oracle,
            num_records=4,
            threshold_divisor=1.0,
        )
        assert parallel.together(0, 1) and parallel.together(2, 3)
        assert parallel_oracle.stats.iterations == 1

        sequential_oracle = scripted_oracle(confidences)
        sequential = crowd_refine(
            Clustering([{0}, {1}, {2}, {3}]), candidates, sequential_oracle
        )
        assert sequential.as_sets() == parallel.as_sets()
        assert sequential_oracle.stats.iterations == 2

    def test_dependent_operations_not_packed_together(self):
        """Two merges sharing a cluster are dependent; only one can be in
        O^i, so resolving both needs two batches."""
        confidences = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.9}
        candidates = make_candidates(
            {(0, 1): 0.8, (1, 2): 0.8, (0, 2): 0.8}
        )
        oracle = scripted_oracle(confidences)
        clustering = pc_refine(
            Clustering([{0}, {1}, {2}]), candidates, oracle, num_records=3,
            threshold_divisor=1.0,
        )
        assert clustering.together(0, 1) and clustering.together(1, 2)
        # First batch merges one pair; the follow-up merge of the third
        # record needs the remaining evidence.
        assert oracle.stats.iterations >= 1

    def test_terminates_when_nothing_positive(self):
        candidates = make_candidates({(0, 1): 0.4})
        oracle = scripted_oracle({(0, 1): 0.1})
        oracle.ask_batch([(0, 1)])
        clustering = pc_refine(
            Clustering([{0}, {1}]), candidates, oracle, num_records=2
        )
        assert len(clustering) == 2

    def test_free_operations_applied_before_batching(self):
        candidates = make_candidates({(0, 1): 0.9})
        oracle = scripted_oracle({(0, 1): 1.0})
        oracle.ask_batch([(0, 1)])
        diagnostics = PCRefineDiagnostics()
        clustering = pc_refine(
            Clustering([{0}, {1}]), candidates, oracle, num_records=2,
            diagnostics=diagnostics,
        )
        assert clustering.together(0, 1)
        assert diagnostics.free_operations_applied == 1
        assert diagnostics.rounds == 0  # no crowd batch was needed


class TestBudgetEffect:
    def test_small_budget_means_more_rounds(self, tiny_paper):
        """Shrinking T (larger divisor) cannot reduce the number of
        refinement rounds."""
        def rounds_for(divisor):
            oracle = CrowdOracle(tiny_paper.answers)
            clustering = pc_pivot(
                tiny_paper.record_ids, tiny_paper.candidates, oracle,
                epsilon=0.1, seed=4,
            )
            diagnostics = PCRefineDiagnostics()
            pc_refine(
                clustering, tiny_paper.candidates, oracle,
                num_records=len(tiny_paper.dataset),
                threshold_divisor=divisor, diagnostics=diagnostics,
            )
            return diagnostics.rounds

        assert rounds_for(16.0) >= rounds_for(2.0)

    def test_batch_sizes_respect_budget_loosely(self, tiny_paper):
        """Each round's packed cost stays near T (the greedy packer stops at
        the first operation crossing the budget)."""
        oracle = CrowdOracle(tiny_paper.answers)
        clustering = pc_pivot(
            tiny_paper.record_ids, tiny_paper.candidates, oracle,
            epsilon=0.1, seed=4,
        )
        diagnostics = PCRefineDiagnostics()
        pc_refine(
            clustering, tiny_paper.candidates, oracle,
            num_records=len(tiny_paper.dataset),
            threshold_divisor=8.0, diagnostics=diagnostics,
        )
        budget_cap = refinement_budget(
            len(tiny_paper.dataset), 1, len(tiny_paper.candidates),
            threshold_divisor=8.0,
        )
        # Loose sanity bound: one overshooting operation is allowed, and
        # every batch is at most the one-batch maximum.
        for size in diagnostics.batch_sizes:
            assert size <= budget_cap + len(tiny_paper.dataset)


class TestEquivalenceWithSequential:
    def test_matches_crowd_refine_on_example(self, tiny_restaurant):
        """On a low-error dataset both refiners should land on clusterings
        of equal Λ' quality (they may differ in tie-breaking)."""
        def run(refiner):
            oracle = CrowdOracle(tiny_restaurant.answers)
            clustering = pc_pivot(
                tiny_restaurant.record_ids, tiny_restaurant.candidates,
                oracle, epsilon=0.1, seed=9,
            )
            if refiner == "parallel":
                result = pc_refine(clustering, tiny_restaurant.candidates,
                                   oracle,
                                   num_records=len(tiny_restaurant.dataset))
            else:
                result = crowd_refine(clustering, tiny_restaurant.candidates,
                                      oracle)
            return lambda_objective(
                result, tiny_restaurant.candidates.pairs,
                lambda a, b: tiny_restaurant.answers.confidence(a, b),
            )

        assert run("parallel") == pytest.approx(run("sequential"), abs=2.0)

    def test_lambda_never_increases(self, tiny_product):
        oracle = CrowdOracle(tiny_product.answers)
        clustering = pc_pivot(
            tiny_product.record_ids, tiny_product.candidates, oracle,
            epsilon=0.1, seed=1,
        )
        def full(a, b):
            return tiny_product.answers.confidence(a, b)
        before = lambda_objective(
            clustering.copy(), tiny_product.candidates.pairs, full
        )
        refined = pc_refine(clustering, tiny_product.candidates, oracle,
                            num_records=len(tiny_product.dataset))
        after = lambda_objective(refined, tiny_product.candidates.pairs, full)
        assert after <= before + 1e-9
        refined.check_invariants()


class TestZeroCostOnlyRefinement:
    def test_all_known_refines_for_free(self):
        """Regression: when every candidate pair is already crowdsourced,
        every operation has cost 0 — PC-Refine must drain the free path and
        terminate without packing (or paying for) anything."""
        from tests.conftest import make_candidates, scripted_oracle
        confidences = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.2, (3, 4): 0.8}
        candidates = make_candidates(confidences)
        oracle = scripted_oracle(confidences)
        oracle.ask_batch(list(confidences))
        pairs_before = oracle.stats.pairs_issued

        diagnostics = PCRefineDiagnostics()
        refined = pc_refine(Clustering([{0, 1, 2}, {3}, {4}]), candidates,
                            oracle, num_records=5, diagnostics=diagnostics)

        assert oracle.stats.pairs_issued == pairs_before
        assert refined.together(3, 4)
        assert diagnostics.operations_packed in ([], [0])
        refined.check_invariants()

"""Tests for PC-Refine's max_refinement_pairs budget cap."""

import pytest

from repro.core.generation import pc_pivot
from repro.core.pc_refine import pc_refine
from repro.crowd.oracle import CrowdOracle


def generation(instance, seed=4):
    oracle = CrowdOracle(instance.answers)
    clustering = pc_pivot(instance.record_ids, instance.candidates, oracle,
                          epsilon=0.1, seed=seed)
    return clustering, oracle


class TestBudgetCap:
    def test_zero_budget_means_no_crowdsourcing(self, tiny_paper):
        clustering, oracle = generation(tiny_paper)
        pairs_before = oracle.stats.pairs_issued
        pc_refine(clustering, tiny_paper.candidates, oracle,
                  num_records=len(tiny_paper.dataset),
                  max_refinement_pairs=0)
        assert oracle.stats.pairs_issued == pairs_before

    def test_zero_budget_still_applies_free_operations(self, tiny_paper):
        from repro.core.pc_refine import PCRefineDiagnostics
        clustering, oracle = generation(tiny_paper)
        diagnostics = PCRefineDiagnostics()
        pc_refine(clustering, tiny_paper.candidates, oracle,
                  num_records=len(tiny_paper.dataset),
                  max_refinement_pairs=0, diagnostics=diagnostics)
        assert diagnostics.rounds == 0  # no paid rounds

    def test_cap_limits_spend(self, tiny_paper):
        unlimited_clustering, unlimited_oracle = generation(tiny_paper)
        pc_refine(unlimited_clustering, tiny_paper.candidates,
                  unlimited_oracle, num_records=len(tiny_paper.dataset))
        unlimited_spend = unlimited_oracle.stats.pairs_issued

        capped_clustering, capped_oracle = generation(tiny_paper)
        generation_pairs = capped_oracle.stats.pairs_issued
        cap = 10
        pc_refine(capped_clustering, tiny_paper.candidates, capped_oracle,
                  num_records=len(tiny_paper.dataset),
                  max_refinement_pairs=cap)
        spent = capped_oracle.stats.pairs_issued - generation_pairs
        assert spent <= cap  # the cap is hard
        assert capped_oracle.stats.pairs_issued <= unlimited_spend

    def test_negative_budget_rejected(self, tiny_paper):
        clustering, oracle = generation(tiny_paper)
        with pytest.raises(ValueError):
            pc_refine(clustering, tiny_paper.candidates, oracle,
                      max_refinement_pairs=-1)

    def test_unlimited_is_default(self, tiny_paper):
        """No cap: behaves exactly as before (regression guard)."""
        a_clustering, a_oracle = generation(tiny_paper)
        pc_refine(a_clustering, tiny_paper.candidates, a_oracle,
                  num_records=len(tiny_paper.dataset))
        b_clustering, b_oracle = generation(tiny_paper)
        pc_refine(b_clustering, tiny_paper.candidates, b_oracle,
                  num_records=len(tiny_paper.dataset),
                  max_refinement_pairs=None)
        assert a_clustering.as_sets() == b_clustering.as_sets()
        assert a_oracle.stats.pairs_issued == b_oracle.stats.pairs_issued

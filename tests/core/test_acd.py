"""Tests for repro.core.acd (the end-to-end pipeline)."""

import pytest

from repro.core.acd import run_acd
from repro.core.permutation import Permutation
from repro.core.pivot import crowd_pivot
from repro.core.refine import crowd_refine
from repro.crowd.oracle import CrowdOracle
from repro.runtime.pipeline import run_pipeline
from repro.eval.metrics import f1_score


class TestPipeline:
    def test_returns_complete_clustering(self, tiny_restaurant):
        result = run_acd(
            tiny_restaurant.record_ids, tiny_restaurant.candidates,
            tiny_restaurant.answers, seed=1,
        )
        assert result.clustering.num_records == len(tiny_restaurant.dataset)
        result.clustering.check_invariants()

    def test_stats_are_cumulative(self, tiny_restaurant):
        result = run_acd(
            tiny_restaurant.record_ids, tiny_restaurant.candidates,
            tiny_restaurant.answers, seed=1,
        )
        total = result.stats.snapshot()
        for key in ("pairs_issued", "iterations"):
            assert total[key] == (
                result.generation_stats[key] + result.refinement_stats[key]
            )

    def test_refine_false_skips_phase3(self, tiny_paper):
        result = run_acd(
            tiny_paper.record_ids, tiny_paper.candidates, tiny_paper.answers,
            seed=1, refine=False,
        )
        assert result.refine_diagnostics is None
        assert result.refinement_stats["pairs_issued"] == 0

    def test_refinement_improves_f1_on_hard_dataset(self, tiny_paper):
        """The paper's headline: ACD beats bare PC-Pivot on Paper."""
        scores = {"with": 0.0, "without": 0.0}
        repetitions = 3
        for seed in range(repetitions):
            with_refine = run_acd(
                tiny_paper.record_ids, tiny_paper.candidates,
                tiny_paper.answers, seed=seed,
            )
            without = run_acd(
                tiny_paper.record_ids, tiny_paper.candidates,
                tiny_paper.answers, seed=seed, refine=False,
            )
            scores["with"] += f1_score(with_refine.clustering,
                                       tiny_paper.dataset.gold)
            scores["without"] += f1_score(without.clustering,
                                          tiny_paper.dataset.gold)
        assert scores["with"] > scores["without"]

    def test_sequential_mode(self, tiny_restaurant):
        """Crowd-Pivot then Crowd-Refine over one oracle: the sequential
        composition the parallelization experiments compare against."""
        oracle = CrowdOracle(tiny_restaurant.answers)
        clustering = crowd_refine(
            crowd_pivot(tiny_restaurant.record_ids,
                        tiny_restaurant.candidates, oracle, seed=1),
            tiny_restaurant.candidates, oracle,
        )
        assert clustering.num_records == len(tiny_restaurant.dataset)
        clustering.check_invariants()

    def test_sequential_and_parallel_generation_agree(self, tiny_product):
        permutation = Permutation.random(tiny_product.record_ids, seed=5)
        parallel = run_acd(
            tiny_product.record_ids, tiny_product.candidates,
            tiny_product.answers, permutation=permutation, refine=False,
        )
        sequential = crowd_pivot(
            tiny_product.record_ids, tiny_product.candidates,
            CrowdOracle(tiny_product.answers), permutation=permutation,
        )
        assert parallel.clustering.as_sets() == sequential.as_sets()

    def test_deterministic_given_seed(self, tiny_paper):
        a = run_acd(tiny_paper.record_ids, tiny_paper.candidates,
                    tiny_paper.answers, seed=3)
        b = run_acd(tiny_paper.record_ids, tiny_paper.candidates,
                    tiny_paper.answers, seed=3)
        assert a.clustering.as_sets() == b.clustering.as_sets()
        assert a.stats.pairs_issued == b.stats.pairs_issued

    def test_diagnostics_attached(self, tiny_paper):
        result = run_acd(tiny_paper.record_ids, tiny_paper.candidates,
                         tiny_paper.answers, seed=3)
        assert result.pivot_diagnostics is not None
        assert result.pivot_diagnostics.rounds >= 1
        assert result.refine_diagnostics is not None

    def test_pairs_per_hit_flows_into_stats(self, tiny_restaurant):
        result = run_acd(
            tiny_restaurant.record_ids, tiny_restaurant.candidates,
            tiny_restaurant.answers, seed=1, pairs_per_hit=10,
        )
        assert result.stats.pairs_per_hit == 10


class TestRemovedKnobs:
    @pytest.mark.parametrize("knob,value", [
        ("parallel", False), ("pipeline", True), ("pipeline_workers", 2),
        ("journal_path", "run.wal"),
    ])
    def test_run_acd_knobs_are_gone(self, tiny_restaurant, knob, value):
        """The sequential engines, the component executor and the
        write-ahead journal are direct calls (``crowd_pivot`` /
        ``crowd_refine``, ``run_pipeline``, ``JournalingAnswerFile``),
        not ``run_acd`` options."""
        with pytest.raises(TypeError, match=knob):
            run_acd(tiny_restaurant.record_ids, tiny_restaurant.candidates,
                    tiny_restaurant.answers, **{knob: value})

    def test_run_pipeline_journal_path_is_gone(self, tiny_restaurant):
        with pytest.raises(TypeError, match="journal_path"):
            run_pipeline(tiny_restaurant.answers,
                         record_ids=tiny_restaurant.record_ids,
                         candidates=tiny_restaurant.candidates,
                         journal_path="run.wal")

"""Tests for repro.core.acd (the end-to-end pipeline)."""

from collections import Counter

import pytest

from repro.core.acd import run_acd
from repro.core.permutation import Permutation
from repro.core.generation import crowd_pivot
from repro.core.refine import crowd_refine
from repro.crowd.cache import AnswerWrapper
from repro.crowd.oracle import CrowdOracle
from repro.crowd.stats import FAULT_COUNTERS
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
        ``crowd_refine``, ``JournalingAnswerFile``), and the component
        executor is the only one (``workers=`` sizes its pool), so none
        of these are ``run_acd`` options."""
        with pytest.raises(TypeError, match=knob):
            run_acd(tiny_restaurant.record_ids, tiny_restaurant.candidates,
                    tiny_restaurant.answers, **{knob: value})

    def test_run_pipeline_journal_path_is_gone(self, tiny_restaurant):
        with pytest.raises(TypeError, match="journal_path"):
            run_pipeline(tiny_restaurant.answers,
                         record_ids=tiny_restaurant.record_ids,
                         candidates=tiny_restaurant.candidates,
                         journal_path="run.wal")


class _DrainRecorder(AnswerWrapper):
    """Forwards a platform answer file and sums every fault-counter drain
    it serves, so a test can see where the counters went."""

    def __init__(self, inner):
        super().__init__(inner)
        self.drained = Counter()

    def confidence_batch(self, pairs):
        return self._inner.confidence_batch(pairs)

    def drain_fault_counters(self):
        counters = self._inner.drain_fault_counters()
        self.drained.update(counters)
        return counters

    def degraded_pairs(self):
        return self._inner.degraded_pairs()


class TestInlineStatefulSource:
    """Inline, generation takes any answer source — here a
    fault-injecting platform — and its fault counters reach
    ``CrowdStats`` exactly once, through the caller's oracle."""

    @staticmethod
    def _platform():
        from repro.crowd.faults import FaultModel
        from repro.datasets.registry import generate
        from repro.experiments.chaos import _platform_answers
        from repro.experiments.configs import PRUNING_THRESHOLD
        from repro.pruning.candidate import build_candidate_set
        from repro.similarity.composite import jaccard_similarity_function

        dataset = generate("restaurant", scale=0.1, seed=0)
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD)
        answers = _platform_answers("restaurant", dataset, candidates, 0,
                                    FaultModel.default())
        return dataset, candidates, answers

    def test_fault_counters_land_exactly_once(self):
        dataset, candidates, answers = self._platform()
        recorder = _DrainRecorder(answers)
        result = run_acd(dataset.record_ids, candidates, recorder, seed=3)
        stats = result.stats
        faults = {key: getattr(stats, key) for key in FAULT_COUNTERS}
        assert sum(faults.values()) > 0
        # Everything the platform produced was drained, by the oracle.
        assert answers.drain_fault_counters() == {}
        assert faults == {key: recorder.drained[key]
                          for key in FAULT_COUNTERS}
        # Cross-check against the platform's own event log.
        events = answers.platform.fault_events()
        assert stats.abandonments + stats.timeouts == len(events)
        assert stats.degraded_pairs == len(answers.degraded_pairs())
        # The generation snapshot holds its share, refinement the rest.
        for key in FAULT_COUNTERS:
            assert (result.generation_stats[key]
                    + result.refinement_stats[key]) == faults[key]

    def test_pool_refuses_the_stateful_source(self):
        dataset, candidates, answers = self._platform()
        with pytest.raises(ValueError, match="pair-deterministic"):
            run_acd(dataset.record_ids, candidates, answers, seed=3,
                    workers=2)

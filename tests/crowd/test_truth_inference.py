"""Tests for repro.crowd.truth_inference (Dawid-Skene EM)."""

import pytest

from repro.crowd.cache import ScriptedAnswers
from repro.crowd.truth_inference import TruthInferenceResult, dawid_skene
from repro.crowd.worker import DifficultyModel
from repro.crowd.workforce import Workforce, WorkforceAnswerFile
from repro.datasets.schema import GoldStandard


class TestValidation:
    def test_empty_votes_rejected(self):
        with pytest.raises(ValueError):
            dawid_skene({})

    def test_pair_without_votes_rejected(self):
        with pytest.raises(ValueError):
            dawid_skene({(0, 1): []})


class TestUnanimousVotes:
    def test_unanimous_pairs_get_extreme_posteriors(self):
        votes = {
            (0, 1): [(10, True), (11, True), (12, True)],
            (2, 3): [(10, False), (11, False), (12, False)],
        }
        result = dawid_skene(votes)
        assert result.posteriors[(0, 1)] > 0.9
        assert result.posteriors[(2, 3)] < 0.1

    def test_pair_keys_canonicalized(self):
        votes = {(5, 2): [(1, True)]}
        result = dawid_skene(votes)
        assert (2, 5) in result.posteriors


class TestReliabilityWeighting:
    def make_votes(self):
        """Workers 0-2 always vote truth; worker 3 always votes the
        opposite.  40 true-dup pairs and 40 non-dup pairs."""
        votes = {}
        for i in range(40):
            votes[(2 * i, 2 * i + 1)] = [
                (0, True), (1, True), (3, False)
            ]
        for i in range(40, 80):
            votes[(2 * i, 2 * i + 1)] = [
                (0, False), (2, False), (3, True)
            ]
        return votes

    def test_adversarial_worker_identified(self):
        result = dawid_skene(self.make_votes())
        assert result.workers[3].accuracy < 0.3
        assert result.workers[0].accuracy > 0.9

    def test_posteriors_follow_reliable_workers(self):
        result = dawid_skene(self.make_votes())
        for i in range(40):
            assert result.posteriors[(2 * i, 2 * i + 1)] > 0.8
        for i in range(40, 80):
            assert result.posteriors[(2 * i, 2 * i + 1)] < 0.2

    def test_vote_counts_recorded(self):
        result = dawid_skene(self.make_votes())
        assert result.workers[0].num_votes == 80
        assert result.workers[1].num_votes == 40


def _mixed_pair_workload(num_each=300):
    """Half true-duplicate pairs, half non-duplicate pairs — both classes
    must be present or Dawid-Skene's class prior degenerates."""
    gold = GoldStandard({r: r // 2 for r in range(2 * num_each)})
    duplicate_pairs = [(2 * i, 2 * i + 1) for i in range(num_each)]
    non_duplicate_pairs = [(2 * i, 2 * i + 2) for i in range(num_each - 1)]
    return gold, duplicate_pairs + non_duplicate_pairs


class TestAgainstMajorityVote:
    def test_beats_majority_with_unreliable_minority(self):
        """With a sloppy worker population, Dawid-Skene posteriors label
        pairs more accurately than the raw majority vote."""
        gold, pairs = _mixed_pair_workload(400)
        workforce = Workforce(size=40, reliability_alpha=3.0,
                              reliability_beta=1.6, seed=21)
        answers = WorkforceAnswerFile(
            gold, workforce, DifficultyModel(easy_error=0.02, seed=21),
            panel_size=5,
        )
        answers.prefetch(pairs)

        majority_errors = sum(
            1 for pair in pairs
            if answers.majority_duplicate(*pair) != gold.is_duplicate(*pair)
        )
        result = dawid_skene(answers.all_votes())
        inferred_errors = sum(
            1 for pair in pairs
            if (result.posteriors[pair] > 0.5) != gold.is_duplicate(*pair)
        )
        assert inferred_errors < majority_errors

    def test_recovered_reliabilities_correlate_with_truth(self):
        """Inferred worker accuracies track the simulated reliabilities
        (positive rank correlation over the population)."""
        gold, pairs = _mixed_pair_workload(300)
        workforce = Workforce(size=20, reliability_alpha=3.0,
                              reliability_beta=1.5, seed=8)
        answers = WorkforceAnswerFile(
            gold, workforce, DifficultyModel(easy_error=0.02, seed=8),
            panel_size=5,
        )
        answers.prefetch(pairs)
        result = dawid_skene(answers.all_votes())

        true_reliability = {
            worker.worker_id: worker.reliability
            for worker in workforce.workers()
        }
        samples = [
            (true_reliability[w], result.workers[w].accuracy)
            for w in result.workers if result.workers[w].num_votes >= 30
        ]
        assert len(samples) >= 5
        from scipy.stats import spearmanr
        correlation, _ = spearmanr([s[0] for s in samples],
                                   [s[1] for s in samples])
        assert correlation > 0.5


class TestPosteriorsAsAnswers:
    """Posteriors replay through ``ScriptedAnswers`` like any answer file."""

    def test_pipeline_compatible(self):
        votes = {
            (0, 1): [(0, True), (1, True), (2, True)],
            (1, 2): [(0, False), (1, False), (2, False)],
            (0, 2): [(0, False), (1, False), (2, True)],
        }
        answers = ScriptedAnswers(dawid_skene(votes).posteriors,
                                  num_workers=3)
        from repro.core.acd import run_acd
        from tests.conftest import make_candidates
        candidates = make_candidates({(0, 1): 0.8, (1, 2): 0.7, (0, 2): 0.6})
        result = run_acd(range(3), candidates, answers, seed=0)
        assert result.clustering.together(0, 1)
        assert not result.clustering.together(1, 2)

    def test_missing_pair_raises(self):
        answers = ScriptedAnswers(
            dawid_skene({(0, 1): [(0, True)]}).posteriors, num_workers=1
        )
        with pytest.raises(KeyError):
            answers.confidence(7, 8)

    def test_len(self):
        answers = ScriptedAnswers(
            dawid_skene({(0, 1): [(0, True)]}).posteriors)
        assert len(answers) == 1

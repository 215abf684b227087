"""Extension experiment: Dawid-Skene truth inference vs majority voting.

The paper's crowd answers are plain majority votes; the quality-management
literature it cites [29] estimates worker reliabilities jointly with the
labels.  This bench answers: with the *same* votes from a sloppy worker
population, how much does replacing majority fractions with Dawid-Skene
posteriors improve (a) raw answer accuracy and (b) end-to-end ACD F1?

Setup: Restaurant dataset, a 400-worker population with a heavy unreliable
tail, 5-worker panels over the whole candidate set.  Expected shape:
inference cuts a substantial share of majority-vote errors and lifts ACD's
F1, at zero extra crowdsourcing cost.
"""

import pytest

from repro.core.acd import run_acd
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.truth_inference import dawid_skene
from repro.crowd.worker import DifficultyModel
from repro.crowd.workforce import Workforce, WorkforceAnswerFile
from repro.eval.metrics import f1_score
from repro.experiments.configs import difficulty_model
from repro.experiments.tables import format_table

from common import REPETITIONS, emit, instance


def run_comparison_of_aggregators():
    inst = instance("restaurant", "3w")
    gold = inst.dataset.gold
    pairs = list(inst.candidates.pairs)
    workforce = Workforce(size=400, reliability_alpha=4.0,
                          reliability_beta=1.6, seed=31)
    votes_source = WorkforceAnswerFile(
        gold, workforce, difficulty_model("restaurant"), panel_size=5,
    )
    votes_source.prefetch(pairs)

    inferred = ScriptedAnswers(dawid_skene(votes_source.all_votes()).posteriors,
                               num_workers=5)

    def error_rate(answers):
        return sum(
            1 for pair in pairs
            if answers.majority_duplicate(*pair) != gold.is_duplicate(*pair)
        ) / len(pairs)

    def mean_f1(answers):
        total = 0.0
        for repetition in range(REPETITIONS):
            result = run_acd(inst.record_ids, inst.candidates, answers,
                             seed=600 + repetition)
            total += f1_score(result.clustering, gold)
        return total / REPETITIONS

    return {
        "majority vote": (error_rate(votes_source), mean_f1(votes_source)),
        "dawid-skene": (error_rate(inferred), mean_f1(inferred)),
    }


def test_ext_truth_inference(benchmark):
    rows = benchmark.pedantic(run_comparison_of_aggregators,
                              rounds=1, iterations=1)
    emit("ext_truth_inference_restaurant", format_table(
        ["aggregator", "answer error", "ACD F1"],
        [[name, f"{error:.2%}", f"{f1:.3f}"]
         for name, (error, f1) in rows.items()],
    ))
    majority_error, majority_f1 = rows["majority vote"]
    inferred_error, inferred_f1 = rows["dawid-skene"]
    assert inferred_error < majority_error
    assert inferred_f1 >= majority_f1 - 0.01

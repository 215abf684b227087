"""Extension experiment: what PC-Refine's batching buys over Crowd-Refine.

Section 5.4 motivates PC-Refine by the sequential Crowd-Refine's crowd
round count (one operation's pairs per round).  The paper never charts this
directly; this bench does: both refiners run from identical PC-Pivot
outputs on the Paper dataset, and we report refinement-phase crowd
iterations, refinement pairs, and final F1.  Expected shape: equal-quality
clusterings, with PC-Refine needing several times fewer crowd rounds.
"""

import pytest

from repro.core.generation import pc_pivot
from repro.core.pc_refine import pc_refine
from repro.core.refine import crowd_refine
from repro.crowd.oracle import CrowdOracle
from repro.eval.metrics import f1_score
from repro.experiments.tables import format_table

from common import REPETITIONS, emit, instance


def run_both():
    inst = instance("paper", "3w")
    totals = {
        "Crowd-Refine": [0.0, 0.0, 0.0],
        "PC-Refine": [0.0, 0.0, 0.0],
    }
    for repetition in range(REPETITIONS):
        seed = 300 + repetition
        for name in totals:
            oracle = CrowdOracle(inst.answers)
            clustering = pc_pivot(inst.record_ids, inst.candidates, oracle,
                                  epsilon=0.1, seed=seed)
            generation_iterations = oracle.stats.iterations
            generation_pairs = oracle.stats.pairs_issued
            if name == "PC-Refine":
                refined = pc_refine(clustering, inst.candidates, oracle,
                                    num_records=len(inst.dataset))
            else:
                refined = crowd_refine(clustering, inst.candidates, oracle)
            totals[name][0] += oracle.stats.iterations - generation_iterations
            totals[name][1] += oracle.stats.pairs_issued - generation_pairs
            totals[name][2] += f1_score(refined, inst.dataset.gold)
    return {
        name: tuple(value / REPETITIONS for value in values)
        for name, values in totals.items()
    }


def test_ext_parallel_refinement(benchmark):
    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit("ext_parallel_refine_paper", format_table(
        ["refiner", "refine iterations", "refine pairs", "final F1"],
        [[name, f"{iters:.1f}", f"{pairs:.0f}", f"{f1:.3f}"]
         for name, (iters, pairs, f1) in rows.items()],
    ))
    sequential = rows["Crowd-Refine"]
    parallel = rows["PC-Refine"]
    # Same quality regime...
    assert abs(sequential[2] - parallel[2]) < 0.05
    # ...with far fewer crowd rounds for the batched refiner.
    assert parallel[0] < sequential[0] / 2

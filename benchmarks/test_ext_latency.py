"""Extension experiment: crowd iterations translated into wall-clock time.

The paper motivates PC-Pivot/PC-Refine by crowdsourcing *latency* — each
iteration posts HITs and waits — but reports only iteration counts.  This
bench runs sequential Crowd-Pivot and PC-Pivot (ε = 0.1) on the Restaurant
dataset, replays their per-iteration batch sizes through the
:class:`~repro.crowd.latency.LatencyModel` (AMT-like timing: 20-pair HITs,
3 assignments each, a pool of concurrent workers, ~90 s per HIT), and
reports simulated hours.

Expected shape: PC-Pivot's wall-clock advantage is of the same order as its
iteration advantage, because per-batch completion time is dominated by the
posting overhead and the last straggler, not by batch size.
"""

import pytest

from repro.core.generation import crowd_pivot
from repro.core.generation import pc_pivot
from repro.crowd.latency import LatencyModel, format_duration
from repro.crowd.oracle import CrowdOracle
from repro.crowd.stats import CrowdStats
from repro.experiments.tables import format_table

from common import REPETITIONS, emit, instance


def run_both():
    inst = instance("restaurant", "3w")
    model = LatencyModel(pairs_per_hit=inst.setting.pairs_per_hit,
                         num_workers=inst.setting.num_workers,
                         concurrent_workers=10, seed=17)
    totals = {"Crowd-Pivot": [0.0, 0.0], "PC-Pivot (eps=0.1)": [0.0, 0.0]}
    for repetition in range(REPETITIONS):
        seed = 500 + repetition
        for name in totals:
            stats = CrowdStats(pairs_per_hit=inst.setting.pairs_per_hit,
                               num_workers=inst.setting.num_workers)
            oracle = CrowdOracle(inst.answers, stats=stats)
            if name.startswith("PC"):
                pc_pivot(inst.record_ids, inst.candidates, oracle,
                         epsilon=0.1, seed=seed)
            else:
                crowd_pivot(inst.record_ids, inst.candidates, oracle,
                            seed=seed)
            totals[name][0] += stats.iterations
            totals[name][1] += model.total_seconds(stats.batch_sizes)
    return {
        name: (iters / REPETITIONS, seconds / REPETITIONS)
        for name, (iters, seconds) in totals.items()
    }


def test_ext_latency(benchmark):
    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit("ext_latency_restaurant", format_table(
        ["algorithm", "crowd iterations", "simulated wall clock"],
        [[name, f"{iters:.1f}", format_duration(seconds)]
         for name, (iters, seconds) in rows.items()],
    ))
    sequential_iters, sequential_seconds = rows["Crowd-Pivot"]
    parallel_iters, parallel_seconds = rows["PC-Pivot (eps=0.1)"]
    # The latency advantage tracks the iteration advantage.
    assert parallel_seconds < sequential_seconds / 2
    iteration_speedup = sequential_iters / parallel_iters
    latency_speedup = sequential_seconds / parallel_seconds
    assert latency_speedup > iteration_speedup / 4

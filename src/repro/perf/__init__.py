"""Benchmark meters (peak RSS, throughputs) and the machine-readable
``BENCH_*.json`` emitters the benchmark harness regresses against.
Stage durations are :mod:`repro.obs` spans.
"""

from repro.perf.timing import (
    StageTimings,
    bench_payload,
    read_bench_json,
    run_entry,
    stage_seconds,
    write_bench_json,
)

__all__ = [
    "StageTimings",
    "bench_payload",
    "read_bench_json",
    "run_entry",
    "stage_seconds",
    "write_bench_json",
]

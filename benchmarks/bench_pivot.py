"""Pivot-phase benchmark: the incremental PC-Pivot loop ("fast") vs the
per-round re-derivation oracle in ``repro.reference`` ("reference").

Runs the generation phase (PC-Pivot) on every dataset under both pivot
engines and compares the machine-side work: wall-clock seconds, rounds,
and issued pairs.  The crowd answers are pre-populated by an untimed
warm-up run, so the timings measure the per-round graph/permutation work
the fast engine eliminates, not worker-answer synthesis.  Asserts
byte-identical clusterings, issued-pair counts, and per-round diagnostics
across engines while it is at it, then writes ``BENCH_pivot.json`` at the
repo root in the shared BENCH schema.

The stage table is the span rollup of a harness-only
:class:`~repro.obs.ObsContext`: a ``total`` span around the repetitions,
one ``pivot`` span around each engine call.  The engines themselves
run untraced (they never receive that context), on both sides of the
A/B.

Standalone (no pytest)::

    REPRO_BENCH_SCALE=1.0 python benchmarks/bench_pivot.py

Environment knobs:
    REPRO_BENCH_SCALE     dataset scale (default 1.0)
    REPRO_BENCH_SEED      dataset/pivot seed (default 1)
    REPRO_BENCH_REPS      timed repetitions per engine (default 3)
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.pc_pivot import PCPivotDiagnostics, pc_pivot  # noqa: E402
from repro.crowd.oracle import CrowdOracle  # noqa: E402
from repro.crowd.stats import CrowdStats  # noqa: E402
from repro.experiments.runner import prepare_instance  # noqa: E402
from repro.obs import ObsContext  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    bench_payload,
    run_entry,
    stage_seconds,
    write_bench_json,
)
from repro.reference import pc_pivot as reference_pc_pivot  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
SETTING = "3w"
DATASETS = ("paper", "restaurant", "product")
OUTPUT = REPO_ROOT / "BENCH_pivot.json"

#: The two PC-Pivot implementations under comparison: the production loop
#: ("fast") and the per-round re-derivation oracle ("reference").
ENGINES = {"fast": pc_pivot, "reference": reference_pc_pivot}


def _run_engine(instance, engine: str, reps: int = 1):
    """``reps`` timed generation passes; returns (stage table, diagnostics
    of the last pass, clustering, pairs_issued of one pass)."""
    harness = ObsContext()
    with harness.span("total"):
        for _ in range(reps):
            stats = CrowdStats(
                pairs_per_hit=instance.setting.pairs_per_hit,
                reward_cents_per_hit=instance.setting.reward_cents_per_hit,
                num_workers=instance.setting.num_workers,
            )
            oracle = CrowdOracle(instance.answers, stats=stats)
            diagnostics = PCPivotDiagnostics()
            with harness.span("pivot"):
                clustering = ENGINES[engine](
                    instance.record_ids, instance.candidates, oracle,
                    seed=SEED, diagnostics=diagnostics,
                )
    return (harness.tracer.span_summaries(), diagnostics, clustering,
            stats.pairs_issued)


def main() -> int:
    runs = {}
    speedups = []
    ref_total = 0.0
    fast_total = 0.0
    for dataset_name in DATASETS:
        instance = prepare_instance(dataset_name, SETTING, scale=SCALE,
                                    seed=SEED)
        # Untimed warm-up: populate the lazy answer file so neither engine
        # is billed for first-ask worker-answer generation.
        _run_engine(instance, "reference")
        per_engine = {}
        for engine in ENGINES:
            stages, diagnostics, clustering, pairs = _run_engine(
                instance, engine, reps=REPS
            )
            per_engine[engine] = (stage_seconds(stages), diagnostics,
                                  clustering, pairs)
            runs[f"{dataset_name}/{engine}"] = run_entry(
                stages,
                records=len(instance.record_ids),
                candidate_pairs=len(instance.candidates),
                reps=REPS,
                rounds=diagnostics.rounds,
                ks=diagnostics.ks,
                predicted_waste=diagnostics.total_predicted_waste,
                pairs_issued=pairs,
            )

        fast = per_engine["fast"]
        reference = per_engine["reference"]
        # The engines must be interchangeable, not just fast.
        assert fast[2].as_sets() == reference[2].as_sets(), dataset_name
        assert fast[3] == reference[3], dataset_name
        for attr in ("ks", "predicted_waste", "issued_per_round"):
            assert getattr(fast[1], attr) == getattr(reference[1], attr), \
                f"{dataset_name}: diagnostics.{attr} diverged"

        ref_seconds = reference[0]["pivot"]
        fast_seconds = max(1e-9, fast[0]["pivot"])
        speedup = ref_seconds / fast_seconds
        ref_total += ref_seconds
        fast_total += fast_seconds
        speedups.append(speedup)
        print(
            f"{dataset_name}: pivot {ref_seconds:.3f}s -> "
            f"{fast_seconds:.3f}s ({speedup:.1f}x) over {REPS} reps, "
            f"{fast[1].rounds} rounds, {fast[3]} pairs issued"
        )

    payload = bench_payload(
        "pivot",
        config={"scale": SCALE, "seed": SEED, "reps": REPS,
                "setting": SETTING, "datasets": list(DATASETS),
                "engines": list(ENGINES)},
        runs=runs,
        derived={
            "pivot_speedup_overall": round(
                ref_total / max(1e-9, fast_total), 2
            ),
            "pivot_speedup_min": round(min(speedups), 2),
            "pivot_speedup_median": round(statistics.median(speedups), 2),
        },
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Refine-phase benchmark: the incremental PC-Refine loop ("fast") vs the
full-re-evaluation oracle in ``repro.reference`` ("reference").

Runs the generation phase once per dataset/engine (identical by
construction — the engines only diverge inside PC-Refine), then times the
refinement phase under both engines and compares the work they performed:
wall-clock seconds, benefit/cost derivations (`operation_evaluations`), and
the fast engine's cache hit rate.  Asserts byte-identical outcomes while
it is at it, then writes ``BENCH_refine.json`` at the repo root in the
shared BENCH schema.

Each run also records the engine's *internal* stage split
(``refine.free`` / ``refine.evaluate`` / ``refine.pack`` /
``refine.crowd`` / ``refine.apply``) and the derived block aggregates it
into per-engine ``stage_share_*`` fractions.  That breakdown is how to
read a near-1x (or sub-1x, e.g. restaurant) wall-clock speedup next to a
large evaluation reduction: the fast engine's time is dominated by the
free-operation pass (``refine.free`` — where its incremental caches are
*maintained* via the apply hooks), while the reference engine's is
dominated by ``refine.evaluate`` (where benefits are recomputed from
scratch).  The 2-4x evaluation reduction only attacks the evaluate
share, so on a dataset where the free pass is most of the work the
wall-clock ratio can dip below 1 even though far less evaluation work
was done.  Evaluation reduction and cache hit rate, not wall clock, are
the signal at paper scale; the wall-clock win appears once the
candidate graph is large enough for evaluation to dominate
(``benchmarks/bench_scale.py``).

Standalone (no pytest)::

    REPRO_BENCH_SCALE=0.5 python benchmarks/bench_refine.py

Environment knobs:
    REPRO_BENCH_SCALE     dataset scale (default 0.5)
    REPRO_BENCH_SEED      dataset/pivot seed (default 1)
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.pc_pivot import pc_pivot  # noqa: E402
from repro.core.pc_refine import PCRefineDiagnostics, pc_refine  # noqa: E402
from repro.crowd.oracle import CrowdOracle  # noqa: E402
from repro.crowd.stats import CrowdStats  # noqa: E402
from repro.experiments.runner import prepare_instance  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    StageTimings,
    bench_payload,
    run_entry,
    write_bench_json,
)
from repro.reference import pc_refine as reference_pc_refine  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
SETTING = "3w"
DATASETS = ("paper", "restaurant", "product")
OUTPUT = REPO_ROOT / "BENCH_refine.json"

#: The two PC-Refine implementations under comparison: the production
#: loop ("fast") and the full-re-evaluation oracle ("reference").
ENGINES = {"fast": pc_refine, "reference": reference_pc_refine}

#: The engines' internal phases, in execution order (see
#: ``repro.core.pc_refine``).  ``refine.free`` / ``refine.apply`` are
#: bookkeeping, ``refine.evaluate`` / ``refine.pack`` are the benefit
#: derivations the fast engine attacks, ``refine.crowd`` is simulated
#: worker latency — identical for both engines by construction.
REFINE_STAGES = ("refine.free", "refine.evaluate", "refine.pack",
                 "refine.crowd", "refine.apply")


def _run_engine(instance, engine: str):
    """One generation + refinement pass; returns (timings, diagnostics,
    clustering, pairs_issued)."""
    stats = CrowdStats(
        pairs_per_hit=instance.setting.pairs_per_hit,
        reward_cents_per_hit=instance.setting.reward_cents_per_hit,
        num_workers=instance.setting.num_workers,
    )
    oracle = CrowdOracle(instance.answers, stats=stats)
    timings = StageTimings()
    with timings.stage("generation"):
        clustering = pc_pivot(instance.record_ids, instance.candidates,
                              oracle, seed=SEED)
    diagnostics = PCRefineDiagnostics()
    with timings.stage("refine"):
        ENGINES[engine](clustering, instance.candidates, oracle,
                        num_records=len(instance.record_ids),
                        diagnostics=diagnostics, timings=timings)
    # The refine.* sub-stages above accumulate inside the "refine" stage,
    # so the implicit sum-of-stages total would double-count them — pin
    # the total to the two top-level phases explicitly.
    timings.add("total",
                timings.seconds("generation") + timings.seconds("refine"))
    return timings, diagnostics, clustering, stats.pairs_issued


def main() -> int:
    runs = {}
    reductions = []
    speedups = []
    hit_rates = []
    total_ref_evals = 0
    total_fast_evals = 0
    stage_seconds = {engine: {stage: 0.0 for stage in REFINE_STAGES}
                     for engine in ENGINES}
    refine_seconds = {engine: 0.0 for engine in ENGINES}
    for dataset_name in DATASETS:
        instance = prepare_instance(dataset_name, SETTING, scale=SCALE,
                                    seed=SEED)
        # Untimed warm-up: populate the lazy answer file so neither engine
        # is billed for first-ask worker-answer generation.
        _run_engine(instance, "reference")
        per_engine = {}
        for engine in ENGINES:
            timings, diagnostics, clustering, pairs = _run_engine(
                instance, engine
            )
            per_engine[engine] = (timings, diagnostics, clustering, pairs)
            meta = {
                "records": len(instance.record_ids),
                "candidate_pairs": len(instance.candidates),
                "rounds": diagnostics.rounds,
                "operations_evaluated": diagnostics.operation_evaluations,
                "free_operations": diagnostics.free_operations_applied,
                "pairs_issued": pairs,
            }
            if diagnostics.evaluation_cache is not None:
                meta["cache"] = diagnostics.evaluation_cache
            runs[f"{dataset_name}/{engine}"] = run_entry(timings, **meta)
            for stage in REFINE_STAGES:
                stage_seconds[engine][stage] += timings.seconds(stage)
            refine_seconds[engine] += timings.seconds("refine")

        fast = per_engine["fast"]
        reference = per_engine["reference"]
        # The engines must be interchangeable, not just fast.
        assert fast[2].as_sets() == reference[2].as_sets(), dataset_name
        assert fast[3] == reference[3], dataset_name

        ref_evals = reference[1].operation_evaluations
        fast_evals = max(1, fast[1].operation_evaluations)
        reduction = ref_evals / fast_evals
        ref_seconds = reference[0].seconds("refine")
        fast_seconds = max(1e-9, fast[0].seconds("refine"))
        speedup = ref_seconds / fast_seconds
        hit_rate = fast[1].evaluation_cache["hit_rate"]
        total_ref_evals += ref_evals
        total_fast_evals += fast_evals
        reductions.append(reduction)
        speedups.append(speedup)
        hit_rates.append(hit_rate)
        print(
            f"{dataset_name}: refine {ref_seconds:.3f}s -> "
            f"{fast_seconds:.3f}s ({speedup:.1f}x), evaluations "
            f"{ref_evals} -> {fast[1].operation_evaluations} "
            f"({reduction:.1f}x), hit rate {hit_rate:.2%}"
        )

    derived = {
        "evaluation_reduction_overall": round(
            total_ref_evals / max(1, total_fast_evals), 2
        ),
        "evaluation_reduction_min": round(min(reductions), 2),
        "evaluation_reduction_median": round(
            statistics.median(reductions), 2
        ),
        "refine_speedup_median": round(statistics.median(speedups), 2),
        "cache_hit_rate_mean": round(
            sum(hit_rates) / len(hit_rates), 4
        ),
    }
    # Per-engine stage shares of total refine wall time, summed across
    # datasets.  These explain a near-1x refine_speedup_median: the
    # evaluation reduction only shrinks stage_share_evaluate +
    # stage_share_pack, so when another stage (typically refine.free,
    # which also carries the fast engine's cache maintenance) dominates,
    # wall clock barely moves no matter how many evaluations were saved.
    for engine in ENGINES:
        total = max(1e-9, refine_seconds[engine])
        for stage in REFINE_STAGES:
            short = stage.split(".", 1)[1]
            derived[f"stage_share_{short}_{engine}"] = round(
                stage_seconds[engine][stage] / total, 4
            )
        print(
            f"{engine} refine stage shares: " + ", ".join(
                f"{stage.split('.', 1)[1]} "
                f"{stage_seconds[engine][stage] / total:.0%}"
                for stage in REFINE_STAGES
            )
        )

    payload = bench_payload(
        "refine",
        config={"scale": SCALE, "seed": SEED, "setting": SETTING,
                "datasets": list(DATASETS), "engines": list(ENGINES)},
        runs=runs,
        derived=derived,
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

The stage table is a span rollup.  The refinement engine runs with an
in-memory :class:`~repro.obs.ObsContext`, so its ``refine.*`` stages are
its own spans; the harness adds ``total``, ``generation`` and
``refine`` spans on the same context (generation itself runs untraced).
Both engines of the A/B therefore include the same in-memory tracing.
Each engine runs ``REPEATS`` times per dataset, alternating with the
other, after a ``gc.collect()``; a run's ``stages`` are the per-stage
medians and ``stages_iqr`` their interquartile ranges, and every repeat
must report the same counts.

Standalone (no pytest)::

    REPRO_BENCH_SCALE=0.5 python benchmarks/bench_refine.py

Environment knobs:
    REPRO_BENCH_SCALE     dataset scale (default 0.5)
    REPRO_BENCH_SEED      dataset/pivot seed (default 1)
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.generation import pc_pivot  # noqa: E402
from repro.core.pc_refine import PCRefineDiagnostics, pc_refine  # noqa: E402
from repro.crowd.oracle import CrowdOracle  # noqa: E402
from repro.crowd.stats import CrowdStats  # noqa: E402
from repro.experiments.runner import prepare_instance  # noqa: E402
from repro.obs import ObsContext  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    bench_payload,
    stage_seconds,
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

#: Timed runs per dataset and engine.  A stage's seconds are their median,
#: with the interquartile range in ``stages_iqr``: one sample cannot show
#: a stage gain on a host whose speed drifts.
REPEATS = 5


def _run_engine(instance, engine: str):
    """One generation + refinement pass; returns (stage table,
    diagnostics, clustering, pairs_issued)."""
    stats = CrowdStats(
        pairs_per_hit=instance.setting.pairs_per_hit,
        reward_cents_per_hit=instance.setting.reward_cents_per_hit,
        num_workers=instance.setting.num_workers,
    )
    oracle = CrowdOracle(instance.answers, stats=stats)
    obs = ObsContext()
    diagnostics = PCRefineDiagnostics()
    with obs.span("total"):
        with obs.span("generation"):
            clustering = pc_pivot(instance.record_ids, instance.candidates,
                                  oracle, seed=SEED)
        with obs.span("refine"):
            ENGINES[engine](clustering, instance.candidates, oracle,
                            num_records=len(instance.record_ids),
                            diagnostics=diagnostics, obs=obs)
    return (obs.tracer.span_summaries(), diagnostics, clustering,
            stats.pairs_issued)


def _median_and_iqr(tables):
    """Per-stage median and interquartile range of repeated stage
    tables."""
    medians, spreads = {}, {}
    for stage in tables[0]:
        low, middle, high = statistics.quantiles(
            [table[stage] for table in tables], n=4, method="inclusive")
        medians[stage] = middle
        spreads[stage] = high - low
    return medians, spreads


def main() -> int:
    runs = {}
    reductions = []
    speedups = []
    hit_rates = []
    total_ref_evals = 0
    total_fast_evals = 0
    refine_stage_seconds = {engine: dict.fromkeys(REFINE_STAGES, 0.0)
                            for engine in ENGINES}
    refine_seconds = {engine: 0.0 for engine in ENGINES}
    for dataset_name in DATASETS:
        instance = prepare_instance(dataset_name, SETTING, scale=SCALE,
                                    seed=SEED)
        # Untimed warm-up: populate the lazy answer file so neither engine
        # is billed for first-ask worker-answer generation.
        _run_engine(instance, "reference")
        # The engines alternate within each repeat, so a drift in host
        # speed bills both alike.
        samples = {engine: [] for engine in ENGINES}
        for _ in range(REPEATS):
            for engine in ENGINES:
                # Collect first, so a cyclic-GC pass left over from the
                # previous sample does not land inside this one.
                gc.collect()
                samples[engine].append(_run_engine(instance, engine))
        per_engine = {}
        for engine in ENGINES:
            _, diagnostics, clustering, pairs = samples[engine][0]
            seconds, spread = _median_and_iqr(
                [stage_seconds(stages) for stages, *_ in samples[engine]])
            per_engine[engine] = (seconds, diagnostics, clustering, pairs)
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
            # Every repeat does the same work: only the clock may differ.
            for _, other, other_clustering, other_pairs in samples[engine]:
                assert other.to_state() == diagnostics.to_state(), engine
                assert other_clustering.as_sets() == clustering.as_sets()
                assert other_pairs == pairs
            runs[f"{dataset_name}/{engine}"] = {
                "stages": seconds, "stages_iqr": spread, "meta": meta,
            }
            for stage in REFINE_STAGES:
                refine_stage_seconds[engine][stage] += seconds.get(stage, 0.0)
            refine_seconds[engine] += seconds["refine"]

        fast = per_engine["fast"]
        reference = per_engine["reference"]
        # The engines must be interchangeable, not just fast.
        assert fast[2].as_sets() == reference[2].as_sets(), dataset_name
        assert fast[3] == reference[3], dataset_name

        ref_evals = reference[1].operation_evaluations
        fast_evals = max(1, fast[1].operation_evaluations)
        reduction = ref_evals / fast_evals
        ref_seconds = reference[0]["refine"]
        fast_seconds = max(1e-9, fast[0]["refine"])
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
                refine_stage_seconds[engine][stage] / total, 4
            )
        print(
            f"{engine} refine stage shares: " + ", ".join(
                f"{stage.split('.', 1)[1]} "
                f"{refine_stage_seconds[engine][stage] / total:.0%}"
                for stage in REFINE_STAGES
            )
        )

    payload = bench_payload(
        "refine",
        config={"scale": SCALE, "seed": SEED, "setting": SETTING,
                "datasets": list(DATASETS), "engines": list(ENGINES),
                "repeats": REPEATS},
        runs=runs,
        derived=derived,
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark: pruning + full ACD run per dataset.

Times the two phases the fast-path work targets — candidate generation
(``pruning``) and the crowd pipeline that consumes it (``acd``) — and
writes ``BENCH_endtoend.json`` at the repo root in the shared BENCH schema.

Standalone (no pytest)::

    REPRO_BENCH_SCALE=0.3 python benchmarks/bench_endtoend.py

Stage tables are span rollups of a harness-only
:class:`~repro.obs.ObsContext`: each stage is a harness span around a
call that never receives that context, so every timed run (both sides
of each makespan A/B) stays untraced — except ``acd_traced``, which
streams its own trace to disk to measure the tracing overhead.

The ``acd_reference`` stage swaps PC-Refine for its full-re-evaluation
oracle and ``acd_pivot_reference`` swaps PC-Pivot for its per-round
re-derivation oracle (both from ``repro.reference``); each asserts the
same pairs and F1 as the ``acd`` stage, and the deltas are the
incremental loops' end-to-end wins.

Environment knobs:
    REPRO_BENCH_SCALE          dataset scale (default 1.0)
    REPRO_BENCH_PARALLEL       pruning worker processes (default 0)
    REPRO_BENCH_STAGES         comma list of stage groups to run:
                               ``classic`` (the per-dataset stages above),
                               ``pipelined`` (the makespan comparison
                               below), or both (the default)
    REPRO_BENCH_PIPELINE_RECORDS    pipelined-stage record count
                                    (default 100000)
    REPRO_BENCH_PIPELINE_LATENCY    simulated crowd-round latency in
                                    seconds (default 0.002; must be > 0
                                    for an honest makespan)
    REPRO_BENCH_PIPELINE_WORKERS    shared-pool worker processes
                                    (default 8)
    REPRO_BENCH_PIPELINE_SHARDS     pruning shards (default 32)
    REPRO_BENCH_PIPELINE_CONFUSION  largescale confusion rate
                                    (default 0.25 — the heavier crowd
                                    workload widens the overlap window
                                    the pipeline exploits)

The ``pipelined`` stage times the same 100k-tier largescale workload
twice under an identical simulated crowd-latency model — barrier
execution (the full pruning join, then the pre-pruned ``run_pipeline``
on the same pool size) vs the component-streaming pipeline that starts
pivot components while pruning still runs — asserts the outputs
byte-identical, and
emits ``pipeline_makespan_speedup`` (barrier / pipelined wall-clock) and
``pipeline_overlap_efficiency`` (the fraction of the shorter
overlappable phase the pipeline actually hid).
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import in_fork  # noqa: E402
from repro.core.pc_pivot import pc_pivot  # noqa: E402
from repro.core.pc_refine import pc_refine  # noqa: E402
from repro.eval.metrics import pairwise_scores  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ACD_METHOD,
    prepare_instance,
    run_method,
)
from repro.obs import ObsContext  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    StageTimings,
    bench_payload,
    run_entry,
    stage_seconds,
    write_bench_json,
)
from repro.reference import run_acd as reference_acd  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
PARALLEL = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
SEED = 1
SETTING = "3w"
DATASETS = ("paper", "restaurant", "product")
OUTPUT = REPO_ROOT / "BENCH_endtoend.json"
STAGES = tuple(
    part.strip()
    for part in os.environ.get("REPRO_BENCH_STAGES",
                               "classic,pipelined").split(",")
    if part.strip()
)
PIPELINE_RECORDS = int(os.environ.get("REPRO_BENCH_PIPELINE_RECORDS",
                                      "100000"))
PIPELINE_LATENCY = float(os.environ.get("REPRO_BENCH_PIPELINE_LATENCY",
                                        "0.002"))
PIPELINE_WORKERS = int(os.environ.get("REPRO_BENCH_PIPELINE_WORKERS", "8"))
PIPELINE_SHARDS = int(os.environ.get("REPRO_BENCH_PIPELINE_SHARDS", "32"))
PIPELINE_CONFUSION = float(os.environ.get("REPRO_BENCH_PIPELINE_CONFUSION",
                                          "0.25"))


def pipelined_stage(runs: dict) -> dict:
    """Barrier vs pipelined makespan under one crowd-latency model."""
    from repro.crowd.cache import AnswerFile
    from repro.crowd.latency import SimulatedLatencyAnswers
    from repro.crowd.worker import WorkerPool
    from repro.datasets.registry import generate
    from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
    from repro.pruning.candidate import build_candidate_set
    from repro.runtime.pipeline import run_pipeline
    from repro.similarity.composite import jaccard_similarity_function

    dataset = generate("largescale", scale=PIPELINE_RECORDS / 10_000,
                       seed=SEED, confusion=PIPELINE_CONFUSION)
    crowd = WorkerPool(difficulty=difficulty_model("largescale"),
                       num_workers=3)

    def latency_answers():
        # Fresh per run: AnswerFile resolves each pair from a pair-seeded
        # RNG, so both executions see byte-identical crowd answers; the
        # wrapper makes each worker-side crowd round cost real wall-clock.
        return SimulatedLatencyAnswers(AnswerFile(dataset.gold, crowd),
                                       PIPELINE_LATENCY)

    def barrier_side():
        harness, meters = ObsContext(), StageTimings()
        with harness.span("barrier_pruning"):
            candidates = build_candidate_set(
                dataset.records, jaccard_similarity_function(),
                threshold=PRUNING_THRESHOLD, shards=PIPELINE_SHARDS,
                parallel=PIPELINE_WORKERS,
            )
        with harness.span("barrier_acd"):
            barrier = run_pipeline(
                latency_answers(), record_ids=dataset.record_ids,
                candidates=candidates, seed=SEED,
                workers=PIPELINE_WORKERS,
            ).result
        meters.record_peak_rss("barrier_peak_rss_bytes")
        return (harness.tracer.span_summaries(), meters,
                (candidates.pairs, barrier.clustering.to_state(),
                 barrier.stats.snapshot(), list(barrier.stats.batch_sizes)))

    def pipelined_side():
        harness, meters = ObsContext(), StageTimings()
        with harness.span("pipelined"):
            piped = run_pipeline(
                latency_answers(), records=dataset.records,
                similarity=jaccard_similarity_function(),
                threshold=PRUNING_THRESHOLD,
                pruning_shards=PIPELINE_SHARDS,
                workers=PIPELINE_WORKERS, seed=SEED, timings=meters,
            )
        meters.record_peak_rss()
        meta = dict(candidate_pairs=len(piped.candidates),
                    clusters=len(piped.result.clustering),
                    pool=piped.report.as_dict())
        return (harness.tracer.span_summaries(), meters,
                (piped.candidates.pairs,
                 piped.result.clustering.to_state(),
                 piped.result.stats.snapshot(),
                 list(piped.result.stats.batch_sizes)), meta)

    barrier_stages, barrier_meters, barrier_fp = in_fork(barrier_side)
    piped_stages, piped_meters, piped_fp, piped_meta = in_fork(
        pipelined_side)

    assert piped_fp[0] == barrier_fp[0], \
        "pipelined pruning must match the barrier candidate set"
    assert piped_fp[1] == barrier_fp[1], \
        "pipelined clustering must be byte-identical to barrier"
    assert piped_fp[2] == barrier_fp[2], \
        "pipelined crowd stats must be byte-identical to barrier"
    assert piped_fp[3] == barrier_fp[3], \
        "pipelined crowd rounds must be byte-identical to barrier"

    stages = barrier_stages + piped_stages
    meters = StageTimings()
    for name, value in {**barrier_meters.meters,
                        **piped_meters.meters}.items():
        meters.set_meter(name, value)

    seconds = stage_seconds(stages)
    prune_s = seconds["barrier_pruning"]
    acd_s = seconds["barrier_acd"]
    barrier_s = prune_s + acd_s
    pipelined_s = seconds["pipelined"]
    speedup = barrier_s / pipelined_s if pipelined_s > 0 else 1.0
    # The pipeline can hide at most the shorter of the two phases it
    # overlaps (pruning compute vs the crowd phases); efficiency is the
    # fraction of that bound it actually hid.
    hidable = min(prune_s, acd_s)
    efficiency = ((barrier_s - pipelined_s) / hidable
                  if hidable > 0 else 0.0)
    runs["pipelined"] = run_entry(
        stages, meters,
        records=len(dataset.record_ids),
        workers=PIPELINE_WORKERS,
        pruning_shards=PIPELINE_SHARDS,
        round_latency_s=PIPELINE_LATENCY,
        confusion=PIPELINE_CONFUSION,
        **piped_meta,
    )
    print(f"pipelined: barrier {barrier_s:.3f}s "
          f"(pruning {prune_s:.3f}s + acd {acd_s:.3f}s), "
          f"pipelined {pipelined_s:.3f}s, speedup {speedup:.2f}x, "
          f"overlap efficiency {efficiency:.2f}")
    return {
        "pipeline_makespan_speedup": round(speedup, 2),
        "pipeline_overlap_efficiency": round(efficiency, 2),
    }


def _acd_with_oracle(instance, **phase):
    """ACD with one phase swapped for its ``repro.reference`` oracle;
    returns ``(pairs_issued, f1)`` as ``run_method`` measures them."""
    clustering, stats = reference_acd(
        instance.record_ids, instance.candidates, instance.answers,
        seed=SEED, pairs_per_hit=instance.setting.pairs_per_hit, **phase)
    return (float(stats.pairs_issued),
            pairwise_scores(clustering, instance.dataset.gold).f1)


def main() -> int:
    runs = {}
    plain_total = 0.0
    traced_total = 0.0
    reference_total = 0.0
    pivot_reference_total = 0.0
    for dataset_name in (DATASETS if "classic" in STAGES else ()):
        harness, meters = ObsContext(), StageTimings()
        with harness.span("total"), harness.span("pruning"):
            instance = prepare_instance(
                dataset_name, SETTING, scale=SCALE, seed=SEED,
                parallel=PARALLEL,
            )
        # Untimed warm-up: the first run populates the lazy answer file,
        # which would otherwise be billed to whichever stage runs first.
        run_method(ACD_METHOD, instance, seed=SEED)
        with harness.span("total"):
            with harness.span("acd"):
                result = run_method(ACD_METHOD, instance, seed=SEED)
            # The same pipeline under the full-re-evaluation refinement
            # oracle: the delta is the incremental PC-Refine's end-to-end
            # win.
            with harness.span("acd_reference"):
                reference = _acd_with_oracle(instance, generation=pc_pivot)
            assert reference == (result.pairs_issued, result.f1), \
                "the refinement oracle must agree"
            # And under the per-round re-derivation pivot oracle: the delta
            # is the incremental pivot order's end-to-end win.
            with harness.span("acd_pivot_reference"):
                pivot_reference = _acd_with_oracle(instance,
                                                   refinement=pc_refine)
            assert pivot_reference == (result.pairs_issued, result.f1), \
                "the pivot oracle must agree"
            # Same run again under full observability (spans + metrics +
            # JSONL stream to disk) — the delta is the tracing overhead.
            with tempfile.TemporaryDirectory() as tmpdir:
                with harness.span("acd_traced"):
                    with ObsContext.to_path(
                            Path(tmpdir) / "bench.trace.jsonl") as obs:
                        traced = run_method(ACD_METHOD, instance, seed=SEED,
                                            obs=obs)
        assert traced.pairs_issued == result.pairs_issued, \
            "tracing must not perturb the run"
        stages = harness.tracer.span_summaries()
        seconds = stage_seconds(stages)
        plain_total += seconds["acd"]
        traced_total += seconds["acd_traced"]
        reference_total += seconds["acd_reference"]
        pivot_reference_total += seconds["acd_pivot_reference"]
        meters.record_throughput("pruning_records_per_second",
                                 len(instance.record_ids), seconds["pruning"])
        meters.record_peak_rss()
        runs[dataset_name] = run_entry(
            stages, meters,
            records=len(instance.record_ids),
            candidate_pairs=len(instance.candidates),
            f1=round(result.f1, 4),
            pairs_issued=result.pairs_issued,
        )
        print(
            f"{dataset_name}: pruning {seconds['pruning']:.3f}s, "
            f"acd {seconds['acd']:.3f}s, "
            f"reference {seconds['acd_reference']:.3f}s, "
            f"pivot-reference {seconds['acd_pivot_reference']:.3f}s, "
            f"traced {seconds['acd_traced']:.3f}s, "
            f"F1 {result.f1:.3f}"
        )

    derived = {}
    if "classic" in STAGES:
        overhead_pct = ((traced_total - plain_total) / plain_total * 100.0
                        if plain_total > 0 else 0.0)
        acd_speedup = (reference_total / plain_total
                       if plain_total > 0 else 1.0)
        pivot_speedup = (pivot_reference_total / plain_total
                         if plain_total > 0 else 1.0)
        derived.update(
            trace_overhead_pct=round(overhead_pct, 2),
            acd_speedup_vs_reference=round(acd_speedup, 2),
            acd_speedup_vs_pivot_reference=round(pivot_speedup, 2),
        )
        print(f"trace overhead: {overhead_pct:+.2f}% "
              f"(plain {plain_total:.3f}s, traced {traced_total:.3f}s)")
    if "pipelined" in STAGES:
        derived.update(pipelined_stage(runs))

    payload = bench_payload(
        "endtoend",
        config={"scale": SCALE, "seed": SEED,
                "parallel": PARALLEL, "setting": SETTING,
                "datasets": list(DATASETS),
                "stages": list(STAGES),
                "pipeline_records": PIPELINE_RECORDS,
                "pipeline_latency_s": PIPELINE_LATENCY,
                "pipeline_workers": PIPELINE_WORKERS,
                "pipeline_shards": PIPELINE_SHARDS,
                "pipeline_confusion": PIPELINE_CONFUSION},
        runs=runs,
        derived=derived,
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

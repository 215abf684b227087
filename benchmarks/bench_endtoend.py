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
streams its own trace to disk to measure the tracing overhead.  The
plain ``acd`` and the traced run alternate over ``REPEATS`` samples,
each after a ``gc.collect()``; their stages are medians with IQRs in
``stages_iqr``, and ``trace_overhead_pct`` is the median over repeats of
the traced-vs-plain difference, with its IQR.  Each
dataset row runs in its own forked child (``common.in_fork``), so every
peak-RSS meter is that row's own.

The ``acd_reference`` stage swaps PC-Refine for its full-re-evaluation
oracle (from ``repro.reference``) and asserts the same pairs and F1 as
the ``acd`` stage; the delta is the incremental refinement's end-to-end
win.  ``acd_pivot_reference`` swaps PC-Pivot for the whole-graph
per-round re-derivation oracle.  That oracle counts rounds the paper's
way — one Equation-4 scan over the whole graph — so it asks slightly
different pairs than ``run_acd``'s per-component rounds: the stage
asserts the two generation clusterings equal (cluster ids included) and
records the oracle's pairs and F1 next to the ``acd`` stage's.

Environment knobs:
    REPRO_BENCH_SCALE          dataset scale (default 1.0)
    REPRO_BENCH_PARALLEL       pruning worker processes (default 0)
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import in_fork  # noqa: E402
from repro.core.generation import pc_pivot  # noqa: E402
from repro.core.pc_refine import pc_refine  # noqa: E402
from repro.crowd.oracle import CrowdOracle  # noqa: E402
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
from repro.reference import pc_pivot as reference_pc_pivot  # noqa: E402
from repro.reference import run_acd as reference_acd  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
PARALLEL = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
SEED = 1
SETTING = "3w"
DATASETS = ("paper", "restaurant", "product")
OUTPUT = REPO_ROOT / "BENCH_endtoend.json"

#: Plain/traced ACD samples per dataset.  ``acd`` and ``acd_traced`` are
#: their medians, with the interquartile range in ``stages_iqr``: one
#: sample each read a traced run faster than a plain one.
REPEATS = 5


def _acd_with_oracle(instance, **phase):
    """ACD with one phase swapped for its ``repro.reference`` oracle;
    returns ``(pairs_issued, f1)`` as ``run_method`` measures them."""
    clustering, stats = reference_acd(
        instance.record_ids, instance.candidates, instance.answers,
        seed=SEED, pairs_per_hit=instance.setting.pairs_per_hit, **phase)
    return (float(stats.pairs_issued),
            pairwise_scores(clustering, instance.dataset.gold).f1)


def _timed_sample(harness, name: str, run):
    """One timed sample of ``run()`` under the harness span ``name``,
    after a ``gc.collect()``; returns ``(seconds, result)``."""
    gc.collect()
    with harness.span(name) as span:
        result = run()
    return span.duration_s, result


def _median_and_iqr(values):
    """Median and interquartile range of repeated samples."""
    low, middle, high = statistics.quantiles(values, n=4,
                                             method="inclusive")
    return middle, high - low


def dataset_row(dataset_name: str):
    """One dataset's pruning + ACD stages; returns ``(run entry, stage
    seconds, f1, per-sample seconds of acd and acd_traced)``.  Runs in
    its own fork, so the peak RSS is this dataset's own."""
    harness, meters = ObsContext(), StageTimings()
    with harness.span("total"), harness.span("pruning"):
        instance = prepare_instance(
            dataset_name, SETTING, scale=SCALE, seed=SEED,
            parallel=PARALLEL,
        )
    # Untimed warm-up: the first run populates the lazy answer file,
    # which would otherwise be billed to whichever stage runs first.
    run_method(ACD_METHOD, instance, seed=SEED)
    with tempfile.TemporaryDirectory() as tmpdir:
        trace_path = Path(tmpdir) / "bench.trace.jsonl"

        def traced_run():
            # Full observability (spans + metrics + JSONL stream to
            # disk): the delta to a plain run is the tracing overhead.
            with ObsContext.to_path(trace_path) as obs:
                return run_method(ACD_METHOD, instance, seed=SEED, obs=obs)

        samples = {"acd": [], "acd_traced": []}
        runs = {"acd": lambda: run_method(ACD_METHOD, instance, seed=SEED),
                "acd_traced": traced_run}
        with harness.span("total"):
            # Plain and traced samples alternate, and so does which of
            # the two goes first, so host drift bills both sides alike.
            for repeat in range(REPEATS):
                order = list(runs) if repeat % 2 == 0 else list(runs)[::-1]
                for name in order:
                    samples[name].append(_timed_sample(harness, name,
                                                       runs[name]))
            result = samples["acd"][0][1]
            # The same pipeline under the full-re-evaluation refinement
            # oracle: the delta is the incremental PC-Refine's end-to-end
            # win.
            gc.collect()
            with harness.span("acd_reference"):
                reference = _acd_with_oracle(instance, generation=pc_pivot)
            assert reference == (result.pairs_issued, result.f1), \
                "the refinement oracle must agree"
            # And under the whole-graph pivot oracle: the delta is the
            # component executor's end-to-end win.  The oracle counts
            # rounds over the whole graph, so its pairs may differ; the
            # generation clusterings must not.
            gc.collect()
            with harness.span("acd_pivot_reference"):
                pivot_reference = _acd_with_oracle(instance,
                                                   refinement=pc_refine)
            generations = [
                engine(instance.record_ids, instance.candidates,
                       CrowdOracle(instance.answers), seed=SEED).to_state()
                for engine in (pc_pivot, reference_pc_pivot)]
            assert generations[0] == generations[1], \
                "the pivot oracle must generate the same clusters"
    for _, other in samples["acd"] + samples["acd_traced"]:
        assert other.pairs_issued == result.pairs_issued, \
            "repeats and tracing must not perturb the run"
    stages = harness.tracer.span_summaries()
    seconds = stage_seconds(stages)
    spread = {}
    for name, timed in samples.items():
        seconds[name], spread[name] = _median_and_iqr(
            [duration for duration, _ in timed])
    meters.record_throughput("pruning_records_per_second",
                             len(instance.record_ids), seconds["pruning"])
    meters.record_peak_rss()
    entry = run_entry(
        stages, meters,
        records=len(instance.record_ids),
        candidate_pairs=len(instance.candidates),
        f1=round(result.f1, 4),
        pairs_issued=result.pairs_issued,
        pivot_reference_pairs_issued=pivot_reference[0],
        pivot_reference_f1=round(pivot_reference[1], 4),
    )
    entry["stages"] = seconds
    entry["stages_iqr"] = spread
    sample_seconds = {name: [duration for duration, _ in timed]
                      for name, timed in samples.items()}
    return entry, seconds, result.f1, sample_seconds


def main() -> int:
    runs = {}
    plain_total = 0.0
    traced_total = 0.0
    reference_total = 0.0
    pivot_reference_total = 0.0
    # Per repeat, the plain and traced seconds summed over datasets.
    plain_samples = [0.0] * REPEATS
    traced_samples = [0.0] * REPEATS
    for dataset_name in DATASETS:
        entry, seconds, f1, sample_seconds = in_fork(
            lambda: dataset_row(dataset_name))
        runs[dataset_name] = entry
        plain_total += seconds["acd"]
        traced_total += seconds["acd_traced"]
        for repeat in range(REPEATS):
            plain_samples[repeat] += sample_seconds["acd"][repeat]
            traced_samples[repeat] += sample_seconds["acd_traced"][repeat]
        reference_total += seconds["acd_reference"]
        pivot_reference_total += seconds["acd_pivot_reference"]
        print(
            f"{dataset_name}: pruning {seconds['pruning']:.3f}s, "
            f"acd {seconds['acd']:.3f}s, "
            f"reference {seconds['acd_reference']:.3f}s, "
            f"pivot-reference {seconds['acd_pivot_reference']:.3f}s, "
            f"traced {seconds['acd_traced']:.3f}s, "
            f"F1 {f1:.3f}"
        )

    # Each repeat's traced samples against the plain samples taken
    # alongside them; the median and IQR over repeats, not one pair.
    overhead_pct, overhead_iqr = _median_and_iqr([
        (traced - plain) / plain * 100.0 if plain > 0 else 0.0
        for plain, traced in zip(plain_samples, traced_samples)])
    acd_speedup = (reference_total / plain_total
                   if plain_total > 0 else 1.0)
    pivot_speedup = (pivot_reference_total / plain_total
                     if plain_total > 0 else 1.0)
    derived = dict(
        trace_overhead_pct=round(overhead_pct, 2),
        trace_overhead_pct_iqr=round(overhead_iqr, 2),
        acd_speedup_vs_reference=round(acd_speedup, 2),
        acd_speedup_vs_pivot_reference=round(pivot_speedup, 2),
    )
    # A spread wider than the 5% budget cannot resolve it either way.
    verdict = ("unresolved: IQR above 5 points" if overhead_iqr > 5.0
               else "resolved")
    print(f"trace overhead: {overhead_pct:+.2f}% "
          f"(IQR {overhead_iqr:.2f} points over {REPEATS} pairs, "
          f"{verdict}; median plain {plain_total:.3f}s, traced "
          f"{traced_total:.3f}s)")

    payload = bench_payload(
        "endtoend",
        config={"scale": SCALE, "seed": SEED,
                "parallel": PARALLEL, "setting": SETTING,
                "datasets": list(DATASETS),
                "repeats": REPEATS},
        runs=runs,
        derived=derived,
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

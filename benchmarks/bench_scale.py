"""Scale benchmark: the pruning and generation phases at 10k-1M records.

Runs the pruning phase over the synthetic ``largescale`` population
(:mod:`repro.datasets.largescale`) at increasing record counts, comparing
the production join against the scalar oracles, verifying byte-identical
candidate sets wherever more than one variant runs, and writing
``BENCH_scale.json`` at the repo root in the shared BENCH schema with
records/sec, pairs/sec, and peak-RSS meters per run.

Pruning variants per tier (each capped by its env knob):

* ``vectorized``  — the production prefix join, sharded
  (:mod:`repro.pruning.shard`); runs at every tier.
* ``scalar-join`` — the same join one record at a time over Python
  frozensets (the oracle ``repro.reference.prefix_filtered_candidates``);
  capped at ``REPRO_BENCH_SCALAR_CAP``.
* ``reference``   — the seed's token blocking + per-pair scoring loop
  (``repro.reference.candidate_set``); capped at
  ``REPRO_BENCH_REFERENCE_CAP``.

Generation variants per tier (capped at ``REPRO_BENCH_GENERATION_CAP``,
driven by the tier's vectorized candidate set):

* ``pivot-classic`` — ``run_acd(refine=False)``: the classic
  single-process PC-Pivot loop.
* ``pivot-sharded`` — the pre-pruned ``run_pipeline(refine=False)``:
  per-component PC-Pivot on a supervised pool of
  ``REPRO_BENCH_PIVOT_PROCESSES`` worker processes, plus the merged-round
  replay (:mod:`repro.core.pivot_shard`).  The clustering
  (cluster IDs included) must match the classic run exactly; the
  crowdsourced pair count may differ (component-local Equation-4 rounds
  waste different — usually fewer — pairs than the globally-coupled
  classic rounds), and the crowd *iteration* count drops to the deepest
  component's round count because every component crowdsources its
  round-``r`` batch simultaneously.  ``generation_iteration_speedup``
  (classic iterations / sharded iterations) is the hardware-independent
  generation-phase win: in a deployed system the phase's latency is
  crowd iterations times the crowd round-trip, which dwarfs CPU.  The
  wall-clock ``generation_speedup`` additionally needs as many real
  cores as worker processes — on a single-core container the process
  fan-out is pure timesharing overhead.

Refinement variants per tier (capped at ``REPRO_BENCH_REFINE_CAP``, on a
*confused* regeneration of the tier — ``confusion=REPRO_BENCH_REFINE_CONFUSION``
gives the refine phase real over-/under-merge work; the clean default
generator produces clusterings the phase barely touches):

* ``refine-classic`` — ``pc_refine`` called directly after PC-Pivot.
* ``refine-pipelined`` — the pre-pruned ``run_pipeline``, resumed from
  the classic run's ``generation`` checkpoint.  The pipeline refines
  with the same global PC-Refine loop (Algorithm 5), so given the same
  generation state its clustering, refine pairs and refine iterations
  must equal the classic run's; ``refine_classic_identical`` records
  that, and the benchmark fails when it is false.  Both entries carry
  the same ``refine.*`` stage breakdown.

Every variant runs in its own forked child (``common.in_fork``), so its
``peak_rss_bytes`` meter is that variant's own peak (plus its largest
reaped child, e.g. a worker pool) rather than the largest peak of any
variant measured before it in the same process.  Stage tables are span
rollups: pruning and refinement variants run with an in-memory
:class:`~repro.obs.ObsContext` (``blocking`` / ``scoring`` and the
``refine.*`` stages are the engines' own spans, so both sides of each
A/B include the same in-memory tracing), inside harness ``total`` /
``generation`` / ``refine`` spans; generation variants run untraced
inside the harness spans.

Standalone (no pytest)::

    python benchmarks/bench_scale.py                      # 10k + 100k + 1M
    REPRO_BENCH_SCALE_TIERS=10000 python benchmarks/bench_scale.py   # smoke

Environment knobs:
    REPRO_BENCH_SCALE_TIERS    comma-separated record counts
                               (default "10000,100000,1000000")
    REPRO_BENCH_SHARDS         shard count for the vectorized run (default 8)
    REPRO_BENCH_PARALLEL       worker processes for the sharded run
                               (default 0 = in-process shard loop)
    REPRO_BENCH_SCALAR_CAP     largest tier for scalar-join (default 100000)
    REPRO_BENCH_REFERENCE_CAP  largest tier for reference (default 10000)
    REPRO_BENCH_GENERATION_CAP     largest tier for the generation stage
                                   (default 100000)
    REPRO_BENCH_PIVOT_PROCESSES    pool workers for pivot-sharded
                                   (default min(4, CPU count); <= 1 =
                                   inline — supervised workers only
                                   pay off with real cores, so a
                                   single-core host defaults to the
                                   inline pool)
    REPRO_BENCH_REFINE_CAP         largest tier for the refinement stage
                                   (default 100000)
    REPRO_BENCH_REFINE_CONFUSION   confusion knob for the refine-stage
                                   dataset (default 0.25)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import in_fork  # noqa: E402
from repro.datasets.largescale import BASE_RECORDS, generate_largescale  # noqa: E402
from repro.experiments.configs import PRUNING_THRESHOLD  # noqa: E402
from repro.obs import ObsContext  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    StageTimings,
    bench_payload,
    run_entry,
    stage_seconds,
    write_bench_json,
)
from repro.pruning.candidate import (  # noqa: E402
    _prefix_join_eligible,
    build_candidate_set,
)
from repro.pruning.candidate import CandidateSet  # noqa: E402
from repro.reference import (  # noqa: E402
    candidate_set,
    prefix_filtered_candidates,
)
from repro.similarity.composite import (  # noqa: E402
    SET_METRIC_FUNCTIONS,
    jaccard_similarity_function,
)

TIERS = tuple(
    int(tier)
    for tier in os.environ.get(
        "REPRO_BENCH_SCALE_TIERS", "10000,100000,1000000"
    ).split(",")
    if tier.strip()
)
SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "8"))
PARALLEL = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
SCALAR_CAP = int(os.environ.get("REPRO_BENCH_SCALAR_CAP", "100000"))
REFERENCE_CAP = int(os.environ.get("REPRO_BENCH_REFERENCE_CAP", "10000"))
GENERATION_CAP = int(os.environ.get("REPRO_BENCH_GENERATION_CAP", "100000"))
#: Worker processes only help with real cores to run them on; a
#: single-core host (common for CI containers) pays fork + IPC overhead
#: for zero parallelism, so the default degrades to the in-process loop.
_DEFAULT_PROCESSES = str(min(4, os.cpu_count() or 1))
PIVOT_PROCESSES = int(
    os.environ.get("REPRO_BENCH_PIVOT_PROCESSES", _DEFAULT_PROCESSES))
REFINE_CAP = int(os.environ.get("REPRO_BENCH_REFINE_CAP", "100000"))
REFINE_CONFUSION = float(
    os.environ.get("REPRO_BENCH_REFINE_CONFUSION", "0.25"))
SEED = 1
OUTPUT = REPO_ROOT / "BENCH_scale.json"


def _measure(records, build=build_candidate_set, **knobs):
    """One pruning run — the production path (the prefix join, for
    Jaccard) unless ``build`` names an oracle; returns (candidate_set,
    stage table, meters)."""
    obs = ObsContext()
    with obs.span("total"):
        candidates = build(
            records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD, obs=obs, **knobs,
        )
    stages = obs.tracer.span_summaries()
    total = stage_seconds(stages)["total"]
    meters = StageTimings()
    meters.record_throughput("records_per_second", len(records), total)
    meters.record_throughput("pairs_per_second", len(candidates), total)
    meters.record_peak_rss()
    return candidates, stages, meters


def _scalar_join(records, similarity, threshold, obs):
    """The frozenset oracle join as a :class:`CandidateSet`."""
    pairs, scores = prefix_filtered_candidates(
        records, set_of=similarity.set_of,
        set_function=SET_METRIC_FUNCTIONS[similarity.set_metric],
        metric=similarity.set_metric, threshold=threshold, obs=obs,
    )
    return CandidateSet(pairs=tuple(pairs), machine_scores=scores,
                        threshold=threshold)


def _answers(dataset):
    """A fresh pair-seeded answer file per variant: identical answers, no
    cross-variant memo warming."""
    from repro.crowd.cache import AnswerFile
    from repro.crowd.worker import WorkerPool
    from repro.experiments.configs import difficulty_model

    return AnswerFile(
        dataset.gold,
        WorkerPool(difficulty=difficulty_model("largescale"), num_workers=3),
    )


def _measure_generation(dataset, candidates, *, processes=None):
    """One untraced cluster-generation run; returns (clustering, stats,
    stage table, meters).

    ``processes=None`` runs the classic engine (``run_acd``); an integer
    runs the pre-pruned ``run_pipeline`` on a pool of that many workers.
    """
    from repro.core.acd import run_acd
    from repro.runtime.pipeline import run_pipeline

    harness = ObsContext()
    with harness.span("total"), harness.span("generation"):
        if processes is None:
            result = run_acd(dataset.record_ids, candidates,
                             _answers(dataset), seed=SEED, refine=False)
        else:
            result = run_pipeline(
                _answers(dataset), record_ids=dataset.record_ids,
                candidates=candidates, seed=SEED, refine=False,
                workers=processes,
            ).result
    stages = harness.tracer.span_summaries()
    total = stage_seconds(stages)["total"]
    meters = StageTimings()
    meters.record_throughput("records_per_second", len(dataset.records),
                             total)
    meters.record_throughput("pairs_per_second",
                             int(result.stats.pairs_issued), total)
    meters.record_peak_rss()
    return result.clustering, result.stats, stages, meters


def _generation_stage(label, tier, dataset, candidates, runs, derived):
    """The generation tier: classic vs component-decomposed PC-Pivot.

    Returns False when the sharded run diverges from the classic one
    (the caller fails the benchmark).
    """
    classic, classic_stats, classic_stages, classic_meters = in_fork(
        lambda: _measure_generation(dataset, candidates))
    classic_s = stage_seconds(classic_stages)["total"]
    runs[f"{label}/pivot-classic"] = run_entry(
        classic_stages, classic_meters, records=tier,
        pairs_issued=int(classic_stats.pairs_issued),
        iterations=int(classic_stats.iterations),
        clusters=len(classic),
    )
    print(f"{label}/pivot-classic: {classic_s:.2f}s, "
          f"{int(classic_stats.pairs_issued)} pairs, "
          f"{int(classic_stats.iterations)} crowd iterations, "
          f"peak RSS "
          f"{classic_meters.meters['peak_rss_bytes'] / 2**20:.0f} MiB")

    sharded, sharded_stats, sharded_stages, sharded_meters = in_fork(
        lambda: _measure_generation(dataset, candidates,
                                    processes=PIVOT_PROCESSES))
    sharded_s = stage_seconds(sharded_stages)["total"]
    runs[f"{label}/pivot-sharded"] = run_entry(
        sharded_stages, sharded_meters, records=tier,
        pairs_issued=int(sharded_stats.pairs_issued),
        iterations=int(sharded_stats.iterations),
        clusters=len(sharded), processes=PIVOT_PROCESSES,
    )
    if sharded.to_state() != classic.to_state():
        print(f"FAIL: {label}: sharded generation clustering diverged",
              file=sys.stderr)
        return False
    speedup = classic_s / max(sharded_s, 1e-12)
    derived[f"{label}/generation_speedup"] = round(speedup, 2)
    # The generation phase's deployed cost is crowd latency: iterations
    # times the crowd round-trip.  Merged component rounds crowdsource
    # every component simultaneously, so the sharded iteration count is
    # the deepest component's round count — this ratio is the
    # hardware-independent phase speedup.
    iteration_speedup = classic_stats.iterations / max(
        sharded_stats.iterations, 1)
    derived[f"{label}/generation_iteration_speedup"] = round(
        iteration_speedup, 2)
    # The pair counts legitimately differ: component-local Equation-4
    # rounds waste differently than the globally-coupled classic rounds
    # (usually less).  Only the clustering is pinned across engines.
    derived[f"{label}/generation_pairs_saved"] = int(
        classic_stats.pairs_issued - sharded_stats.pairs_issued)
    print(f"{label}/pivot-sharded: {sharded_s:.2f}s "
          f"({speedup:.1f}x wall, {iteration_speedup:.1f}x crowd "
          f"iterations [{int(sharded_stats.iterations)} vs "
          f"{int(classic_stats.iterations)}], identical clustering, "
          f"{int(sharded_stats.pairs_issued)} vs "
          f"{int(classic_stats.pairs_issued)} pairs)")
    return True


def _measure_refine(dataset, candidates, *, pipelined=False):
    """One refinement run from the classic generation clustering.

    The generation phase (untimed, identical across variants: same seed,
    pair-deterministic answers) produces the starting clustering and the
    shared phase-2 answer set.  By default this times ``pc_refine``
    directly; ``pipelined`` writes the generation phase as a checkpoint
    and times the pre-pruned ``run_pipeline`` resuming from it.  Returns
    (clustering, refine_iterations, refine_pairs, stage table, meters);
    the stage table carries the ``refine.*`` per-stage spans under the
    harness's ``total`` and ``refine`` spans (the pipelined run's own
    phase spans too).
    """
    import tempfile

    from repro.core.acd import run_acd
    from repro.core.pc_pivot import pc_pivot
    from repro.core.pc_refine import pc_refine
    from repro.crowd.oracle import CrowdOracle
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.pipeline import run_pipeline

    obs = ObsContext()
    if not pipelined:
        oracle = CrowdOracle(_answers(dataset))
        clustering = pc_pivot(dataset.record_ids, candidates, oracle,
                              seed=SEED)
        generation = oracle.stats.snapshot()
        with obs.span("total"), obs.span("refine"):
            clustering = pc_refine(
                clustering, candidates, oracle,
                num_records=len(dataset.records), obs=obs,
            )
        total = oracle.stats.snapshot()
    else:
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp, config={"seed": SEED})
            run_acd(dataset.record_ids, candidates, _answers(dataset),
                    seed=SEED, refine=False, checkpoints=store)
            with obs.span("total"), obs.span("refine"):
                result = run_pipeline(
                    _answers(dataset), record_ids=dataset.record_ids,
                    candidates=candidates, checkpoints=store, resume=True,
                    obs=obs,
                ).result
        clustering = result.clustering
        generation = result.generation_stats
        total = result.stats.snapshot()
    stages = obs.tracer.span_summaries()
    refine_pairs = int(total["pairs_issued"] - generation["pairs_issued"])
    meters = StageTimings()
    meters.record_throughput("pairs_per_second", refine_pairs,
                             stage_seconds(stages)["refine"])
    meters.record_peak_rss()
    return (clustering,
            int(total["iterations"] - generation["iterations"]),
            refine_pairs, stages, meters)


def _refine_stage(label, tier, runs, derived):
    """The refinement tier: PC-Refine direct vs through ``run_pipeline``.

    Regenerates the tier with the ``confusion`` knob (the clean dataset
    leaves the refine phase nothing to do) and prunes it, then refines
    the same generation clustering both ways.  Returns False — failing
    the benchmark — when the pipelined run differs from the classic one
    in clustering, refine pairs or refine iterations: both executors run
    the same global PC-Refine loop.
    """
    dataset = generate_largescale(scale=tier / BASE_RECORDS, seed=SEED,
                                  confusion=REFINE_CONFUSION)
    candidates = build_candidate_set(
        dataset.records, jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD, shards=SHARDS, parallel=PARALLEL)

    classic, classic_iters, classic_pairs, classic_stages, classic_meters = (
        in_fork(lambda: _measure_refine(dataset, candidates)))
    runs[f"{label}/refine-classic"] = run_entry(
        classic_stages, classic_meters, records=tier,
        candidate_pairs=len(candidates),
        pairs_issued=classic_pairs, iterations=classic_iters,
        clusters=len(classic),
    )
    print(f"{label}/refine-classic: "
          f"{stage_seconds(classic_stages)['refine']:.2f}s, "
          f"{classic_pairs} pairs, {classic_iters} crowd iterations, "
          f"{len(classic)} clusters")

    piped, piped_iters, piped_pairs, piped_stages, piped_meters = in_fork(
        lambda: _measure_refine(dataset, candidates, pipelined=True))
    runs[f"{label}/refine-pipelined"] = run_entry(
        piped_stages, piped_meters, records=tier,
        candidate_pairs=len(candidates),
        pairs_issued=piped_pairs, iterations=piped_iters,
        clusters=len(piped),
    )
    identical = (piped.to_state() == classic.to_state()
                 and (piped_pairs, piped_iters)
                 == (classic_pairs, classic_iters))
    derived[f"{label}/refine_classic_identical"] = identical
    print(f"{label}/refine-pipelined: "
          f"{stage_seconds(piped_stages)['refine']:.2f}s, "
          f"{piped_pairs} pairs, {piped_iters} crowd iterations, "
          f"{'identical to' if identical else 'DIVERGED from'} classic")
    if not identical:
        print(f"FAIL: {label}: pipelined refinement diverged from classic "
              f"({piped_pairs} vs {classic_pairs} pairs, {piped_iters} vs "
              f"{classic_iters} iterations)", file=sys.stderr)
    return identical


def main() -> int:
    runs = {}
    derived = {}
    if not _prefix_join_eligible(jaccard_similarity_function(), None, True):
        print("FAIL: the production path would not take the prefix join",
              file=sys.stderr)
        return 1
    for tier in TIERS:
        label = f"{tier // 1000}k" if tier < 1_000_000 else f"{tier // 1_000_000}M"
        dataset = generate_largescale(scale=tier / BASE_RECORDS, seed=SEED)
        assert len(dataset.records) == tier

        vec, vec_stages, vec_meters = in_fork(
            lambda: _measure(dataset.records, shards=SHARDS,
                             parallel=PARALLEL))
        vec_s = stage_seconds(vec_stages)["total"]
        runs[f"{label}/vectorized"] = run_entry(
            vec_stages, vec_meters, records=tier, pairs=len(vec),
            shards=SHARDS, parallel=PARALLEL,
        )
        print(f"{label}/vectorized: {vec_s:.2f}s, "
              f"{len(vec)} pairs, "
              f"{vec_meters.meters['records_per_second']:.0f} rec/s, "
              f"peak RSS {vec_meters.meters['peak_rss_bytes'] / 2**20:.0f} MiB")

        if tier <= SCALAR_CAP:
            # Unsharded single-shard run: shard-count invariance at real
            # scale (cheap — same kernel, no partitioning).
            one, one_stages, one_meters = in_fork(
                lambda: _measure(dataset.records, shards=1))
            runs[f"{label}/vectorized-1shard"] = run_entry(
                one_stages, one_meters, records=tier, pairs=len(one),
                shards=1,
            )
            if (one.pairs, one.machine_scores) != (vec.pairs, vec.machine_scores):
                print(f"FAIL: {label}: shard counts disagree", file=sys.stderr)
                return 1

            scalar, scalar_stages, scalar_meters = in_fork(
                lambda: _measure(dataset.records, build=_scalar_join))
            scalar_s = stage_seconds(scalar_stages)["total"]
            runs[f"{label}/scalar-join"] = run_entry(
                scalar_stages, scalar_meters, records=tier,
                pairs=len(scalar),
            )
            if (scalar.pairs, scalar.machine_scores) != (vec.pairs,
                                                         vec.machine_scores):
                print(f"FAIL: {label}: scalar join oracle disagrees",
                      file=sys.stderr)
                return 1
            speedup = scalar_s / max(vec_s, 1e-12)
            derived[f"{label}/speedup_vs_scalar_join"] = round(speedup, 2)
            print(f"{label}/scalar-join: {scalar_s:.2f}s "
                  f"({speedup:.1f}x, identical)")

        if tier <= REFERENCE_CAP:
            reference, ref_stages, ref_meters = in_fork(
                lambda: _measure(dataset.records, build=candidate_set))
            ref_s = stage_seconds(ref_stages)["total"]
            runs[f"{label}/reference"] = run_entry(
                ref_stages, ref_meters, records=tier, pairs=len(reference),
            )
            if (reference.pairs, reference.machine_scores) != (
                    vec.pairs, vec.machine_scores):
                print(f"FAIL: {label}: reference oracle disagrees",
                      file=sys.stderr)
                return 1
            speedup = ref_s / max(vec_s, 1e-12)
            derived[f"{label}/speedup_vs_reference"] = round(speedup, 2)
            print(f"{label}/reference: {ref_s:.2f}s "
                  f"({speedup:.1f}x, identical)")

        if tier <= GENERATION_CAP:
            if not _generation_stage(label, tier, dataset, vec, runs,
                                     derived):
                return 1

        if tier <= REFINE_CAP:
            if not _refine_stage(label, tier, runs, derived):
                return 1

    payload = bench_payload(
        "scale",
        config={
            "tiers": list(TIERS), "seed": SEED, "shards": SHARDS,
            "parallel": PARALLEL, "threshold": PRUNING_THRESHOLD,
            "scalar_cap": SCALAR_CAP, "reference_cap": REFERENCE_CAP,
            "generation_cap": GENERATION_CAP,
            "pivot_processes": PIVOT_PROCESSES,
            "refine_cap": REFINE_CAP,
            "refine_confusion": REFINE_CONFUSION,
            "dataset": "largescale", "metric": "jaccard",
        },
        runs=runs,
        derived=derived,
    )
    write_bench_json(OUTPUT, payload)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

* ``pivot-reference`` — the whole-graph PC-Pivot loop as the paper
  states it (the oracle ``repro.reference.pc_pivot``), single process.
* ``pivot-inline`` — ``run_acd(refine=False)``: per-component PC-Pivot,
  every component in one lockstep round loop in this process, plus the
  merged-round replay (:mod:`repro.core.generation`).
* ``pivot-sharded`` — the same on a supervised pool of
  ``REPRO_BENCH_PIVOT_PROCESSES`` worker processes
  (``run_acd(workers=...)``).

The clustering (cluster IDs included) must match the oracle's exactly,
and the two ``run_acd`` runs must agree byte for byte in stats too.  The
crowdsourced pair count may differ from the oracle's (component-local
Equation-4 rounds waste different — usually fewer — pairs than the
globally-coupled whole-graph rounds), and the crowd *iteration* count
drops to the deepest component's round count because every component
crowdsources its round-``r`` batch simultaneously.
``generation_iteration_speedup`` (oracle iterations / ``run_acd``
iterations) is the hardware-independent generation-phase win: in a
deployed system the phase's latency is crowd iterations times the crowd
round-trip, which dwarfs CPU.  ``generation_pool_speedup`` (inline
seconds / pool seconds) needs as many real cores as worker processes —
on a single-core container the process fan-out is pure timesharing
overhead.

Refinement variants per tier (capped at ``REPRO_BENCH_REFINE_CAP``, on a
*confused* regeneration of the tier — ``confusion=REPRO_BENCH_REFINE_CONFUSION``
gives the refine phase real over-/under-merge work; the clean default
generator produces clusterings the phase barely touches):

* ``refine-direct`` — ``pc_refine`` called directly after ``pc_pivot``
  over one oracle.
* ``refine-resumed`` — ``run_acd`` resumed from the ``generation``
  checkpoint of a generation-only ``run_acd``.  It refines with the
  same global PC-Refine loop (Algorithm 5), so given the same
  generation state its clustering, refine pairs and refine iterations
  must equal the direct run's; ``refine_resumed_identical`` records
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
                                   single-core host defaults to
                                   inline generation)
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

    ``processes=None`` runs the whole-graph oracle
    (``repro.reference.pc_pivot``); an integer runs ``run_acd`` with
    that many pool workers (``<= 1``: inline).
    """
    from repro.core.acd import run_acd
    from repro.crowd.oracle import CrowdOracle
    from repro.reference import pc_pivot as reference_pc_pivot

    harness = ObsContext()
    with harness.span("total"), harness.span("generation"):
        if processes is None:
            oracle = CrowdOracle(_answers(dataset))
            clustering = reference_pc_pivot(dataset.record_ids, candidates,
                                            oracle, seed=SEED)
            stats = oracle.stats
        else:
            result = run_acd(dataset.record_ids, candidates,
                             _answers(dataset), seed=SEED, refine=False,
                             workers=processes)
            clustering, stats = result.clustering, result.stats
    stages = harness.tracer.span_summaries()
    total = stage_seconds(stages)["total"]
    meters = StageTimings()
    meters.record_throughput("records_per_second", len(dataset.records),
                             total)
    meters.record_throughput("pairs_per_second", int(stats.pairs_issued),
                             total)
    meters.record_peak_rss()
    return clustering, stats, stages, meters


def _generation_stage(label, tier, dataset, candidates, runs, derived):
    """The generation tier: the whole-graph oracle vs ``run_acd`` inline
    and on a pool.

    Returns False when a ``run_acd`` clustering diverges from the
    oracle's or the two ``run_acd`` runs disagree (the caller fails the
    benchmark).
    """
    measured = {}
    for variant, processes in (("pivot-reference", None),
                               ("pivot-inline", 0),
                               ("pivot-sharded", PIVOT_PROCESSES)):
        clustering, stats, stages, meters = in_fork(
            lambda: _measure_generation(dataset, candidates,
                                        processes=processes))
        seconds = stage_seconds(stages)["total"]
        measured[variant] = (clustering, stats, seconds)
        extra = {} if processes is None else {"processes": processes}
        runs[f"{label}/{variant}"] = run_entry(
            stages, meters, records=tier,
            pairs_issued=int(stats.pairs_issued),
            iterations=int(stats.iterations),
            clusters=len(clustering), **extra,
        )
        print(f"{label}/{variant}: {seconds:.2f}s, "
              f"{int(stats.pairs_issued)} pairs, "
              f"{int(stats.iterations)} crowd iterations, peak RSS "
              f"{meters.meters['peak_rss_bytes'] / 2**20:.0f} MiB")

    oracle, oracle_stats, _ = measured["pivot-reference"]
    inline, inline_stats, inline_s = measured["pivot-inline"]
    pooled, pooled_stats, pooled_s = measured["pivot-sharded"]
    if (inline.to_state() != oracle.to_state()
            or pooled.to_state() != oracle.to_state()):
        print(f"FAIL: {label}: run_acd generation clustering diverged "
              f"from the whole-graph oracle", file=sys.stderr)
        return False
    if pooled_stats.snapshot() != inline_stats.snapshot():
        print(f"FAIL: {label}: pool and inline generation stats differ",
              file=sys.stderr)
        return False
    derived[f"{label}/generation_pool_speedup"] = round(
        inline_s / max(pooled_s, 1e-12), 2)
    # The generation phase's deployed cost is crowd latency: iterations
    # times the crowd round-trip.  Merged component rounds crowdsource
    # every component simultaneously, so run_acd's iteration count is
    # the deepest component's round count — this ratio is the
    # hardware-independent phase speedup over the whole-graph loop.
    iteration_speedup = oracle_stats.iterations / max(
        inline_stats.iterations, 1)
    derived[f"{label}/generation_iteration_speedup"] = round(
        iteration_speedup, 2)
    # The pair counts legitimately differ: component-local Equation-4
    # rounds waste differently than the globally-coupled whole-graph
    # rounds (usually less).  Only the clustering is pinned across the
    # two.
    derived[f"{label}/generation_pairs_saved"] = int(
        oracle_stats.pairs_issued - inline_stats.pairs_issued)
    print(f"{label}: {iteration_speedup:.1f}x fewer crowd iterations "
          f"than the oracle, identical clustering, pool "
          f"{inline_s / max(pooled_s, 1e-12):.1f}x inline wall clock")
    return True


def _measure_refine(dataset, candidates, *, resumed=False):
    """One refinement run from ``pc_pivot``'s generation clustering.

    The generation phase (untimed, identical across variants: same seed,
    pair-deterministic answers) produces the starting clustering and the
    shared phase-2 answer set.  By default this times ``pc_refine``
    directly; ``resumed`` writes the generation phase as a checkpoint
    and times ``run_acd`` resuming from it.  Returns (clustering,
    refine_iterations, refine_pairs, stage table, meters); the stage
    table carries the ``refine.*`` per-stage spans under the harness's
    ``total`` and ``refine`` spans (the resumed run's own phase spans
    too).
    """
    import tempfile

    from repro.core.acd import run_acd
    from repro.core.generation import pc_pivot
    from repro.core.pc_refine import pc_refine
    from repro.crowd.oracle import CrowdOracle
    from repro.runtime.checkpoint import CheckpointStore

    obs = ObsContext()
    if not resumed:
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
                result = run_acd(dataset.record_ids, candidates,
                                 _answers(dataset), checkpoints=store,
                                 resume=True, obs=obs)
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
    """The refinement tier: PC-Refine direct vs ``run_acd`` resumed from a
    generation checkpoint.

    Regenerates the tier with the ``confusion`` knob (the clean dataset
    leaves the refine phase nothing to do) and prunes it, then refines
    the same generation clustering both ways.  Returns False — failing
    the benchmark — when the resumed run differs from the direct one in
    clustering, refine pairs or refine iterations: both run the same
    global PC-Refine loop.
    """
    dataset = generate_largescale(scale=tier / BASE_RECORDS, seed=SEED,
                                  confusion=REFINE_CONFUSION)
    candidates = build_candidate_set(
        dataset.records, jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD, shards=SHARDS, parallel=PARALLEL)

    direct, direct_iters, direct_pairs, direct_stages, direct_meters = (
        in_fork(lambda: _measure_refine(dataset, candidates)))
    runs[f"{label}/refine-direct"] = run_entry(
        direct_stages, direct_meters, records=tier,
        candidate_pairs=len(candidates),
        pairs_issued=direct_pairs, iterations=direct_iters,
        clusters=len(direct),
    )
    print(f"{label}/refine-direct: "
          f"{stage_seconds(direct_stages)['refine']:.2f}s, "
          f"{direct_pairs} pairs, {direct_iters} crowd iterations, "
          f"{len(direct)} clusters")

    resumed, resumed_iters, resumed_pairs, resumed_stages, resumed_meters = (
        in_fork(lambda: _measure_refine(dataset, candidates, resumed=True)))
    runs[f"{label}/refine-resumed"] = run_entry(
        resumed_stages, resumed_meters, records=tier,
        candidate_pairs=len(candidates),
        pairs_issued=resumed_pairs, iterations=resumed_iters,
        clusters=len(resumed),
    )
    identical = (resumed.to_state() == direct.to_state()
                 and (resumed_pairs, resumed_iters)
                 == (direct_pairs, direct_iters))
    derived[f"{label}/refine_resumed_identical"] = identical
    print(f"{label}/refine-resumed: "
          f"{stage_seconds(resumed_stages)['refine']:.2f}s, "
          f"{resumed_pairs} pairs, {resumed_iters} crowd iterations, "
          f"{'identical to' if identical else 'DIVERGED from'} direct")
    if not identical:
        print(f"FAIL: {label}: resumed refinement diverged from direct "
              f"({resumed_pairs} vs {direct_pairs} pairs, {resumed_iters} "
              f"vs {direct_iters} iterations)", file=sys.stderr)
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

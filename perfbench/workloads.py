"""The benchmark's workloads: set-up, one timed run, and one traced run.

Every function here calls only the public entry points of ``repro``
(``build_candidate_set``, ``run_acd`` with its default engine and shard
arguments, and ``run_pipeline``) and times them from outside.  Per-layer
numbers are read from what those calls already return (``CrowdStats``,
the phase diagnostics, ``RuntimeReport``, the ``timings=`` meters) and
from the :class:`~proxy.CountingAnswers` proxy.

Inputs: each workload's records and crowd answer file are one fixed
generated instance (the paper's protocol: one answer file ``F`` shared by
every run).  The benchmark seed picks the pivot permutations, which is
ACD's own randomness.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.acd import ACDResult, run_acd
from repro.crowd.cache import AnswerFile
from repro.crowd.latency import LatencyModel, SimulatedLatencyAnswers
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.datasets.schema import Dataset
from repro.eval.metrics import f1_score
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.obs import ObsContext
from repro.perf.timing import StageTimings
from repro.pruning.candidate import build_candidate_set
from repro.runtime.pipeline import run_pipeline
from repro.similarity.composite import jaccard_similarity_function

from proxy import CountingAnswers

#: Generator seed of every workload's records: the instance whose Paper
#: candidate set has the Table-3 size (25,526 pairs at 997 records).
DATASET_SEED = 1

#: Crowd workers per pair (the paper's 3-worker setting).
CROWD_WORKERS = 3

#: Wall-clock cost of one simulated crowd round in the pipelined workload.
ROUND_LATENCY_S = 0.002

#: Pool processes of the pipelined workload (one per core of a 2-core host).
PIPELINE_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name, as in ``BENCHMARK.json``.
        dataset: Generator name.
        records: Record count, or ``None`` for the Table-3 size.
        confusion: ``largescale`` confusion knob (0 for other generators).
        pipelined: Run through ``run_pipeline`` instead of
            ``build_candidate_set`` + ``run_acd``.
        permutations: Pivot permutations per benchmark run; the crowd
            metrics are their mean.
        setups: Set-ups per timed benchmark run, interleaved with the
            runs (median reported).
        observed_permutations: Permutations on which the traced run also
            measures JSONL tracing overhead (0: not measured here).
    """

    name: str
    dataset: str
    records: Optional[int]
    confusion: float
    pipelined: bool
    permutations: int
    setups: int
    observed_permutations: int = 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("paper", "paper", None, 0.0, False, 8, 15, 3),
        Workload("largescale-classic", "largescale", 30_000, 0.25, False,
                 7, 7),
        Workload("largescale-pipelined", "largescale", 30_000, 0.25, True,
                 3, 7),
    )
}

#: Sizes for the benchmark's own tests: same code paths, seconds per run.
SMOKE_RECORDS = {"paper": 200, "largescale": 2_000}
SMOKE_PERMUTATIONS = 2


@dataclass
class Instance:
    """A set-up workload: records, gold standard, and the crowd."""

    workload: Workload
    dataset: Dataset
    crowd: WorkerPool
    answers: object

    def fresh_answers(self):
        """A new answer source with an empty memo (answers unresolved)."""
        answers = AnswerFile(self.dataset.gold, self.crowd)
        if self.workload.pipelined:
            return SimulatedLatencyAnswers(answers, ROUND_LATENCY_S)
        return answers


def set_up(workload: Workload, smoke: bool = False) -> Instance:
    """Generate the records and build the crowd and its answer file."""
    if smoke:
        records = SMOKE_RECORDS[workload.dataset]
        scale = records / (997 if workload.dataset == "paper" else 10_000)
    else:
        scale = (1.0 if workload.records is None
                 else workload.records / 10_000)
    knobs = {"confusion": workload.confusion} if workload.confusion else {}
    dataset = generate(workload.dataset, scale=scale, seed=DATASET_SEED,
                       **knobs)
    crowd = WorkerPool(difficulty=difficulty_model(workload.dataset),
                       num_workers=CROWD_WORKERS)
    instance = Instance(workload, dataset, crowd, None)
    instance.answers = instance.fresh_answers()
    return instance


def permutation_seeds(seed: int, count: int) -> List[int]:
    """The pivot-permutation seeds one benchmark run uses."""
    return [seed * 1000 + index for index in range(count)]


def digest(result: ACDResult) -> str:
    """A hash of the final clustering, cluster ids included."""
    state = json.dumps(result.clustering.to_state(), sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


def check_partition(result: ACDResult, record_ids: List[int]) -> None:
    """Raise unless the clustering partitions exactly ``record_ids``."""
    seen = set()
    for members in result.clustering.as_sets():
        if not members:
            raise ValueError("clustering has an empty cluster")
        if seen & members:
            raise ValueError("a record sits in two clusters")
        seen |= members
    if seen != set(record_ids):
        missing = len(set(record_ids) - seen)
        extra = len(seen - set(record_ids))
        raise ValueError(f"clustering is not a partition of the input: "
                         f"{missing} records missing, {extra} unknown")


def outcome(instance: Instance, result: ACDResult) -> Dict[str, object]:
    """Check one run's clustering and read its crowd cost and quality."""
    check_partition(result, instance.dataset.record_ids)
    stats = result.stats
    return {
        "pairs_issued": stats.pairs_issued,
        "crowd_rounds": stats.iterations,
        "crowd_hours": LatencyModel().total_seconds(stats.batch_sizes) / 3600,
        "f1": f1_score(result.clustering, instance.dataset.gold),
        "digest": digest(result),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed_run(instance: Instance, seed: int) -> Dict[str, object]:
    """Records in, clustering out, untraced: the end-to-end measurement."""
    dataset = instance.dataset
    if instance.workload.pipelined:
        start = time.perf_counter()
        piped = run_pipeline(instance.answers, records=dataset.records,
                             similarity=jaccard_similarity_function(),
                             workers=PIPELINE_WORKERS, seed=seed)
        end = time.perf_counter()
        result, acd_s = piped.result, None
    else:
        start = time.perf_counter()
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD)
        pruned = time.perf_counter()
        result = run_acd(dataset.record_ids, candidates, instance.answers,
                         seed=seed)
        end = time.perf_counter()
        acd_s = end - pruned
    return {"makespan_s": end - start, "acd_s": acd_s,
            "peak_rss_mb": peak_rss_mb(), **outcome(instance, result)}


def _phase_layers(result: ACDResult) -> Dict[str, float]:
    """Generation and refinement counts from the run's own diagnostics."""
    generation, refinement = result.generation_stats, result.refinement_stats
    pivot_pairs = generation["pairs_issued"]
    waste = result.pivot_diagnostics.total_predicted_waste
    refine = result.refine_diagnostics
    packed = sum(refine.operations_packed)
    applied = sum(refine.operations_applied)
    return {
        "pivot.rounds": generation["iterations"],
        "pivot.pairs": pivot_pairs,
        "pivot.waste_ratio": waste / pivot_pairs if pivot_pairs else 0.0,
        "refine.rounds": refinement["iterations"],
        "refine.pairs": refinement["pairs_issued"],
        "refine.ops_packed": packed,
        "refine.ops_applied": applied,
        "refine.apply_ratio": applied / packed if packed else 0.0,
        "refine.free_ops": refine.free_operations_applied,
        "refine.evaluations": refine.operation_evaluations,
    }


def traced_run(instance: Instance, seed: int,
               makespan_s: float) -> Dict[str, object]:
    """The per-layer measurement, split at public entry points.

    Pruning is timed on its own.  The crowd phases run through the
    counting proxy.  On the classic path a second, generation-only
    ``run_acd`` gives the generation time, and refinement is the rest.
    On the pipelined path a pre-pruned ``run_pipeline`` gives the time
    the pipeline hides (``runtime.overlap_s``), and resource usage around
    the proxied full run gives the pool's CPU.  ``makespan_s`` is the
    untraced run's, for the overlap.
    """
    dataset = instance.dataset
    similarity = jaccard_similarity_function()
    start = time.perf_counter()
    candidates = build_candidate_set(dataset.records, similarity,
                                     threshold=PRUNING_THRESHOLD)
    pruning_s = time.perf_counter() - start
    layers: Dict[str, float] = {
        "pruning.s": pruning_s,
        "pruning.candidate_pairs": len(candidates),
        "pruning.records_per_s": len(dataset.records) / pruning_s,
    }
    proxy = CountingAnswers(instance.fresh_answers())
    runtime = dict.fromkeys(
        ("runtime.tasks", "runtime.task_retries", "runtime.worker_crashes",
         "runtime.degraded_serial", "runtime.bytes_shipped",
         "runtime.bytes_per_task", "runtime.parent_cpu_s",
         "runtime.worker_cpu_s", "runtime.worker_busy_ratio",
         "runtime.overlap_s"), 0.0)
    if instance.workload.pipelined:
        timings = StageTimings()
        parent_cpu = _cpu_seconds(resource.RUSAGE_SELF)
        worker_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        piped = run_pipeline(proxy, records=dataset.records,
                             similarity=similarity,
                             workers=PIPELINE_WORKERS, seed=seed,
                             timings=timings)
        traced_makespan_s = time.perf_counter() - start
        parent_cpu = _cpu_seconds(resource.RUSAGE_SELF) - parent_cpu
        worker_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - worker_cpu
        result = piped.result
        if piped.candidates.pairs != candidates.pairs:
            raise ValueError("pipelined pruning differs from "
                             "build_candidate_set")
        start = time.perf_counter()
        split = run_pipeline(instance.fresh_answers(),
                             record_ids=dataset.record_ids,
                             candidates=candidates,
                             workers=PIPELINE_WORKERS, seed=seed)
        prepruned_s = time.perf_counter() - start
        if digest(split.result) != digest(result):
            raise ValueError("pre-pruned pipeline clustering differs from "
                             "the full pipeline's")
        report = piped.report
        runtime.update({
            "runtime.tasks": report.tasks,
            "runtime.task_retries": report.task_retries,
            "runtime.worker_crashes": report.worker_crashes,
            "runtime.degraded_serial": report.degraded_serial,
            "runtime.bytes_shipped":
                timings.meters["pipeline_bytes_shipped_total"],
            "runtime.bytes_per_task":
                timings.meters["pipeline_bytes_per_task"],
            "runtime.parent_cpu_s": parent_cpu,
            "runtime.worker_cpu_s": worker_cpu,
            "runtime.worker_busy_ratio":
                worker_cpu / (PIPELINE_WORKERS * traced_makespan_s),
            "runtime.overlap_s": pruning_s + prepruned_s - makespan_s,
        })
        # The pipeline interleaves generation and refinement across
        # components: their wall-clock shares are not separable here.
        pivot_s = refine_s = 0.0
    else:
        start = time.perf_counter()
        result = run_acd(dataset.record_ids, candidates, proxy, seed=seed)
        acd_s = time.perf_counter() - start
        start = time.perf_counter()
        generation = run_acd(dataset.record_ids, candidates,
                             instance.fresh_answers(), seed=seed,
                             refine=False)
        pivot_s = time.perf_counter() - start
        refine_s = acd_s - pivot_s
        if generation.stats.snapshot() != result.generation_stats:
            raise ValueError("generation-only run disagrees with the full "
                             "run's generation phase")
    layers.update({"pivot.s": pivot_s, "refine.s": refine_s})
    layers.update(_phase_layers(result))
    layers.update({
        "crowd.calls": proxy.calls,
        "crowd.s": proxy.seconds,
        "crowd.component_rounds": proxy.component_rounds(),
        "crowd.wait_s": proxy.wait_seconds(),
    })
    layers.update(runtime)
    return {"layers": layers, **outcome(instance, result)}


def observed_run(instance: Instance, seed: int,
                 trace_dir: Path) -> Dict[str, object]:
    """``run_acd`` with a JSONL trace on disk: the tracing overhead."""
    dataset = instance.dataset
    candidates = build_candidate_set(dataset.records,
                                     jaccard_similarity_function(),
                                     threshold=PRUNING_THRESHOLD)
    trace_path = trace_dir / f"acd-{seed}.trace.jsonl"
    start = time.perf_counter()
    with ObsContext.to_path(trace_path) as obs:
        result = run_acd(dataset.record_ids, candidates, instance.answers,
                         seed=seed, obs=obs)
    acd_s = time.perf_counter() - start
    return {"acd_s": acd_s, "trace_bytes": trace_path.stat().st_size,
            **outcome(instance, result)}

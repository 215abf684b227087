"""Chaos suite: the full pipeline stack under injected faults.

Two fault surfaces are exercised:

- **Crowd-side** — the three pipeline families (ACD, the sequential
  Crowd-Pivot, and the CrowdER+ baseline) against a fault-injecting
  :class:`~repro.crowd.platform.PlatformSimulator` (abandonment,
  timeouts, spammers, adversarial workers, outages, bounded reposts).
- **Process-side** — the supervised worker pool
  (:mod:`repro.runtime.supervisor`) under deterministic worker kills,
  task delays, and poison chunks at the 10k-record tier, for sharded
  pruning and for :func:`~repro.core.acd.run_acd` from records — the
  sharded join's pool, then the generation pool (compared against
  sequential Crowd-Pivot and against pruning-then-inline execution as
  well) — plus phase-checkpoint kill-resume checks
  (:mod:`repro.runtime.checkpoint`): a run killed after a completed
  phase must resume from the snapshot and finish byte-identical to an
  uninterrupted run.

Every pipeline and pruning run must terminate with degradation accounted
rather than crashed on, and every fault schedule must leave results
byte-identical.  The output is machine-readable, for the ``chaos-smoke``
CI job and for regression tracking in ``CHAOS_smoke.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines import crowder_plus
from repro.core.acd import run_acd
from repro.core.generation import crowd_pivot
from repro.crowd.cache import AnswerWrapper
from repro.crowd.faults import FaultModel
from repro.crowd.oracle import CrowdOracle
from repro.crowd.platform import PlatformAnswerFile, PlatformSimulator
from repro.crowd.stats import CrowdStats
from repro.crowd.workforce import Workforce
from repro.datasets.registry import generate
from repro.eval.metrics import pairwise_scores
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.pruning.candidate import build_candidate_set
from repro.similarity.composite import jaccard_similarity_function

#: The pipelines the suite must drive to completion under faults.
CHAOS_PIPELINES = ("ACD", "Crowd-Pivot", "CrowdER+")

#: The process-fault kinds of the runtime matrix (one supervised sharded
#: pruning run each, compared byte-for-byte against the fault-free run).
RUNTIME_PROCESS_FAULTS = ("kill", "delay", "poison")


def _platform_answers(dataset_name: str, dataset, candidates, seed: int,
                      fault_model: FaultModel,
                      workforce_size: int = 80,
                      concurrent_workers: int = 12) -> PlatformAnswerFile:
    workforce = Workforce(
        size=workforce_size, seed=seed,
        spam_fraction=fault_model.spam_fraction,
        adversarial_fraction=fault_model.adversarial_fraction,
    )
    platform = PlatformSimulator(
        workforce=workforce,
        gold=dataset.gold,
        difficulty=difficulty_model(dataset_name),
        concurrent_workers=concurrent_workers,
        seed=seed,
        fault_model=fault_model,
    )
    # Degradation fallback: the pruning phase's machine similarity score.
    return PlatformAnswerFile(
        platform, fallback=lambda pair: candidates.score(*pair)
    )


def run_chaos_pipeline(pipeline: str, dataset_name: str, dataset,
                       candidates, seed: int,
                       fault_model: FaultModel) -> Dict[str, object]:
    """Run one pipeline on a fresh fault-injecting platform; measure it.

    Returns a record with the pipeline's F1, crowd cost snapshot (including
    the fault counters), the degraded-pair count, and the platform's
    simulated wall clock and spend.
    """
    answers = _platform_answers(dataset_name, dataset, candidates, seed,
                                fault_model)
    ids = dataset.record_ids
    if pipeline == "ACD":
        result = run_acd(ids, candidates, answers, seed=seed)
        clustering, stats = result.clustering, result.stats
        oracle_degraded = answers.degraded_pairs()
    elif pipeline == "Crowd-Pivot":
        stats = CrowdStats(num_workers=answers.num_workers)
        clustering = crowd_pivot(ids, candidates,
                                 CrowdOracle(answers, stats=stats), seed=seed)
        oracle_degraded = answers.degraded_pairs()
    elif pipeline == "CrowdER+":
        stats = CrowdStats(num_workers=answers.num_workers)
        oracle = CrowdOracle(answers, stats=stats)
        clustering = crowder_plus(ids, candidates, oracle)
        oracle_degraded = oracle.degraded_pairs()
    else:
        raise ValueError(f"unknown chaos pipeline {pipeline!r}")
    scores = pairwise_scores(clustering, dataset.gold)
    platform = answers.platform
    return {
        "pipeline": pipeline,
        "seed": seed,
        "f1": round(scores.f1, 4),
        "stats": stats.snapshot(),
        "degraded_pairs": len(oracle_degraded),
        "platform_clock_seconds": round(platform.clock_seconds, 1),
        "platform_cost_cents": round(platform.total_cost_cents(), 2),
        "fault_events": len(platform.fault_events()),
    }


def _candidate_fingerprint(candidates) -> tuple:
    """The byte-identity key of a candidate set (pairs, scores, τ)."""
    return (candidates.pairs,
            tuple(sorted(candidates.machine_scores.items())),
            candidates.threshold)


def _runtime_counters(obs) -> Dict[str, int]:
    """The supervisor's ``runtime_*_total`` counters from an ObsContext."""
    counters = obs.metrics.as_dict()["counters"]
    return {name: int(value) for name, value in sorted(counters.items())
            if name.startswith("runtime_")}


def run_runtime_process_faults(
    records: int = 10_000,
    seed: int = 0,
    shards: int = 8,
    processes: int = 4,
    faults_per_kind: int = 2,
) -> List[Dict[str, object]]:
    """The process-fault matrix: supervised sharded pruning under chaos.

    Runs the sharded prefix join over a ``records``-sized *largescale*
    population once fault-free and once per fault kind in
    :data:`RUNTIME_PROCESS_FAULTS` (deterministic worker kills, task
    delays, poison chunks injected via
    :class:`~repro.runtime.faults.ProcessFaultPlan`), asserting the
    candidate set stays byte-identical in every schedule.  Returns one
    record per fault kind with the supervisor's fault counters.
    """
    from repro.datasets.largescale import BASE_RECORDS
    from repro.obs import ObsContext
    from repro.runtime.faults import ProcessFaultPlan
    from repro.runtime.supervisor import SupervisorPolicy

    dataset = generate("largescale", scale=records / BASE_RECORDS, seed=seed)
    policy = SupervisorPolicy(backoff_base_s=0.01)
    # The delay run gets a straggler deadline shorter than the injected
    # delay, so re-dispatch (first result wins) is what finishes it.
    straggler_policy = SupervisorPolicy(backoff_base_s=0.01,
                                        task_deadline_s=0.25)

    def prune(fault_plan=None, obs=None, run_policy=policy):
        return build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD, shards=shards, parallel=processes,
            supervisor_policy=run_policy, fault_plan=fault_plan, obs=obs,
        )

    reference = _candidate_fingerprint(prune())
    plans = {
        "kill": ProcessFaultPlan.sample(shards, seed=seed,
                                        kills=faults_per_kind),
        "delay": ProcessFaultPlan.sample(shards, seed=seed,
                                         delays=faults_per_kind,
                                         delay_seconds=0.6),
        "poison": ProcessFaultPlan.sample(shards, seed=seed,
                                          poisons=faults_per_kind),
    }
    results = []
    for kind in RUNTIME_PROCESS_FAULTS:
        obs = ObsContext()
        candidates = prune(
            fault_plan=plans[kind], obs=obs,
            run_policy=straggler_policy if kind == "delay" else policy,
        )
        results.append({
            "check": "process-fault",
            "fault": kind,
            "records": records,
            "shards": shards,
            "processes": processes,
            "candidate_pairs": len(candidates),
            "byte_identical": (_candidate_fingerprint(candidates)
                               == reference),
            "runtime_counters": _runtime_counters(obs),
        })
    return results


def _pipeline_result_fingerprint(result) -> tuple:
    """The byte-identity key of a pool ACD run (cluster ids included —
    the worker-count contract is id-exact, not just partition-exact)."""
    return (
        tuple(sorted((key, tuple(map(tuple, value))
                      if isinstance(value, list) else value)
                     for key, value in result.clustering.to_state().items())),
        tuple(sorted(result.stats.snapshot().items())),
        tuple(result.stats.batch_sizes),
        tuple(sorted(result.generation_stats.items())),
        tuple(sorted(result.refinement_stats.items())),
    )


def run_pipeline_process_faults(
    records: int = 10_000,
    seed: int = 0,
    shards: int = 8,
    workers: int = 4,
    faults_per_kind: int = 2,
) -> List[Dict[str, object]]:
    """The two-pool fault matrix: ``run_acd`` from records under chaos.

    Runs :func:`~repro.core.acd.run_acd` from records on ``workers``
    processes — the sharded pruning join on its pool, then grouped
    component pivot tasks on the generation pool, then global
    refinement — over a *confused* ``records``-sized largescale
    population once fault-free and once per fault kind in
    :data:`RUNTIME_PROCESS_FAULTS`.  The plan is keyed by task index, so
    it fires in each pool in turn: its counters in ``runtime_counters``
    are the two pools' sum.  Each row records three checks:

    - ``byte_identical`` — the final clustering (cluster ids included),
      crowd stats, and phase stats equal the fault-free pool run's;
    - ``crowd_pivot_identical`` — the run's generation clustering (read
      back from its ``generation`` checkpoint) equals sequential
      Crowd-Pivot's for the same permutation (Lemma 4), an algorithm
      that shares no code with the component executor;
    - ``barrier_identical`` — the fault-free run equals the barrier
      route: the full pruning join first, then the pre-pruned run
      inline.
    """
    from repro.core.clustering import Clustering
    from repro.crowd.cache import AnswerFile
    from repro.crowd.worker import WorkerPool
    from repro.datasets.largescale import BASE_RECORDS
    from repro.obs import ObsContext
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.faults import ProcessFaultPlan
    from repro.runtime.supervisor import SupervisorPolicy

    dataset = generate("largescale", scale=records / BASE_RECORDS, seed=seed,
                       confusion=0.25)
    crowd = WorkerPool(difficulty=difficulty_model("largescale"),
                       num_workers=3)
    policy = SupervisorPolicy(backoff_base_s=0.01)
    similarity = jaccard_similarity_function()

    def run(fault_plan=None, obs=None):
        # AnswerFile resolves each pair from a pair-seeded RNG, so a
        # fresh instance per run replays identical answers.
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp, config={"seed": seed})
            out = run_acd(
                answers=AnswerFile(dataset.gold, crowd),
                records=dataset.records, similarity=similarity,
                threshold=PRUNING_THRESHOLD, pruning_shards=shards,
                workers=workers, seed=seed, checkpoints=store,
                supervisor_policy=policy, fault_plan=fault_plan, obs=obs,
            )
            generation = Clustering.from_state(
                store.load("generation")["clustering"])
        return _pipeline_result_fingerprint(out), out, generation

    reference, reference_out, _ = run()
    sequential = crowd_pivot(dataset.record_ids, reference_out.candidates,
                             CrowdOracle(AnswerFile(dataset.gold, crowd)),
                             seed=seed).to_state()
    barrier_candidates = build_candidate_set(
        dataset.records, similarity, threshold=PRUNING_THRESHOLD,
        shards=shards, parallel=workers,
    )
    barrier = run_acd(dataset.record_ids, barrier_candidates,
                      AnswerFile(dataset.gold, crowd), seed=seed)
    barrier_identical = (
        _pipeline_result_fingerprint(barrier) == reference
        and _candidate_fingerprint(barrier_candidates)
        == _candidate_fingerprint(reference_out.candidates)
    )
    plans = {
        "kill": ProcessFaultPlan.sample(shards, seed=seed,
                                        kills=faults_per_kind),
        # No straggler deadline: pivot tasks sleep on crowd latency by
        # design, so the delay schedule is ridden out rather than raced.
        "delay": ProcessFaultPlan.sample(shards, seed=seed,
                                         delays=faults_per_kind,
                                         delay_seconds=0.6),
        "poison": ProcessFaultPlan.sample(shards, seed=seed,
                                          poisons=faults_per_kind),
    }
    results = []
    for kind in RUNTIME_PROCESS_FAULTS:
        obs = ObsContext()
        fingerprint, _, generation = run(fault_plan=plans[kind], obs=obs)
        results.append({
            "check": "pipeline-fault",
            "fault": kind,
            "records": records,
            "shards": shards,
            "processes": workers,
            "byte_identical": fingerprint == reference,
            "crowd_pivot_identical": generation.to_state() == sequential,
            "barrier_identical": barrier_identical,
            "runtime_counters": _runtime_counters(obs),
        })
    return results


class _CountingAnswers(AnswerWrapper):
    """Pass-through answer source counting fresh pair resolutions."""

    def __init__(self, source):
        super().__init__(source)
        self.resolved_pairs = 0

    def confidence(self, record_a: int, record_b: int) -> float:
        self.resolved_pairs += 1
        return self._inner.confidence(record_a, record_b)


def _acd_fingerprint(result) -> tuple:
    """The byte-identity key of a finished ACD run."""
    return (
        tuple(tuple(sorted(cluster)) for cluster in
              result.clustering.as_sets()),
        tuple(sorted(result.stats.snapshot().items())),
        tuple(result.stats.batch_sizes),
        tuple(sorted(result.generation_stats.items())),
        tuple(sorted(result.refinement_stats.items())),
    )


def run_checkpoint_kill_resume(
    dataset_name: str = "restaurant",
    scale: float = 0.1,
    seed: int = 0,
    method_seed: int = 7,
) -> List[Dict[str, object]]:
    """Kill-resume checks for both phase checkpoints.

    For each checkpointed phase the check emulates a run killed right
    after the phase's snapshot landed, then resumes in a fresh "process"
    (fresh instance, fresh answer source) and asserts the final result is
    byte-identical to an uninterrupted run — and that the resumed run did
    not re-execute the checkpointed phase (no candidate re-scoring for
    ``pruning``; only refinement-phase pair resolutions for
    ``generation``).
    """
    from repro.experiments.runner import prepare_instance
    from repro.runtime.checkpoint import (
        CheckpointStore,
        candidate_state,
        restore_candidates,
    )

    config = {"dataset": dataset_name, "scale": scale, "seed": seed,
              "method_seed": method_seed}

    def fresh_instance():
        return prepare_instance(dataset_name, "3w", scale=scale, seed=seed)

    baseline_instance = fresh_instance()
    baseline = run_acd(baseline_instance.record_ids,
                       baseline_instance.candidates,
                       _CountingAnswers(baseline_instance.answers),
                       seed=method_seed)
    reference = _acd_fingerprint(baseline)
    checks: List[Dict[str, object]] = []

    with tempfile.TemporaryDirectory() as tmp:
        # -- pruning: the killed run persisted the candidate set, died
        # before the crowd phases; the resumed run restores it and never
        # re-runs the join.
        store = CheckpointStore(Path(tmp) / "pruning", config=config)
        store.save("pruning", candidate_state(baseline_instance.candidates))
        resumed = CheckpointStore(Path(tmp) / "pruning", config=config)
        candidates = restore_candidates(resumed.load("pruning"))
        instance = prepare_instance(dataset_name, "3w", scale=scale,
                                    seed=seed, candidates=candidates)
        result = run_acd(instance.record_ids, instance.candidates,
                         instance.answers, seed=method_seed)
        checks.append({
            "check": "kill-resume",
            "phase": "pruning",
            "byte_identical": _acd_fingerprint(result) == reference,
            "candidates_identical": (
                _candidate_fingerprint(candidates)
                == _candidate_fingerprint(baseline_instance.candidates)
            ),
            "phase_reexecuted": False,
        })

        # -- generation: the killed run snapshotted phase 2, died during
        # refinement; the resumed run restores the clustering + answers
        # and only resolves refinement-phase pairs against the source.
        store = CheckpointStore(Path(tmp) / "generation", config=config)
        first_instance = fresh_instance()
        run_acd(first_instance.record_ids, first_instance.candidates,
                first_instance.answers, seed=method_seed, checkpoints=store)
        # The finished run also snapshotted the refinement phase; drop it
        # to emulate a process that died *during* refinement, so the
        # resume below genuinely exercises the generation restore path.
        store.clear("refinement")
        resumed_store = CheckpointStore(Path(tmp) / "generation",
                                        config=config)
        resume_instance = fresh_instance()
        counting = _CountingAnswers(resume_instance.answers)
        result = run_acd(resume_instance.record_ids,
                         resume_instance.candidates, counting,
                         seed=method_seed, checkpoints=resumed_store,
                         resume=True)
        generation_pairs = int(baseline.generation_stats["pairs_issued"])
        refinement_pairs = int(baseline.stats.pairs_issued) - generation_pairs
        checks.append({
            "check": "kill-resume",
            "phase": "generation",
            "byte_identical": _acd_fingerprint(result) == reference,
            "resolved_pairs_resumed": counting.resolved_pairs,
            "resolved_pairs_baseline": int(baseline.stats.pairs_issued),
            "phase_reexecuted": counting.resolved_pairs > refinement_pairs,
        })

        # -- refinement: the killed run snapshotted the finished pipeline,
        # died before reporting; the resumed run restores clustering,
        # stats, and diagnostics wholesale and never touches the crowd.
        store = CheckpointStore(Path(tmp) / "refinement", config=config)
        first_instance = fresh_instance()
        run_acd(first_instance.record_ids, first_instance.candidates,
                first_instance.answers, seed=method_seed, checkpoints=store)
        resumed_store = CheckpointStore(Path(tmp) / "refinement",
                                        config=config)
        resume_instance = fresh_instance()
        counting = _CountingAnswers(resume_instance.answers)
        result = run_acd(resume_instance.record_ids,
                         resume_instance.candidates, counting,
                         seed=method_seed, checkpoints=resumed_store,
                         resume=True)
        checks.append({
            "check": "kill-resume",
            "phase": "refinement",
            "byte_identical": _acd_fingerprint(result) == reference,
            "resolved_pairs_resumed": counting.resolved_pairs,
            "resolved_pairs_baseline": int(baseline.stats.pairs_issued),
            "phase_reexecuted": counting.resolved_pairs > 0,
        })
    return checks


def run_chaos_suite(
    dataset_name: str = "restaurant",
    scale: float = 0.1,
    seeds: Iterable[int] = (0, 1, 2),
    fault_model: Optional[FaultModel] = None,
    pipelines: Sequence[str] = CHAOS_PIPELINES,
    include_runtime: bool = True,
    runtime_records: int = 10_000,
) -> Dict[str, object]:
    """Drive every pipeline through the fault-injecting platform.

    Args:
        dataset_name: Registered dataset ('paper', 'restaurant', 'product').
        scale: Dataset size multiplier (keep small — every pipeline posts
            real simulated batches).
        seeds: One full pipeline sweep per seed.
        fault_model: Injected fault profile (default:
            :meth:`FaultModel.default`, the hostile-but-survivable AMT).
        pipelines: Which pipelines to drive.
        include_runtime: Also run the pruning process-fault matrix
            (:func:`run_runtime_process_faults`), the generation-pool
            fault matrix (:func:`run_pipeline_process_faults`), and the
            checkpoint kill-resume checks
            (:func:`run_checkpoint_kill_resume`).
        runtime_records: Record count of the sharded tier the pruning
            and generation-pool fault matrices run at.

    Returns:
        A machine-readable summary: the fault knobs used, one record per
        (seed, pipeline), the runtime-chaos records, and aggregate fault
        totals.  Every pipeline that reached its F1 terminated, and every
        runtime check is byte-identical — that is the property under test.
    """
    fault = fault_model if fault_model is not None else FaultModel.default()
    runs = []
    for seed in seeds:
        dataset = generate(dataset_name, scale=scale, seed=seed)
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD,
        )
        for pipeline in pipelines:
            runs.append(run_chaos_pipeline(
                pipeline, dataset_name, dataset, candidates, seed, fault,
            ))
    totals = {
        key: sum(run["stats"].get(key, 0) for run in runs)
        for key in ("retries", "timeouts", "abandonments",
                    "degraded_pairs", "quorum_stops")
    }
    runtime_checks: List[Dict[str, object]] = []
    if include_runtime:
        runtime_checks.extend(run_runtime_process_faults(
            records=runtime_records, seed=min(seeds, default=0),
        ))
        runtime_checks.extend(run_pipeline_process_faults(
            records=runtime_records, seed=min(seeds, default=0),
        ))
        runtime_checks.extend(run_checkpoint_kill_resume(
            dataset_name=dataset_name, scale=scale,
            seed=min(seeds, default=0),
        ))
    runtime_ok = all(
        check["byte_identical"]
        and check.get("barrier_identical", True)
        and check.get("crowd_pivot_identical", True)
        and not check.get("phase_reexecuted", False)
        for check in runtime_checks
    )
    runtime_fault_totals: Dict[str, int] = {}
    for check in runtime_checks:
        for name, value in check.get("runtime_counters", {}).items():
            runtime_fault_totals[name] = (
                runtime_fault_totals.get(name, 0) + value
            )
    return {
        "suite": "chaos",
        "dataset": dataset_name,
        "scale": scale,
        "seeds": list(seeds),
        "fault_model": {
            "abandonment_probability": fault.abandonment_probability,
            "timeout_seconds": fault.timeout_seconds,
            "spam_fraction": fault.spam_fraction,
            "adversarial_fraction": fault.adversarial_fraction,
            "outages": [list(window) for window in fault.outages],
            "max_reposts": fault.max_reposts,
            "early_quorum": fault.early_quorum,
        },
        "runs": runs,
        "fault_totals": totals,
        "runtime_checks": runtime_checks,
        "runtime_fault_totals": runtime_fault_totals,
        "all_completed": (
            len(runs) == len(list(seeds)) * len(list(pipelines))
            and (runtime_ok or not include_runtime)
        ),
    }

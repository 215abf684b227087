"""The end-to-end ACD pipeline (Section 3): the one ACD executor.

Wires the three phases together: pruning (phase 1 — a
:class:`~repro.pruning.candidate.CandidateSet` passed in, or computed here
from records and a similarity), PC-Pivot cluster generation (phase 2), and
PC-Refine cluster refinement (phase 3).  Both crowd phases share one
:class:`~repro.crowd.oracle.CrowdOracle`, so the refinement phase starts
from the generation phase's answer set ``A`` and all costs accumulate into
a single :class:`~repro.crowd.stats.CrowdStats`.

Generation runs per connected component of the candidate graph, inline
when ``workers <= 1`` and on one supervised worker pool otherwise;
:mod:`repro.core.generation` states the decomposition and its
determinism contract.  The result is byte-identical for every worker
count, shard count, fault plan and entry shape.  The generation pool is
forked first, before any pruning, so its workers carry only the caller's
heap.  Given records, pruning then runs and finishes before generation
starts — the paper's phase order; with several shards and workers the
join runs on its own supervised pool
(:func:`~repro.pruning.candidate.build_candidate_set`).  Refinement is
the global PC-Refine loop, in this process, after the generation pool
has closed.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS
from repro.core.generation import (
    DEFAULT_EPSILON,
    PCPivotDiagnostics,
    generation_pool,
    pc_pivot,
    pc_pivot_on_pool,
)
from repro.core.pc_refine import (
    DEFAULT_THRESHOLD_DIVISOR,
    PCRefineDiagnostics,
    pc_refine,
)
from repro.core.permutation import Permutation
from repro.crowd.oracle import CrowdOracle
from repro.crowd.stats import CrowdStats
from repro.obs import ObsContext, maybe_span
from repro.pruning.candidate import (
    DEFAULT_THRESHOLD,
    CandidateSet,
    build_candidate_set,
)
from repro.runtime.autoshard import resolve_auto_shards
from repro.runtime.checkpoint import (
    CheckpointStore,
    candidate_state,
    restore_candidates,
)
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import (
    RuntimeReport,
    SupervisorPolicy,
    uses_pool,
)


@dataclass
class ACDResult:
    """Everything a run of ACD produces.

    Attributes:
        clustering: The final deduplication clustering.
        stats: Whole-pipeline crowdsourcing costs.
        generation_stats: Snapshot of the costs after phase 2 only.
        refinement_stats: Phase-3 costs (total minus generation).
        pivot_diagnostics: Per-round PC-Pivot measurements (one entry
            per merged component round).
        refine_diagnostics: Per-round PC-Refine measurements (``None`` when
            refinement was skipped).
        candidates: The pruning phase's candidate set (passed in,
            computed, or restored from a checkpoint).
        runtime: Fault-handling telemetry and ``bytes_shipped`` of the
            worker pools this run forked, summed: the pruning join's and
            the generation pool (all zeros when no pool ran).
    """

    clustering: Clustering
    stats: CrowdStats
    generation_stats: Dict[str, float]
    refinement_stats: Dict[str, float]
    pivot_diagnostics: Optional[PCPivotDiagnostics]
    refine_diagnostics: Optional[PCRefineDiagnostics]
    candidates: Optional[CandidateSet] = None
    runtime: RuntimeReport = field(default_factory=RuntimeReport)


def run_acd(
    record_ids: Optional[Iterable[int]] = None,
    candidates: Optional[CandidateSet] = None,
    answers=None,
    epsilon: float = DEFAULT_EPSILON,
    threshold_divisor: float = DEFAULT_THRESHOLD_DIVISOR,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    seed: Optional[int] = None,
    permutation: Optional[Permutation] = None,
    refine: bool = True,
    pairs_per_hit: int = 20,
    ranking: str = "ratio",
    max_refinement_pairs: Optional[int] = None,
    obs: Optional[ObsContext] = None,
    checkpoints: Optional[CheckpointStore] = None,
    resume: bool = False,
    *,
    records: Optional[Sequence] = None,
    similarity=None,
    threshold: float = DEFAULT_THRESHOLD,
    pruning_shards: Union[int, str] = "auto",
    workers: int = 0,
    supervisor_policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
) -> ACDResult:
    """Run the full ACD pipeline.

    Two entry shapes:

    - ``record_ids`` + ``candidates`` — pruning already done.
    - ``records`` + ``similarity`` — pruning runs here first
      (:func:`~repro.pruning.candidate.build_candidate_set`), then
      generation starts as on the pre-pruned entry.

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: Phase-1 output ``S`` with machine scores.
        answers: The shared crowd answer source ``F``.  Wrap it in a
            :class:`~repro.crowd.persistence.JournalingAnswerFile` to make
            the run crash-safe: a killed run re-invoked on the same
            journal resumes where it stopped and returns a byte-identical
            :class:`ACDResult`.  Any source works inline; a worker pool
            (``workers > 1``) requires a ``pair_deterministic`` one.
        epsilon: PC-Pivot wasted-pair budget (paper: 0.1).
        threshold_divisor: PC-Refine's ``x`` in ``T = N_m / x`` (paper: 8).
        num_buckets: Histogram granularity (paper: 20).
        seed: Seed for the pivot permutation (ACD is randomized).
        permutation: Explicit permutation overriding ``seed``.
        refine: Run phase 3?  ``False`` gives the paper's "PC-Pivot"
            crippled baseline.
        pairs_per_hit: HIT packing for the cost model.
        ranking: PC-Refine operation ranking ("ratio" per the paper, or
            "benefit" for the cost-blind ablation).
        max_refinement_pairs: Optional hard cap on the refinement phase's
            crowdsourced pairs — the anytime/budgeted variant.
        obs: Optional :class:`~repro.obs.ObsContext`.  When attached, the
            run opens an ``acd`` span with ``generation`` / ``refinement``
            children, every crowd iteration and per-round decision is
            traced, and — if ``obs.manifest_path`` is set — a run manifest
            is written atomically on completion.  A pool run also sets the
            ``pipeline_bytes_shipped_total`` / ``pipeline_bytes_per_task``
            gauges.  ``None`` (the default) changes nothing: the result is
            byte-identical to an unobserved run.
        checkpoints: Optional
            :class:`~repro.runtime.checkpoint.CheckpointStore`.  When
            attached, the candidate set computed here is snapshotted as
            the ``pruning`` checkpoint, the complete cluster-generation
            state (clustering, cost counters, the answer set ``A`` in
            arrival order) after phase 2 as the ``generation``
            checkpoint, and the finished pipeline state after phase 3 as
            the ``refinement`` checkpoint.
        resume: With ``checkpoints``, restore the deepest finished
            phase's checkpoint when one exists (and its recorded
            configuration matches the store's): a ``refinement``
            checkpoint skips both crowd phases, a ``generation``
            checkpoint skips phase 2 and continues into refinement, a
            ``pruning`` checkpoint skips the join.  The final
            :class:`ACDResult` is byte-identical to an uninterrupted run
            either way, and a run resumed past generation forks no pool.
        records: Records to prune (instead of ``record_ids`` +
            ``candidates``).
        similarity: The pruning similarity (with ``records``).
        threshold: The pruning threshold (with ``records``).
        pruning_shards: Prefix-join shard count, or ``"auto"`` for the
            heuristic of :mod:`repro.runtime.autoshard` (with
            ``records``).
        workers: Processes of the supervised generation pool, and of the
            pruning join's own pool when it runs several shards; ``<= 1``
            runs everything in this process.  Refinement always runs
            here, after the generation pool closes.
        supervisor_policy: Fault-handling knobs of those pools.
        fault_plan: Deterministic process-fault injection (the chaos
            suite), applied to each pool in turn: it is keyed by task
            index, so it fires in the pruning pool and again in the
            generation pool.

    The sequential Crowd-Pivot / Crowd-Refine are
    :func:`repro.core.generation.crowd_pivot` and
    :func:`repro.core.refine.crowd_refine`.

    Returns:
        The :class:`ACDResult`.
    """
    if answers is None:
        raise TypeError("run_acd() needs an answer source (answers=)")
    if (records is None) == (record_ids is None and candidates is None):
        raise ValueError(
            "pass either record_ids+candidates (pruning done) or "
            "records+similarity (prune here)"
        )
    if records is not None and similarity is None:
        raise ValueError("records requires a similarity function")
    if records is None and (record_ids is None or candidates is None):
        raise ValueError("the pre-pruned entry needs both record_ids and "
                         "candidates")
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")

    ids = ([record.record_id for record in records]
           if records is not None else list(record_ids))
    if permutation is None:
        permutation = Permutation.random(ids, seed=seed)
    config = {
        "epsilon": epsilon,
        "threshold_divisor": threshold_divisor,
        "num_buckets": num_buckets,
        "refine": refine,
        "pairs_per_hit": pairs_per_hit,
        "ranking": ranking,
        "max_refinement_pairs": max_refinement_pairs,
        "workers": workers,
    }

    resuming = checkpoints is not None and resume
    restored_refinement = (checkpoints.load("refinement")
                           if resuming and refine else None)
    restored_generation = (checkpoints.load("generation")
                           if resuming and restored_refinement is None
                           else None)
    restored = (restored_refinement if restored_refinement is not None
                else restored_generation)
    stats = (CrowdStats.from_state(restored["stats"])
             if restored is not None
             else CrowdStats(pairs_per_hit=pairs_per_hit,
                             num_workers=answers.num_workers))
    oracle = CrowdOracle(answers, stats=stats, obs=obs)
    pooled = restored is None and uses_pool(workers, obs=obs,
                                            context="run_acd")

    runtime = RuntimeReport()
    refine_diagnostics: Optional[PCRefineDiagnostics] = None
    with ExitStack() as pool_scope:
        # Fork before pruning: the workers inherit this heap, not the
        # one the join leaves behind.  The scope closes them on every
        # exit path; a finished generation closes them early.
        pool = (pool_scope.enter_context(generation_pool(
            oracle.source, permutation, epsilon, workers=workers, obs=obs,
            supervisor_policy=supervisor_policy, fault_plan=fault_plan,
        )) if pooled else None)
        if records is not None:
            num_shards = resolve_auto_shards(
                records=len(ids), requested=pruning_shards,
                processes=workers, obs=obs)
            config["pruning_shards"] = num_shards
            restored_pruning = (checkpoints.load("pruning")
                                if resuming else None)
            if restored_pruning is not None:
                candidates = restore_candidates(restored_pruning)
            else:
                candidates = build_candidate_set(
                    records, similarity, threshold=threshold,
                    shards=num_shards, parallel=workers, obs=obs,
                    supervisor_policy=supervisor_policy,
                    fault_plan=fault_plan,
                )
                runtime.add(candidates.runtime)
                if checkpoints is not None:
                    checkpoints.save("pruning", candidate_state(candidates))

        with maybe_span(obs, "acd", records=len(ids),
                        candidate_pairs=len(candidates)):
            if restored_refinement is not None:
                (clustering, generation_stats, pivot_diagnostics,
                 refine_diagnostics) = _restore(
                    "refinement", restored_refinement, oracle, obs)
            else:
                if restored_generation is not None:
                    clustering, _, pivot_diagnostics, _ = _restore(
                        "generation", restored_generation, oracle, obs)
                else:
                    with maybe_span(obs, "generation"):
                        pivot_diagnostics = PCPivotDiagnostics()
                        if pool is None:
                            clustering = pc_pivot(
                                ids, candidates, oracle, epsilon=epsilon,
                                permutation=permutation,
                                diagnostics=pivot_diagnostics, obs=obs,
                            )
                        else:
                            clustering = pc_pivot_on_pool(
                                pool, ids, candidates, oracle, epsilon,
                                permutation, pivot_diagnostics, obs,
                            )
                            pool_scope.close()
                            runtime.add(pool.report)
                    if checkpoints is not None:
                        checkpoints.save("generation", _generation_state(
                            clustering, oracle, answers, pivot_diagnostics))
                generation_stats = stats.snapshot()

                if refine:
                    with maybe_span(obs, "refinement"):
                        refine_diagnostics = PCRefineDiagnostics()
                        clustering = pc_refine(
                            clustering, candidates, oracle,
                            num_records=len(ids),
                            threshold_divisor=threshold_divisor,
                            num_buckets=num_buckets,
                            diagnostics=refine_diagnostics,
                            ranking=ranking,
                            max_refinement_pairs=max_refinement_pairs,
                            obs=obs,
                        )
                    if checkpoints is not None:
                        checkpoints.save("refinement", _refinement_state(
                            clustering, oracle, answers, generation_stats,
                            pivot_diagnostics, refine_diagnostics))

    total = stats.snapshot()
    result = ACDResult(
        clustering=clustering,
        stats=stats,
        generation_stats=generation_stats,
        refinement_stats={
            key: total[key] - generation_stats[key] for key in total
        },
        pivot_diagnostics=pivot_diagnostics,
        refine_diagnostics=refine_diagnostics,
        candidates=candidates,
        runtime=runtime,
    )
    _finish(result, obs, config, seed)
    return result


def _finish(result: ACDResult, obs: Optional[ObsContext],
            config: Dict[str, object], seed: Optional[int]) -> None:
    """Roll the finished run up into gauges and (optionally) a manifest.

    ``obs.manifest_extra`` — caller context such as the CLI's dataset
    fingerprint and command-line config — is merged in: its ``config`` /
    ``seeds`` / ``dataset`` / ``result`` keys override or extend the ones
    assembled here.
    """
    if obs is None:
        return
    from repro.obs import build_manifest, write_manifest

    gauges = obs.metrics
    gauges.gauge("clusters", help="Final cluster count").set(
        len(result.clustering)
    )
    gauges.gauge("crowd_cost_cents", help="Total crowd payment").set(
        result.stats.monetary_cost_cents
    )
    runtime = result.runtime
    if runtime.tasks:
        gauges.gauge(
            "pipeline_bytes_shipped_total",
            help="Pickled task payload bytes shipped to the pool",
        ).set(runtime.bytes_shipped)
        gauges.gauge(
            "pipeline_bytes_per_task",
            help="Mean pickled payload bytes per pool task",
        ).set(round(runtime.bytes_shipped / runtime.tasks, 2))
    if obs.manifest_path is None:
        return
    extra = obs.manifest_extra
    manifest = build_manifest(
        command=str(extra.get("command", "run_acd")),
        config={**config, **extra.get("config", {})},
        seeds={"pivot_seed": seed, **extra.get("seeds", {})},
        stats=result.stats.snapshot(),
        metrics=obs.metrics.as_dict(),
        spans=obs.tracer.span_summaries(),
        dataset=extra.get("dataset"),
        generation_stats=result.generation_stats,
        refinement_stats=result.refinement_stats,
        result=extra.get("result"),
        trace_path=obs.trace_path,
    )
    obs.flush()
    write_manifest(obs.manifest_path, manifest)


def _restore(phase: str, restored, oracle: CrowdOracle, obs):
    """Rebuild a phase's state from its checkpoint payload.

    Returns ``(clustering, generation_stats, pivot_diagnostics,
    refine_diagnostics)`` — ``generation_stats`` only for the
    ``refinement`` phase.  The oracle (already carrying the restored
    stats) is seeded with ``A`` in its recorded arrival order, and a
    journaling answer source's replay cursor is fast-forwarded past the
    batches the checkpoint covers so their fault counters are not merged
    twice.
    """
    try:
        clustering = Clustering.from_state(restored["clustering"])
        # JSON round-trips int vs float exactly; coercing here would
        # turn integer counters into floats and break byte-identity.
        generation_stats = (
            {str(key): value for key, value
             in restored["generation_stats"].items()}
            if phase == "refinement" else None)
        ordered = {(int(a), int(b)): float(confidence)
                   for a, b, confidence in restored["answers"]}
        raw_pivot = restored.get("pivot_diagnostics")
        pivot_diagnostics = (PCPivotDiagnostics.from_state(raw_pivot)
                             if raw_pivot is not None else None)
        raw_refine = restored.get("refine_diagnostics")
        refine_diagnostics = (PCRefineDiagnostics.from_state(raw_refine)
                              if raw_refine is not None else None)
        journal_batches = restored.get("journal_batches")
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ValueError(
            f"malformed {phase} checkpoint payload ({error})"
        ) from None
    oracle.seed_known(ordered)
    if journal_batches is not None:
        skip = getattr(oracle.source, "skip_replayed_batches", None)
        if skip is not None:
            skip(int(journal_batches))
    if obs is not None:
        obs.event(
            "runtime.checkpoint_restore",
            phase=phase,
            clusters=len(clustering),
            answers=len(ordered),
            iterations=oracle.stats.iterations,
        )
    return (clustering, generation_stats, pivot_diagnostics,
            refine_diagnostics)


def _generation_state(clustering: Clustering, oracle: CrowdOracle,
                      answers, diagnostics: Optional[PCPivotDiagnostics]):
    """The complete phase-2 state as a ``generation`` checkpoint payload.

    Captures everything the refinement phase inherits: the clustering
    (with cluster ids and the id counter — merge tie-breaking depends on
    them), the cost counters, the answer set ``A`` in arrival order (so
    the restored oracle's answer log matches), the journal batch count at
    snapshot time (so a resumed run's journal replay cursor skips the
    batches this checkpoint already accounts for), and the phase-2
    diagnostics.
    """
    journal = getattr(answers, "journal", None)
    return {
        "clustering": clustering.to_state(),
        "stats": oracle.stats.to_state(),
        "answers": [[a, b, confidence]
                    for (a, b), confidence in oracle.known_in_order()],
        "journal_batches": (journal.num_batches
                            if journal is not None else None),
        "pivot_diagnostics": (diagnostics.to_state()
                              if diagnostics is not None else None),
    }


def _refinement_state(clustering: Clustering, oracle: CrowdOracle, answers,
                      generation_stats: Dict[str, float],
                      pivot_diagnostics: Optional[PCPivotDiagnostics],
                      refine_diagnostics: Optional[PCRefineDiagnostics]):
    """The finished pipeline state as a ``refinement`` checkpoint payload.

    The ``generation`` payload of the final state plus what
    :class:`ACDResult` needs beyond it: the frozen generation-phase
    snapshot (the refinement stats are the total minus it) and the
    phase-3 diagnostics.
    """
    state = _generation_state(clustering, oracle, answers, pivot_diagnostics)
    state["generation_stats"] = dict(generation_stats)
    state["refine_diagnostics"] = (refine_diagnostics.to_state()
                                   if refine_diagnostics is not None
                                   else None)
    return state

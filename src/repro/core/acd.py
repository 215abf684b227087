"""The end-to-end ACD pipeline (Section 3).

Wires the three phases together: pruning (phase 1, supplied as a
:class:`~repro.pruning.candidate.CandidateSet`), PC-Pivot cluster generation
(phase 2), and PC-Refine cluster refinement (phase 3).  Both crowd phases
share one :class:`~repro.crowd.oracle.CrowdOracle`, so the refinement phase
starts from the generation phase's answer set ``A`` and all costs accumulate
into a single :class:`~repro.crowd.stats.CrowdStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS
from repro.core.pc_pivot import (
    DEFAULT_EPSILON,
    PCPivotDiagnostics,
    pc_pivot,
)
from repro.core.pc_refine import (
    DEFAULT_THRESHOLD_DIVISOR,
    PCRefineDiagnostics,
    pc_refine,
)
from repro.core.permutation import Permutation
from repro.core.pivot import crowd_pivot
from repro.core.refine import crowd_refine
from repro.crowd.cache import AnswerFile
from repro.crowd.oracle import CrowdOracle
from repro.crowd.persistence import JournalingAnswerFile
from repro.crowd.stats import CrowdStats
from repro.obs import ObsContext, maybe_span
from repro.pruning.candidate import CandidateSet
from repro.runtime.checkpoint import CheckpointStore


@dataclass
class ACDResult:
    """Everything a run of ACD produces.

    Attributes:
        clustering: The final deduplication clustering.
        stats: Whole-pipeline crowdsourcing costs.
        generation_stats: Snapshot of the costs after phase 2 only.
        refinement_stats: Phase-3 costs (total minus generation).
        pivot_diagnostics: Per-round PC-Pivot measurements.
        refine_diagnostics: Per-round PC-Refine measurements (``None`` when
            refinement was skipped).
    """

    clustering: Clustering
    stats: CrowdStats
    generation_stats: Dict[str, float]
    refinement_stats: Dict[str, float]
    pivot_diagnostics: Optional[PCPivotDiagnostics]
    refine_diagnostics: Optional[PCRefineDiagnostics]


def run_acd(
    record_ids: Iterable[int],
    candidates: CandidateSet,
    answers: AnswerFile,
    epsilon: float = DEFAULT_EPSILON,
    threshold_divisor: float = DEFAULT_THRESHOLD_DIVISOR,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    seed: Optional[int] = None,
    permutation: Optional[Permutation] = None,
    refine: bool = True,
    parallel: bool = True,
    pairs_per_hit: int = 20,
    ranking: str = "ratio",
    max_refinement_pairs: Optional[int] = None,
    journal_path: Optional[Union[str, Path]] = None,
    obs: Optional[ObsContext] = None,
    checkpoints: Optional[CheckpointStore] = None,
    resume: bool = False,
    pipeline: bool = False,
    pipeline_workers: int = 0,
) -> ACDResult:
    """Run the full ACD pipeline on a pre-pruned instance.

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: Phase-1 output ``S`` with machine scores.
        answers: The shared crowd answer file ``F``.
        epsilon: PC-Pivot wasted-pair budget (paper: 0.1).
        threshold_divisor: PC-Refine's ``x`` in ``T = N_m / x`` (paper: 8).
        num_buckets: Histogram granularity (paper: 20).
        seed: Seed for the pivot permutation (ACD is randomized).
        permutation: Explicit permutation overriding ``seed``.
        refine: Run phase 3?  ``False`` gives the paper's "PC-Pivot"
            crippled baseline.
        parallel: Use the batched PC-Pivot / PC-Refine (the paper's ACD);
            ``False`` runs the sequential Crowd-Pivot / Crowd-Refine instead
            (for the parallelization experiments).
        pairs_per_hit: HIT packing for the cost model.
        ranking: PC-Refine operation ranking ("ratio" per the paper, or
            "benefit" for the cost-blind ablation).
        max_refinement_pairs: Optional hard cap on the refinement phase's
            crowdsourced pairs (parallel mode only) — the anytime/budgeted
            variant.
        journal_path: Write-ahead journal file making the run crash-safe.
            Every resolved crowd batch is durably appended before use; a
            killed run re-invoked with the same journal resumes where it
            stopped (already-journaled batches cost nothing) and returns a
            byte-identical :class:`ACDResult`.
        obs: Optional :class:`~repro.obs.ObsContext`.  When attached, the
            run opens an ``acd`` span with ``generation`` / ``refinement``
            children, every crowd iteration and per-round decision is
            traced, and — if ``obs.manifest_path`` is set — a run manifest
            is written atomically on completion.  ``None`` (the default)
            changes nothing: the result is byte-identical to an
            unobserved run.
        checkpoints: Optional
            :class:`~repro.runtime.checkpoint.CheckpointStore`.  When
            attached, the complete cluster-generation state (clustering,
            cost counters, the answer set ``A`` in arrival order) is
            snapshotted atomically after phase 2 — the ``generation``
            checkpoint — and the finished pipeline state after phase 3 —
            the ``refinement`` checkpoint.
        pipeline: Run both crowd phases decomposed by connected
            component over one supervised worker pool
            (:func:`repro.runtime.pipeline.run_pipeline`).  The
            generation clustering equals the global engine's; crowd
            rounds follow the merged per-component accounting (the
            deepest component's round count).  Requires
            ``parallel=True``, no ``max_refinement_pairs``, and a
            pair-deterministic answer source.
        pipeline_workers: Worker processes for the pipeline pool
            (``<= 1`` runs it inline); requires ``pipeline``.
        resume: With ``checkpoints``, restore the deepest finished
            phase's checkpoint when one exists (and its recorded
            configuration matches the store's): a ``refinement``
            checkpoint skips both crowd phases, a ``generation``
            checkpoint skips phase 2 and continues into refinement.  The
            final :class:`ACDResult` is byte-identical to an
            uninterrupted run either way.

    Returns:
        The :class:`ACDResult`.
    """
    if pipeline_workers and not pipeline:
        raise ValueError(
            "pipeline_workers requires pipeline=True: the global engines "
            "run in-process"
        )
    if pipeline:
        if not parallel:
            raise ValueError(
                "pipeline requires parallel=True: the sequential engines "
                "have no component decomposition to stream"
            )
        if max_refinement_pairs is not None:
            raise ValueError(
                "pipeline does not support max_refinement_pairs "
                "(a global sequential pair cap cannot decompose across "
                "components) — run with pipeline disabled"
            )
        # Imported lazily: pipeline.py imports this module at its top.
        from repro.runtime.pipeline import run_pipeline

        return run_pipeline(
            answers, record_ids=list(record_ids), candidates=candidates,
            workers=pipeline_workers, epsilon=epsilon,
            threshold_divisor=threshold_divisor, num_buckets=num_buckets,
            seed=seed, permutation=permutation, refine=refine,
            pairs_per_hit=pairs_per_hit, ranking=ranking,
            journal_path=journal_path, obs=obs, checkpoints=checkpoints,
            resume=resume,
        ).result

    if journal_path is not None:
        journaled = JournalingAnswerFile(answers, journal_path)
        try:
            return run_acd(
                record_ids, candidates, journaled,
                epsilon=epsilon, threshold_divisor=threshold_divisor,
                num_buckets=num_buckets, seed=seed, permutation=permutation,
                refine=refine, parallel=parallel,
                pairs_per_hit=pairs_per_hit, ranking=ranking,
                max_refinement_pairs=max_refinement_pairs,
                obs=obs, checkpoints=checkpoints, resume=resume,
            )
        finally:
            journaled.close()

    ids = list(record_ids)
    restored_refinement = (checkpoints.load("refinement")
                           if checkpoints is not None and resume and refine
                           else None)
    restored = (checkpoints.load("generation")
                if (checkpoints is not None and resume
                    and restored_refinement is None) else None)
    if restored_refinement is not None:
        stats = CrowdStats.from_state(restored_refinement["stats"])
        oracle = CrowdOracle(answers, stats=stats, obs=obs)
    elif restored is not None:
        stats = CrowdStats.from_state(restored["stats"])
        oracle = CrowdOracle(answers, stats=stats, obs=obs)
    else:
        stats = CrowdStats(pairs_per_hit=pairs_per_hit,
                           num_workers=answers.num_workers)
        oracle = CrowdOracle(answers, stats=stats, obs=obs)

    with maybe_span(obs, "acd", records=len(ids),
                    candidate_pairs=len(candidates), parallel=parallel):
        pivot_diagnostics: Optional[PCPivotDiagnostics] = None
        refine_diagnostics: Optional[PCRefineDiagnostics] = None
        if restored_refinement is not None:
            (clustering, generation_stats, pivot_diagnostics,
             refine_diagnostics) = _restore_refinement(
                restored_refinement, answers, oracle, obs)
        else:
            if restored is not None:
                clustering, pivot_diagnostics = _restore_generation(
                    restored, answers, oracle, obs)
            else:
                with maybe_span(obs, "generation"):
                    if parallel:
                        pivot_diagnostics = PCPivotDiagnostics()
                        clustering = pc_pivot(
                            ids, candidates, oracle, epsilon=epsilon,
                            permutation=permutation, seed=seed,
                            diagnostics=pivot_diagnostics, obs=obs,
                        )
                    else:
                        clustering = crowd_pivot(
                            ids, candidates, oracle, permutation=permutation,
                            seed=seed, obs=obs,
                        )
            generation_stats = stats.snapshot()
            if checkpoints is not None and restored is None:
                checkpoints.save(
                    "generation",
                    _generation_state(clustering, oracle, answers,
                                      pivot_diagnostics),
                )

            if refine:
                with maybe_span(obs, "refinement"):
                    if parallel:
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
                    else:
                        clustering = crowd_refine(
                            clustering, candidates, oracle,
                            num_buckets=num_buckets, obs=obs,
                        )
                if checkpoints is not None:
                    checkpoints.save(
                        "refinement",
                        _refinement_state(clustering, oracle, answers,
                                          generation_stats,
                                          pivot_diagnostics,
                                          refine_diagnostics),
                    )

    total = stats.snapshot()
    refinement_stats = {
        key: total[key] - generation_stats[key] for key in total
    }
    result = ACDResult(
        clustering=clustering,
        stats=stats,
        generation_stats=generation_stats,
        refinement_stats=refinement_stats,
        pivot_diagnostics=pivot_diagnostics,
        refine_diagnostics=refine_diagnostics,
    )
    if obs is not None:
        _finalize_obs(
            obs, result,
            config={
                "epsilon": epsilon,
                "threshold_divisor": threshold_divisor,
                "num_buckets": num_buckets,
                "refine": refine,
                "parallel": parallel,
                "pairs_per_hit": pairs_per_hit,
                "ranking": ranking,
                "max_refinement_pairs": max_refinement_pairs,
            },
            seeds={"pivot_seed": seed},
        )
    return result


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


def _restore_generation(restored, answers, oracle: CrowdOracle, obs):
    """Rebuild phase-2 state from a ``generation`` checkpoint payload.

    Returns ``(clustering, pivot_diagnostics)``; the oracle (already
    carrying the restored stats) is seeded with ``A`` in its recorded
    arrival order, and a journaling answer source's replay cursor is
    fast-forwarded past the batches the checkpoint covers so their fault
    counters are not merged twice.
    """
    try:
        clustering = Clustering.from_state(restored["clustering"])
        ordered = {(int(a), int(b)): float(confidence)
                   for a, b, confidence in restored["answers"]}
        raw_diag = restored.get("pivot_diagnostics")
        diagnostics = (PCPivotDiagnostics.from_state(raw_diag)
                       if raw_diag is not None else None)
        journal_batches = restored.get("journal_batches")
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"malformed generation checkpoint payload ({error})"
        ) from None
    oracle.seed_known(ordered)
    if journal_batches is not None:
        skip = getattr(answers, "skip_replayed_batches", None)
        if skip is not None:
            skip(int(journal_batches))
    if obs is not None:
        obs.event(
            "runtime.checkpoint_restore",
            phase="generation",
            clusters=len(clustering),
            answers=len(ordered),
            iterations=oracle.stats.iterations,
        )
    return clustering, diagnostics


def _refinement_state(clustering: Clustering, oracle: CrowdOracle, answers,
                      generation_stats: Dict[str, float],
                      pivot_diagnostics: Optional[PCPivotDiagnostics],
                      refine_diagnostics: Optional[PCRefineDiagnostics]):
    """The finished pipeline state as a ``refinement`` checkpoint payload.

    Everything :class:`ACDResult` is assembled from: the final
    clustering, the *total* cost counters plus the frozen
    generation-phase snapshot (their difference is the refinement
    stats), the full answer set in arrival order, the journal replay
    cursor, and both phases' diagnostics.
    """
    journal = getattr(answers, "journal", None)
    return {
        "clustering": clustering.to_state(),
        "stats": oracle.stats.to_state(),
        "generation_stats": dict(generation_stats),
        "answers": [[a, b, confidence]
                    for (a, b), confidence in oracle.known_in_order()],
        "journal_batches": (journal.num_batches
                            if journal is not None else None),
        "pivot_diagnostics": (pivot_diagnostics.to_state()
                              if pivot_diagnostics is not None else None),
        "refine_diagnostics": (refine_diagnostics.to_state()
                               if refine_diagnostics is not None else None),
    }


def _restore_refinement(restored, answers, oracle: CrowdOracle, obs):
    """Rebuild the finished pipeline from a ``refinement`` checkpoint.

    Returns ``(clustering, generation_stats, pivot_diagnostics,
    refine_diagnostics)``; as in :func:`_restore_generation`, the oracle
    is seeded with the recorded answer set and a journaling source's
    replay cursor is fast-forwarded past the checkpointed batches.
    """
    try:
        clustering = Clustering.from_state(restored["clustering"])
        # JSON round-trips int vs float exactly; coercing here would turn
        # integer counters into floats and break byte-identity.
        generation_stats = {str(key): value for key, value
                            in restored["generation_stats"].items()}
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
            f"malformed refinement checkpoint payload ({error})"
        ) from None
    oracle.seed_known(ordered)
    if journal_batches is not None:
        skip = getattr(answers, "skip_replayed_batches", None)
        if skip is not None:
            skip(int(journal_batches))
    if obs is not None:
        obs.event(
            "runtime.checkpoint_restore",
            phase="refinement",
            clusters=len(clustering),
            answers=len(ordered),
            iterations=oracle.stats.iterations,
        )
    return clustering, generation_stats, pivot_diagnostics, refine_diagnostics


def _finalize_obs(obs: ObsContext, result: ACDResult,
                  config: Dict, seeds: Dict) -> None:
    """Roll the finished run up into gauges and (optionally) a manifest.

    ``obs.manifest_extra`` — caller context such as the CLI's dataset
    fingerprint and command-line config — is merged in: its ``config`` /
    ``seeds`` / ``dataset`` / ``result`` keys override or extend the ones
    assembled here.
    """
    from repro.obs import build_manifest, write_manifest

    gauges = obs.metrics
    gauges.gauge("clusters", help="Final cluster count").set(
        len(result.clustering)
    )
    gauges.gauge("crowd_cost_cents", help="Total crowd payment").set(
        result.stats.monetary_cost_cents
    )
    if obs.manifest_path is None:
        return
    extra = obs.manifest_extra
    manifest = build_manifest(
        command=str(extra.get("command", "run_acd")),
        config={**config, **extra.get("config", {})},
        seeds={**seeds, **extra.get("seeds", {})},
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

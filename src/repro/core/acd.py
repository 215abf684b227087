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
from typing import Callable, Dict, Iterable, Optional, Sequence

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
from repro.crowd.cache import AnswerFile
from repro.crowd.oracle import CrowdOracle
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
    pairs_per_hit: int = 20,
    ranking: str = "ratio",
    max_refinement_pairs: Optional[int] = None,
    obs: Optional[ObsContext] = None,
    checkpoints: Optional[CheckpointStore] = None,
    resume: bool = False,
) -> ACDResult:
    """Run the full ACD pipeline on a pre-pruned instance.

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: Phase-1 output ``S`` with machine scores.
        answers: The shared crowd answer file ``F``.  Wrap it in a
            :class:`~repro.crowd.persistence.JournalingAnswerFile` to make
            the run crash-safe: a killed run re-invoked on the same
            journal resumes where it stopped and returns a byte-identical
            :class:`ACDResult`.
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
        resume: With ``checkpoints``, restore the deepest finished
            phase's checkpoint when one exists (and its recorded
            configuration matches the store's): a ``refinement``
            checkpoint skips both crowd phases, a ``generation``
            checkpoint skips phase 2 and continues into refinement.  The
            final :class:`ACDResult` is byte-identical to an
            uninterrupted run either way.

    The component-decomposed executor over a worker pool is
    :func:`repro.runtime.pipeline.run_pipeline`; the sequential
    Crowd-Pivot / Crowd-Refine are :func:`repro.core.pivot.crowd_pivot`
    and :func:`repro.core.refine.crowd_refine`.

    Returns:
        The :class:`ACDResult`.
    """
    ids = list(record_ids)
    phases = CrowdPhases(
        answers, epsilon=epsilon, threshold_divisor=threshold_divisor,
        num_buckets=num_buckets, seed=seed, refine=refine,
        pairs_per_hit=pairs_per_hit, ranking=ranking,
        max_refinement_pairs=max_refinement_pairs, obs=obs,
        checkpoints=checkpoints, resume=resume,
    )
    oracle = phases.oracle

    def generate(diagnostics: PCPivotDiagnostics) -> Clustering:
        return pc_pivot(ids, candidates, oracle, epsilon=epsilon,
                        permutation=permutation, seed=seed,
                        diagnostics=diagnostics, obs=obs)

    def refine_step(clustering: Clustering,
                    diagnostics: PCRefineDiagnostics) -> Clustering:
        return pc_refine(clustering, candidates, oracle,
                         num_records=len(ids),
                         threshold_divisor=threshold_divisor,
                         num_buckets=num_buckets, diagnostics=diagnostics,
                         ranking=ranking,
                         max_refinement_pairs=max_refinement_pairs, obs=obs)

    result = phases.run(ids, candidates, generate, refine_step)
    phases.finish(result)
    return result


class CrowdPhases:
    """ACD's crowd-phase protocol, shared by both executors.

    Cluster generation and then cluster refinement run over one oracle
    and answer set ``A`` (Section 3).  :func:`run_acd` supplies PC-Pivot
    and PC-Refine as the two steps;
    :func:`repro.runtime.pipeline.run_pipeline` supplies its
    component merge barrier and the same PC-Refine.  Everything
    else lives here, once: picking the deepest checkpoint to restore,
    rebuilding the cost counters and oracle, the ``acd`` /
    ``generation`` / ``refinement`` spans, the two checkpoint saves,
    :class:`ACDResult` assembly, and the run manifest.

    Construct it before any phase work — :attr:`runs_generation` tells
    the caller whether :meth:`run` will call the generation step — then
    :meth:`run` the steps and :meth:`finish` the run.
    """

    def __init__(self, answers, *, epsilon: float, threshold_divisor: float,
                 num_buckets: int, seed: Optional[int], refine: bool,
                 pairs_per_hit: int, ranking: str,
                 max_refinement_pairs: Optional[int],
                 obs: Optional[ObsContext],
                 checkpoints: Optional[CheckpointStore], resume: bool):
        self.answers = answers
        self.obs = obs
        self.checkpoints = checkpoints
        self.refine = refine
        self._config = {
            "epsilon": epsilon,
            "threshold_divisor": threshold_divisor,
            "num_buckets": num_buckets,
            "refine": refine,
            "pairs_per_hit": pairs_per_hit,
            "ranking": ranking,
            "max_refinement_pairs": max_refinement_pairs,
        }
        self._seed = seed
        resuming = checkpoints is not None and resume
        self._restored_refinement = (checkpoints.load("refinement")
                                     if resuming and refine else None)
        self._restored_generation = (
            checkpoints.load("generation")
            if resuming and self._restored_refinement is None else None)
        restored = (self._restored_refinement
                    if self._restored_refinement is not None
                    else self._restored_generation)
        self.stats = (CrowdStats.from_state(restored["stats"])
                      if restored is not None
                      else CrowdStats(pairs_per_hit=pairs_per_hit,
                                      num_workers=answers.num_workers))
        self.oracle = CrowdOracle(answers, stats=self.stats, obs=obs)

    @property
    def runs_generation(self) -> bool:
        """Will :meth:`run` call the generation step (no checkpoint)?"""
        return (self._restored_refinement is None
                and self._restored_generation is None)

    def run(
        self, ids: Sequence[int], candidates: CandidateSet,
        generate: Callable[[PCPivotDiagnostics], Clustering],
        refine_step: Callable[[Clustering, PCRefineDiagnostics], Clustering],
    ) -> ACDResult:
        """Run (or restore) both crowd phases and assemble the result.

        ``generate(diagnostics)`` returns the generation clustering and
        ``refine_step(clustering, diagnostics)`` the refined one; each
        fills in the fresh diagnostics object it is handed.
        """
        obs = self.obs
        checkpoints = self.checkpoints
        refine_diagnostics: Optional[PCRefineDiagnostics] = None
        with maybe_span(obs, "acd", records=len(ids),
                        candidate_pairs=len(candidates)):
            if self._restored_refinement is not None:
                (clustering, generation_stats, pivot_diagnostics,
                 refine_diagnostics) = self._restore(
                    "refinement", self._restored_refinement)
            else:
                if self._restored_generation is not None:
                    clustering, _, pivot_diagnostics, _ = self._restore(
                        "generation", self._restored_generation)
                else:
                    with maybe_span(obs, "generation"):
                        pivot_diagnostics = PCPivotDiagnostics()
                        clustering = generate(pivot_diagnostics)
                generation_stats = self.stats.snapshot()
                if checkpoints is not None and self.runs_generation:
                    checkpoints.save("generation", _generation_state(
                        clustering, self.oracle, self.answers,
                        pivot_diagnostics))

                if self.refine:
                    with maybe_span(obs, "refinement"):
                        refine_diagnostics = PCRefineDiagnostics()
                        clustering = refine_step(clustering,
                                                 refine_diagnostics)
                    if checkpoints is not None:
                        checkpoints.save("refinement", _refinement_state(
                            clustering, self.oracle, self.answers,
                            generation_stats, pivot_diagnostics,
                            refine_diagnostics))

        total = self.stats.snapshot()
        return ACDResult(
            clustering=clustering,
            stats=self.stats,
            generation_stats=generation_stats,
            refinement_stats={
                key: total[key] - generation_stats[key] for key in total
            },
            pivot_diagnostics=pivot_diagnostics,
            refine_diagnostics=refine_diagnostics,
        )

    def finish(self, result: ACDResult, **executor) -> None:
        """Roll the finished run up into gauges and (optionally) a
        manifest.

        ``executor`` adds the caller's own config keys.
        ``obs.manifest_extra`` — caller context such as the CLI's dataset
        fingerprint and command-line config — is merged in: its
        ``config`` / ``seeds`` / ``dataset`` / ``result`` keys override
        or extend the ones assembled here.
        """
        obs = self.obs
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
        if obs.manifest_path is None:
            return
        extra = obs.manifest_extra
        manifest = build_manifest(
            command=str(extra.get("command", "run_acd")),
            config={**self._config, **executor, **extra.get("config", {})},
            seeds={"pivot_seed": self._seed, **extra.get("seeds", {})},
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

    def _restore(self, phase: str, restored):
        """Rebuild a phase's state from its checkpoint payload.

        Returns ``(clustering, generation_stats, pivot_diagnostics,
        refine_diagnostics)`` — ``generation_stats`` only for the
        ``refinement`` phase.  The oracle (already carrying the restored
        stats) is seeded with ``A`` in its recorded arrival order, and a
        journaling answer source's replay cursor is fast-forwarded past
        the batches the checkpoint covers so their fault counters are
        not merged twice.
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
        self.oracle.seed_known(ordered)
        if journal_batches is not None:
            skip = getattr(self.answers, "skip_replayed_batches", None)
            if skip is not None:
                skip(int(journal_batches))
        if self.obs is not None:
            self.obs.event(
                "runtime.checkpoint_restore",
                phase=phase,
                clusters=len(clustering),
                answers=len(ordered),
                iterations=self.stats.iterations,
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

"""Sharded refinement on the supervised pool: byte-identity under worker
counts, fault schedules, fork fallback, and checkpoint kill-resume.

Refinement runs component by component inside
:func:`~repro.runtime.pipeline.run_pipeline`; here it resumes from a
classic ``generation`` checkpoint, so only the refinement phase runs on
the pool.  The coordinator replays worker round logs through the
caller's oracle in canonical merged-round order, so the clustering,
crowd stats, diagnostics, and event streams must be byte-identical for
every ``{workers, fault plan}`` configuration.  (Parity with the
*classic* engine is empirical and covered for the paper's datasets in
``tests/core/test_refine_shard.py`` — the confused largescale population
used here diverges from classic by design, which is exactly why it
exercises the coordination paths.)
"""

import multiprocessing
import tempfile
from pathlib import Path

import pytest

from repro.core.acd import _generation_state
from repro.core.pc_pivot import PCPivotDiagnostics, pc_pivot
from repro.crowd.cache import AnswerFile
from repro.crowd.oracle import CrowdOracle
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.obs import ObsContext
from repro.pruning.candidate import build_candidate_set
from repro.pruning.parallel import ParallelFallbackWarning
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.pipeline import run_pipeline
from repro.runtime.supervisor import SupervisorPolicy
from repro.similarity.composite import jaccard_similarity_function

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the supervised worker pool requires the 'fork' start method",
)

#: Fault plans target the first SHARDS refine tasks.
SHARDS = 6
SEED = 3
POLICY = SupervisorPolicy(backoff_base_s=0.005)

_DATASET = generate("largescale", scale=0.2, seed=0, confusion=0.25)
_CANDIDATES = build_candidate_set(
    _DATASET.records, jaccard_similarity_function(),
    threshold=PRUNING_THRESHOLD,
)
_WORKERS = WorkerPool(difficulty=difficulty_model("largescale"),
                      num_workers=3)


def _generation_checkpoint():
    """The classic generation phase's checkpoint payload (computed once)."""
    answers = AnswerFile(_DATASET.gold, _WORKERS)
    oracle = CrowdOracle(answers)
    diagnostics = PCPivotDiagnostics()
    clustering = pc_pivot(_DATASET.record_ids, _CANDIDATES, oracle,
                          seed=SEED, diagnostics=diagnostics)
    return _generation_state(clustering, oracle, answers, diagnostics)


_GENERATION = _generation_checkpoint()


def _refine_outcome(processes=0, fault_plan=None, policy=POLICY):
    # AnswerFile resolves each pair from a pair-seeded RNG, so a fresh
    # instance per run replays identical answers; the confused
    # population guarantees multi-round components (real packed work).
    obs = ObsContext()
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp), config={"seed": SEED})
        store.save("generation", _GENERATION)
        result = run_pipeline(
            AnswerFile(_DATASET.gold, _WORKERS),
            record_ids=_DATASET.record_ids, candidates=_CANDIDATES,
            workers=processes, checkpoints=store, resume=True,
            supervisor_policy=policy, fault_plan=fault_plan, obs=obs,
        ).result
    diagnostics = result.refine_diagnostics
    events = []

    def walk(span):
        for event in span.events:
            events.append((event["name"], event["attrs"]))
        for child in span.children:
            walk(child)

    for root in obs.tracer.roots:
        walk(root)
    return {
        "clustering": result.clustering.to_state(),
        "stats": result.stats.snapshot(),
        "batches": list(result.stats.batch_sizes),
        "rounds": diagnostics.rounds,
        "batch_sizes": diagnostics.batch_sizes,
        "packed": diagnostics.operations_packed,
        "applied": diagnostics.operations_applied,
        "free": diagnostics.free_operations_applied,
        "evaluations": diagnostics.operation_evaluations,
        "cache": diagnostics.evaluation_cache,
        # Scheduling telemetry legitimately varies with the pool size.
        "events": [e for e in events
                   if not e[0].startswith(("runtime", "pipeline."))],
        "counters": obs.metrics.as_dict()["counters"],
    }


def _identity_view(outcome):
    """Everything that must be byte-identical across configurations
    (runtime fault counters naturally differ between schedules)."""
    return {key: value for key, value in outcome.items()
            if key != "counters"}


class TestProcessByteIdentity:
    def test_parallel_identical_to_in_process(self):
        serial = _refine_outcome()
        assert serial["rounds"] >= 1
        for processes in (2, 4):
            parallel = _refine_outcome(processes=processes)
            assert _identity_view(parallel) == _identity_view(serial)


class TestFaultByteIdentity:
    def test_every_fault_kind_is_byte_identical(self):
        reference = _identity_view(_refine_outcome(processes=4))
        plans = {
            "kill": ProcessFaultPlan.sample(SHARDS, seed=1, kills=2),
            "delay": ProcessFaultPlan.sample(SHARDS, seed=1, delays=2,
                                             delay_seconds=0.5),
            "poison": ProcessFaultPlan.sample(SHARDS, seed=1, poisons=2),
        }
        policies = {
            "kill": POLICY,
            "delay": SupervisorPolicy(backoff_base_s=0.005,
                                      task_deadline_s=0.2),
            "poison": POLICY,
        }
        for kind, plan in plans.items():
            chaotic = _refine_outcome(processes=4, fault_plan=plan,
                                      policy=policies[kind])
            assert _identity_view(chaotic) == reference, kind

    def test_kill_plan_actually_crashed_workers(self):
        outcome = _refine_outcome(
            processes=4,
            fault_plan=ProcessFaultPlan.sample(SHARDS, seed=1, kills=2),
        )
        assert outcome["counters"].get("runtime_worker_crashes_total", 0) >= 1


class TestForkFallback:
    def test_fallback_warns_when_fork_unavailable(self, monkeypatch):
        import repro.runtime.pipeline as pipeline
        import repro.runtime.supervisor as supervisor

        monkeypatch.setattr(pipeline, "fork_available", lambda: False)
        monkeypatch.setattr(supervisor, "_fork_available", lambda: False)
        serial = _refine_outcome()
        with pytest.warns(ParallelFallbackWarning):
            fallen_back = _refine_outcome(processes=4)
        view = _identity_view(fallen_back)
        view["events"] = [e for e in view["events"]
                          if e[0] != "pruning.parallel_fallback"]
        assert view == _identity_view(serial)


class TestJournalComposition:
    def test_journaled_sharded_run_replays_byte_identical(self):
        """A journaled sharded run re-invoked on the same journal serves
        every coordinator batch from the write-ahead log (the journal
        does not grow) and reports byte-identical.  Forked workers
        recompute their component answers from the pair-deterministic
        source by design — the journal's guarantee covers the
        authoritative coordinator accounting, not worker-side memos.
        """
        from repro.crowd.persistence import (
            AnswerJournal,
            JournalingAnswerFile,
        )

        def acd(journal_path):
            with JournalingAnswerFile(AnswerFile(_DATASET.gold, _WORKERS),
                                      journal_path) as answers:
                return run_pipeline(
                    answers, record_ids=_DATASET.record_ids,
                    candidates=_CANDIDATES, seed=7, workers=2,
                ).result

        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "run.journal"
            first = acd(journal)
            batches_after_first = AnswerJournal(journal).num_batches
            replayed = acd(journal)
            batches_after_replay = AnswerJournal(journal).num_batches
        assert batches_after_first >= 1
        assert batches_after_replay == batches_after_first
        assert (replayed.clustering.to_state()
                == first.clustering.to_state())
        assert replayed.stats.snapshot() == first.stats.snapshot()
        assert replayed.stats.batch_sizes == first.stats.batch_sizes


class TestCheckpointKillResume:
    def test_refinement_checkpoint_resumes_sharded_run(self):
        """A run killed right after the sharded refinement checkpoint
        resumes in a fresh process and reports byte-identical to an
        uninterrupted sharded run — without touching the crowd at all."""
        config = {"dataset": "largescale", "scale": 0.2, "seed": 0,
                  "pipeline": True}

        def acd(answers, checkpoints=None, resume=False):
            return run_pipeline(
                answers, record_ids=_DATASET.record_ids,
                candidates=_CANDIDATES, seed=7, workers=2,
                checkpoints=checkpoints, resume=resume,
            ).result

        uninterrupted = acd(AnswerFile(_DATASET.gold, _WORKERS))
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(Path(tmp), config=config)
            first = acd(AnswerFile(_DATASET.gold, _WORKERS),
                        checkpoints=store)
            assert store.load("refinement") is not None

            class Refusing:
                pair_deterministic = True
                num_workers = 3

                def confidence(self, a, b):
                    raise AssertionError(
                        f"restored refinement re-crowdsourced ({a}, {b})"
                    )

            resumed_store = CheckpointStore(Path(tmp), config=config)
            resumed = acd(Refusing(), checkpoints=resumed_store,
                          resume=True)

        for result in (first, resumed):
            assert (result.clustering.to_state()
                    == uninterrupted.clustering.to_state())
            assert result.stats.snapshot() == uninterrupted.stats.snapshot()
            assert (result.stats.batch_sizes
                    == uninterrupted.stats.batch_sizes)
        assert str(resumed.refinement_stats) == str(
            uninterrupted.refinement_stats)

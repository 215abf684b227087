"""The one ACD executor across worker counts and entry shapes:
byte-identity vs barrier execution under shard counts, worker processes,
fault schedules, checkpoint kill-resume, and journal composition.

:func:`~repro.core.acd.run_acd` prunes first when given records — the
sharded join on its own supervised pool when it runs several shards on
several workers — and then generates per component, inline
(``workers <= 1``) or as grouped tasks on one generation pool.  The hard
contract is that the executor changes *where* work runs, never *what* it
computes: the candidate set and the final clustering (cluster ids
included), stats, diagnostics, crowd-phase events, journal and
checkpoints must be byte-identical to barrier execution — the pruning
join, then the pre-pruned run inline — for every ``{pruning shards,
workers, fault plan}`` configuration and both entry shapes.  A fault
plan is keyed by task index, so it fires in the pruning pool and again
in the generation pool.  ``run_pipeline`` is a forwarding shim; one test
pins that it forwards.
"""

import multiprocessing
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.core.acd import run_acd
from repro.crowd.cache import AnswerFile
from repro.crowd.latency import SimulatedLatencyAnswers
from repro.crowd.persistence import JournalingAnswerFile
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.obs import ObsContext
from repro.pruning.candidate import build_candidate_set
from repro.runtime.autoshard import (
    AUTO_MIN_RECORDS,
    resolve_auto_shards,
)
from repro.runtime.checkpoint import CheckpointMismatch, CheckpointStore
from repro.runtime.faults import ProcessFaultPlan
from repro.perf.timing import StageTimings
from repro.runtime.pipeline import run_pipeline
from repro.runtime.supervisor import SupervisorPolicy
from repro.similarity.composite import jaccard_similarity_function

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the generation worker pool requires the 'fork' start method",
)

SEED = 3
POLICY = SupervisorPolicy(backoff_base_s=0.005)

# The confused population gives every phase real crowd work: surviving
# inter-cluster edges (pivot rounds), over- and under-merges (refine
# operations), and multi-member components spanning pruning shards.
_DATASET = generate("largescale", scale=0.2, seed=0, confusion=0.25)
_CANDIDATES = build_candidate_set(
    _DATASET.records, jaccard_similarity_function(),
    threshold=PRUNING_THRESHOLD,
)
_WORKERS = WorkerPool(difficulty=difficulty_model("largescale"),
                      num_workers=3)


def _collect_events(obs):
    events = []

    def walk(span):
        for event in span.events:
            events.append((event["name"], event["attrs"]))
        for child in span.children:
            walk(child)

    for root in obs.tracer.roots:
        walk(root)
    return events


#: Both entry shapes, records-in at one and at several pruning shards.
ENTRY_SHAPES = ({"pruning_shards": 1}, {"pruning_shards": 4},
                {"pre_pruned": True})


def _pipeline_outcome(pruning_shards=4, workers=0, fault_plan=None,
                      policy=POLICY, pre_pruned=False,
                      checkpoints=None, resume=False, answers=None,
                      obs=None):
    # AnswerFile resolves each pair from a pair-seeded RNG, so a fresh
    # instance per run replays identical answers.
    source = answers if answers is not None else AnswerFile(_DATASET.gold,
                                                            _WORKERS)
    obs = obs if obs is not None else ObsContext()
    kwargs = dict(
        threshold=PRUNING_THRESHOLD, workers=workers, seed=SEED, obs=obs,
        supervisor_policy=policy, fault_plan=fault_plan,
        checkpoints=checkpoints, resume=resume,
    )
    if pre_pruned:
        result = run_acd(_DATASET.record_ids, _CANDIDATES, source, **kwargs)
    else:
        result = run_acd(answers=source, records=_DATASET.records,
                         similarity=jaccard_similarity_function(),
                         pruning_shards=pruning_shards, **kwargs)
    return {
        "pairs": result.candidates.pairs,
        "scores": tuple(sorted(result.candidates.machine_scores.items())),
        "threshold": result.candidates.threshold,
        "clustering": result.clustering.to_state(),
        "stats": result.stats.snapshot(),
        "batches": list(result.stats.batch_sizes),
        "generation_stats": result.generation_stats,
        "refinement_stats": result.refinement_stats,
        "pivot_diagnostics": result.pivot_diagnostics.to_state(),
        "refine_diagnostics": result.refine_diagnostics.to_state(),
        # Scheduling telemetry (pipeline.* events, runtime counters and
        # events) legitimately varies with the configuration; the crowd
        # phases' event stream must not.
        "events": [e for e in _collect_events(obs)
                   if not e[0].startswith(("runtime", "pipeline."))],
        "counters": obs.metrics.as_dict()["counters"],
    }


def _core(outcome):
    """Everything that must be byte-identical to barrier execution."""
    return {key: value for key, value in outcome.items()
            if key not in ("events", "counters")}


def _identity_view(outcome):
    """Everything that must be byte-identical across executor
    configurations (fault counters naturally differ by schedule)."""
    return {key: value for key, value in outcome.items()
            if key != "counters"}


def _barrier_core():
    result = run_acd(_DATASET.record_ids, _CANDIDATES,
                     AnswerFile(_DATASET.gold, _WORKERS), seed=SEED)
    return {
        "pairs": _CANDIDATES.pairs,
        "scores": tuple(sorted(_CANDIDATES.machine_scores.items())),
        "threshold": _CANDIDATES.threshold,
        "clustering": result.clustering.to_state(),
        "stats": result.stats.snapshot(),
        "batches": list(result.stats.batch_sizes),
        "generation_stats": result.generation_stats,
        "refinement_stats": result.refinement_stats,
        "pivot_diagnostics": result.pivot_diagnostics.to_state(),
        "refine_diagnostics": result.refine_diagnostics.to_state(),
    }


class TestBarrierParity:
    def test_pipeline_matches_barrier_across_configs(self):
        """Records in, pruning then per-component generation reproduce
        barrier execution byte for byte at every {shards, workers}
        point, and the runs also agree on the crowd-phase event
        stream."""
        barrier = _barrier_core()
        outcomes = [
            _pipeline_outcome(pruning_shards=shards, workers=workers)
            for shards, workers in ((1, 0), (4, 0), (1, 2), (4, 2), (7, 4))
        ]
        for outcome in outcomes:
            assert _core(outcome) == barrier
        for outcome in outcomes[1:]:
            assert (_identity_view(outcome)
                    == _identity_view(outcomes[0]))

    def test_pre_pruned_entry_matches_barrier(self):
        """The record_ids+candidates entry shape (pruning already done)
        dispatches every component immediately and matches the inline
        barrier run on the pool, traced or not."""
        outcome = _pipeline_outcome(pre_pruned=True, workers=2)
        assert _core(outcome) == _barrier_core()
        result = run_acd(_DATASET.record_ids, _CANDIDATES,
                         AnswerFile(_DATASET.gold, _WORKERS), seed=SEED,
                         workers=2)
        assert result.clustering.to_state() == outcome["clustering"]
        assert result.stats.snapshot() == outcome["stats"]

    def test_workers_byte_identical_on_both_entry_shapes(self):
        """``workers=0`` and ``workers=2`` agree byte for byte on each
        entry shape: result, stats, diagnostics, crowd-phase events, the
        journal file and every checkpoint file."""
        from repro.crowd.persistence import JournalingAnswerFile

        def artifacts(pre_pruned, workers):
            with tempfile.TemporaryDirectory() as tmp:
                journal = Path(tmp) / "run.journal"
                store = CheckpointStore(Path(tmp) / "ck", config={"k": 1})
                with JournalingAnswerFile(
                        AnswerFile(_DATASET.gold, _WORKERS),
                        journal) as answers:
                    outcome = _identity_view(_pipeline_outcome(
                        pre_pruned=pre_pruned, workers=workers,
                        answers=answers, checkpoints=store))
                files = {path.name: path.read_bytes()
                         for path in sorted((Path(tmp) / "ck").iterdir())}
                return outcome, journal.read_bytes(), files

        for pre_pruned in (False, True):
            inline = artifacts(pre_pruned, 0)
            assert inline[2], "no checkpoint written"
            assert artifacts(pre_pruned, 2) == inline, pre_pruned

    def test_run_pipeline_forwards_to_run_acd(self):
        """The shim returns ``run_acd``'s result, candidates and pool
        report, and copies the two dispatch meters into ``timings``."""
        timings = StageTimings()
        piped = run_pipeline(AnswerFile(_DATASET.gold, _WORKERS),
                             records=_DATASET.records,
                             similarity=jaccard_similarity_function(),
                             threshold=PRUNING_THRESHOLD, workers=2,
                             seed=SEED, timings=timings)
        direct = run_acd(answers=AnswerFile(_DATASET.gold, _WORKERS),
                         records=_DATASET.records,
                         similarity=jaccard_similarity_function(),
                         threshold=PRUNING_THRESHOLD, workers=2, seed=SEED)
        assert (piped.result.clustering.to_state()
                == direct.clustering.to_state())
        assert piped.candidates is piped.result.candidates
        assert piped.report is piped.result.runtime
        assert piped.report.tasks > 0
        assert (timings.meters["pipeline_bytes_shipped_total"]
                == piped.report.bytes_shipped)
        assert timings.meters["pipeline_bytes_per_task"] == round(
            piped.report.bytes_shipped / piped.report.tasks, 2)


class TestFaultByteIdentity:
    def test_every_fault_kind_is_byte_identical(self):
        plans = {
            "kill": ProcessFaultPlan.sample(6, seed=1, kills=2),
            # The pipeline rides out delays rather than racing
            # stragglers (pivot tasks sleep on crowd latency),
            # so the plain policy applies to every kind.
            "delay": ProcessFaultPlan.sample(6, seed=1, delays=2,
                                             delay_seconds=0.5),
            "poison": ProcessFaultPlan.sample(6, seed=1, poisons=2),
        }
        barrier = _barrier_core()
        for shape in ENTRY_SHAPES:
            reference = _identity_view(_pipeline_outcome(workers=4,
                                                         **shape))
            assert _core(reference) == barrier, shape
            for kind, plan in plans.items():
                chaotic = _pipeline_outcome(workers=4, fault_plan=plan,
                                            **shape)
                assert _identity_view(chaotic) == reference, (shape, kind)

    def test_kill_plan_actually_crashed_workers(self):
        outcome = _pipeline_outcome(
            pruning_shards=6, workers=4,
            fault_plan=ProcessFaultPlan.sample(6, seed=1, kills=2),
        )
        assert outcome["counters"].get("runtime_worker_crashes_total",
                                       0) >= 1

    def test_kill_plan_fires_in_each_pool(self):
        """A plan keyed on task 0 kills a worker of the pruning join's
        pool and again one of the generation pool; the run still returns
        the barrier result."""
        obs = ObsContext()
        outcome = _pipeline_outcome(
            pruning_shards=4, workers=2, obs=obs,
            fault_plan=ProcessFaultPlan(kill_tasks=frozenset({0})))
        crashed = [attrs["pool"] for name, attrs in _collect_events(obs)
                   if name == "runtime.worker_crash"]
        assert crashed == ["pruning.shard_join", "pipeline"]
        assert outcome["counters"]["runtime_worker_crashes_total"] == 2
        assert _core(outcome) == _barrier_core()

    def test_result_runtime_counts_both_pools(self):
        """``ACDResult.runtime`` sums the join pool's report and the
        generation pool's, as the obs counters do."""
        obs = ObsContext()
        result = run_acd(
            answers=AnswerFile(_DATASET.gold, _WORKERS),
            records=_DATASET.records,
            similarity=jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD, pruning_shards=4, workers=2,
            seed=SEED, obs=obs, supervisor_policy=POLICY,
            fault_plan=ProcessFaultPlan(kill_tasks=frozenset({0})))
        counters = obs.metrics.as_dict()["counters"]
        assert counters["runtime_worker_crashes_total"] == 2
        assert result.runtime.worker_crashes == 2
        assert result.candidates.runtime.worker_crashes == 1
        # Four shard tasks plus the generation pool's pivot tasks.
        assert result.runtime.tasks > result.candidates.runtime.tasks == 4


class TestSimulatedLatency:
    def test_latency_injected_pool_run_matches_inline_and_plain(self):
        """Under simulated crowd latency a pool task sleeps once per
        lockstep round for all its components; that changes only wall
        clock.  The pooled run equals the inline run and a plain-answers
        run in clustering, stats, diagnostics (the refinement evaluation
        cache counters included), crowd-phase events and counters."""
        def view(workers, latency):
            answers = AnswerFile(_DATASET.gold, _WORKERS)
            if latency:
                answers = SimulatedLatencyAnswers(answers, 0.002)
            outcome = _pipeline_outcome(workers=workers, answers=answers)
            outcome["counters"] = {
                name: value for name, value in outcome["counters"].items()
                if not name.startswith(("runtime_", "pipeline_"))}
            return outcome

        pooled = view(workers=2, latency=True)
        assert pooled["refine_diagnostics"]["evaluation_cache"]
        assert pooled == view(workers=0, latency=True)
        assert pooled == view(workers=2, latency=False)


class TestJournalComposition:
    def test_journaled_pipelined_run_replays_byte_identical(self):
        """A journaled pool run re-invoked on the same journal
        serves every coordinator batch from the write-ahead log (the
        journal does not grow) and reports byte-identical, on both entry
        shapes."""
        from repro.crowd.persistence import AnswerJournal

        for shape in ENTRY_SHAPES:
            with tempfile.TemporaryDirectory() as tmp:
                journal = Path(tmp) / "run.journal"
                with JournalingAnswerFile(
                        AnswerFile(_DATASET.gold, _WORKERS),
                        journal) as answers:
                    first = _pipeline_outcome(workers=2, answers=answers,
                                              **shape)
                batches_after_first = AnswerJournal(journal).num_batches
                with JournalingAnswerFile(
                        AnswerFile(_DATASET.gold, _WORKERS),
                        journal) as answers:
                    replayed = _pipeline_outcome(workers=2,
                                                 answers=answers, **shape)
                batches_after_replay = AnswerJournal(journal).num_batches
            assert batches_after_first >= 1, shape
            assert batches_after_replay == batches_after_first, shape
            assert _identity_view(replayed) == _identity_view(first), shape


class TestCheckpointKillResume:
    def test_resume_from_each_checkpoint(self):
        """A pool run killed right after each of the three phase
        checkpoints resumes byte-identical to an uninterrupted run; a
        run that completed refinement resumes without touching the
        crowd at all.  Both entry shapes (the pre-pruned one writes no
        ``pruning`` checkpoint)."""
        for shape in ENTRY_SHAPES:
            self._resume_from_each_checkpoint(shape)

    @staticmethod
    def _resume_from_each_checkpoint(shape):
        config = {"dataset": "largescale", "scale": 0.2, "seed": 0,
                  "workers": 2, **shape}

        class Refusing:
            pair_deterministic = True
            num_workers = 3

            def confidence(self, a, b):
                raise AssertionError(
                    f"restored run re-crowdsourced ({a}, {b})")

        uninterrupted = _pipeline_outcome(workers=2, **shape)
        with tempfile.TemporaryDirectory() as tmp:
            full = Path(tmp) / "full"
            first = _pipeline_outcome(
                workers=2, **shape,
                checkpoints=CheckpointStore(full, config=config))
            assert _identity_view(first) == _identity_view(uninterrupted)
            for phase in ("pruning", "generation", "refinement"):
                # Emulate a death right after `phase` was checkpointed:
                # copy the completed store and drop the later phases.
                partial = Path(tmp) / f"died-after-{phase}"
                shutil.copytree(full, partial)
                store = CheckpointStore(partial, config=config)
                if phase == "pruning":
                    store.clear("generation")
                if phase in ("pruning", "generation"):
                    store.clear("refinement")
                resumed = _pipeline_outcome(
                    workers=2, **shape, checkpoints=store, resume=True,
                    answers=(Refusing() if phase == "refinement"
                             else None))
                view = _identity_view(resumed)
                # Restored phases do not re-run, so their event stream
                # (and worker batches already accounted in the restored
                # stats) is absent by design; the authoritative outputs
                # must still match exactly.
                assert _core(resumed) == _core(uninterrupted), (shape, phase)
                assert view["clustering"] == uninterrupted["clustering"]

    def test_resume_under_different_pipeline_config_fails_fast(self):
        """Regression: the checkpoint fingerprint must cover the
        execution knobs ``repro run`` records — resuming checkpoints under
        a different worker or shard count must fail fast naming the
        differing keys, not silently splice executions."""
        base = {"dataset": "largescale", "scale": 0.2, "seed": 0,
                "parallel": 0, "shards": 0}
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp, config=base)
            store.save("pruning", {"pairs": [], "scores": [],
                                   "threshold": 0.7})
            for key, value in (("parallel", 4), ("shards", 3)):
                mismatched = CheckpointStore(tmp,
                                             config={**base, key: value})
                with pytest.raises(CheckpointMismatch) as excinfo:
                    mismatched.load("pruning")
                assert key in str(excinfo.value)


class TestAutoshard:
    def test_auto_resolves_by_tier(self):
        """Shards pay only on a pool: "auto" shards a large join when it
        has more than one process, and never a serial one."""
        for processes in (2, 4):
            assert resolve_auto_shards(
                records=AUTO_MIN_RECORDS, requested="auto",
                processes=processes) == 8
            assert resolve_auto_shards(
                records=AUTO_MIN_RECORDS - 1, requested="auto",
                processes=processes) == 1
        for processes in (0, 1):
            for records in (AUTO_MIN_RECORDS - 1, AUTO_MIN_RECORDS,
                            10 * AUTO_MIN_RECORDS):
                assert resolve_auto_shards(
                    records=records, requested="auto",
                    processes=processes) == 1

    def test_explicit_integers_pass_through(self):
        assert resolve_auto_shards(records=1, requested=5, processes=0) == 5

    def test_auto_resolution_is_observable(self):
        obs = ObsContext()
        with obs.span("setup"):
            resolve_auto_shards(records=AUTO_MIN_RECORDS, requested="auto",
                                processes=2, obs=obs)
            resolve_auto_shards(records=10, requested=3, processes=2,
                                obs=obs)
        events = [e for e in _collect_events(obs)
                  if e[0] == "runtime.autoshard"]
        # Explicit integers resolve silently; only "auto" is a decision.
        assert len(events) == 1
        assert events[0][1] == {"records": AUTO_MIN_RECORDS,
                                "processes": 2,
                                "threshold": AUTO_MIN_RECORDS,
                                "resolved": 8}
        counters = obs.metrics.as_dict()["counters"]
        assert counters["runtime_autoshard_total"] == 1

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            resolve_auto_shards(records=10, requested="fast", processes=2)


class TestPoolLifetime:
    """The generation pool forks before pruning, so its workers inherit
    the caller's heap, not the join's, and one scope closes it on every
    exit path."""

    def _run(self):
        return run_acd(
            answers=AnswerFile(_DATASET.gold, _WORKERS),
            records=_DATASET.records,
            similarity=jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD, pruning_shards=1, workers=2,
            seed=SEED)

    def test_workers_fork_before_pruning(self, monkeypatch):
        from repro.core import acd

        seen = []

        def spy(*args, **kwargs):
            seen.append(len(multiprocessing.active_children()))
            return build_candidate_set(*args, **kwargs)

        assert multiprocessing.active_children() == []
        monkeypatch.setattr(acd, "build_candidate_set", spy)
        self._run()
        assert seen == [2]
        assert multiprocessing.active_children() == []

    def test_pruning_error_closes_the_pool(self, monkeypatch):
        from repro.core import acd

        def failing(*args, **kwargs):
            assert len(multiprocessing.active_children()) == 2
            raise RuntimeError("pruning failed")

        monkeypatch.setattr(acd, "build_candidate_set", failing)
        with pytest.raises(RuntimeError, match="pruning failed"):
            self._run()
        assert multiprocessing.active_children() == []

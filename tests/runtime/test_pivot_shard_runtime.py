"""Sharded cluster generation on the supervised pool: byte-identity under
worker counts, fault schedules, fork fallback, and checkpoint kill-resume.

Component generation runs inside the pre-pruned
:func:`~repro.core.acd.run_acd`.  The merge replays worker round logs
through the caller's oracle in a canonical component order, so the
clustering, crowd stats, diagnostics, and event streams must be
byte-identical for every ``{workers, fault plan}`` — and the clustering
itself (cluster IDs included) must equal the whole-graph oracle
:func:`repro.reference.pc_pivot`'s.
"""

import multiprocessing
import tempfile
from pathlib import Path

import pytest

from repro import reference
from repro.core.acd import run_acd
from repro.experiments.runner import prepare_instance
from repro.obs import ObsContext
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import ParallelFallbackWarning, SupervisorPolicy

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the supervised worker pool requires the 'fork' start method",
)

#: Fault plans target the first SHARDS pivot tasks.
SHARDS = 6
POLICY = SupervisorPolicy(backoff_base_s=0.005)


def _instance(scale=0.2, seed=0):
    # The largescale population: ~270 multi-vertex components at this
    # scale, so the pivot tasks and the worker pool get real work
    # (restaurant's candidate graph is one giant component).
    return prepare_instance("largescale", "3w", scale=scale, seed=seed)


def _generation_outcome(instance, seed=3, processes=0, fault_plan=None,
                        policy=POLICY):
    obs = ObsContext()
    result = run_acd(
        instance.record_ids, instance.candidates, instance.answers,
        seed=seed, refine=False, workers=processes,
        supervisor_policy=policy, fault_plan=fault_plan, obs=obs,
    )
    diagnostics = result.pivot_diagnostics
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
        "ks": diagnostics.ks,
        "waste": diagnostics.predicted_waste,
        "issued": diagnostics.issued_per_round,
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
        serial = _generation_outcome(_instance())
        for processes in (2, 4):
            parallel = _generation_outcome(_instance(), processes=processes)
            assert _identity_view(parallel) == _identity_view(serial)

    def test_parallel_clustering_identical_to_classic(self):
        from repro.crowd.oracle import CrowdOracle

        instance = _instance()
        classic = reference.pc_pivot(instance.record_ids,
                                     instance.candidates,
                                     CrowdOracle(instance.answers), seed=3)
        parallel = _generation_outcome(_instance(), processes=4)
        assert parallel["clustering"] == classic.to_state()


class TestFaultByteIdentity:
    def test_every_fault_kind_is_byte_identical(self):
        reference = _identity_view(_generation_outcome(_instance(),
                                                       processes=4))
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
            chaotic = _generation_outcome(_instance(), processes=4,
                                          fault_plan=plan,
                                          policy=policies[kind])
            assert _identity_view(chaotic) == reference, kind

    def test_kill_plan_actually_crashed_workers(self):
        outcome = _generation_outcome(
            _instance(), processes=4,
            fault_plan=ProcessFaultPlan.sample(SHARDS, seed=1, kills=2),
        )
        assert outcome["counters"].get("runtime_worker_crashes_total", 0) >= 1


class TestForkFallback:
    def test_fallback_warns_when_fork_unavailable(self, monkeypatch):
        import repro.runtime.supervisor as supervisor

        monkeypatch.setattr(supervisor, "fork_available", lambda: False)
        serial = _generation_outcome(_instance())
        with pytest.warns(ParallelFallbackWarning):
            fallen_back = _generation_outcome(_instance(), processes=4)
        view = _identity_view(fallen_back)
        view["events"] = [e for e in view["events"]
                          if e[0] != "pruning.parallel_fallback"]
        assert view == _identity_view(serial)


class TestCheckpointKillResume:
    def test_generation_checkpoint_resumes_sharded_run(self):
        """A run killed right after the sharded generation checkpoint
        resumes in a fresh process and finishes byte-identical to an
        uninterrupted sharded run — without re-running generation."""
        config = {"dataset": "largescale", "scale": 0.2, "seed": 0,
                  "workers": 2}

        def acd(instance, checkpoints=None, resume=False):
            return run_acd(
                instance.record_ids, instance.candidates, instance.answers,
                seed=7, workers=2, checkpoints=checkpoints, resume=resume,
            )

        uninterrupted = acd(_instance())
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(Path(tmp), config=config)
            first = acd(_instance(), checkpoints=store)
            assert store.load("generation") is not None

            class Refusing:
                """Fails the test if generation re-resolves any pair in
                the checkpointed answer set."""

                def __init__(self, source, allowed):
                    self._source = source
                    self._allowed = allowed

                pair_deterministic = True

                @property
                def num_workers(self):
                    return self._source.num_workers

                def confidence(self, a, b):
                    pair = (a, b) if a < b else (b, a)
                    assert pair not in self._allowed, (
                        f"resumed run re-crowdsourced generation pair {pair}"
                    )
                    return self._source.confidence(a, b)

            generation_pairs = {
                tuple(entry[:2])
                for entry in store.load("generation")["answers"]
            }
            resumed_store = CheckpointStore(Path(tmp), config=config)
            instance = _instance()
            guarded = Refusing(instance.answers, generation_pairs)
            import dataclasses
            instance = dataclasses.replace(instance, answers=guarded)
            resumed = acd(instance, checkpoints=resumed_store, resume=True)

        for result in (first, resumed):
            assert (result.clustering.to_state()
                    == uninterrupted.clustering.to_state())
            assert result.stats.snapshot() == uninterrupted.stats.snapshot()
            assert (result.stats.batch_sizes
                    == uninterrupted.stats.batch_sizes)

"""The PR's acceptance checks, as tests.

1. A sharded pruning run at the 10k-record tier with injected worker
   kills completes byte-identical to the fault-free run.
2. The chaos suite's process-fault matrices (sharded pruning and the
   pipelined executor) and checkpoint kill-resume checks report
   byte-identity and no re-executed phases.
"""

import multiprocessing

import pytest

from repro.experiments.chaos import (
    run_checkpoint_kill_resume,
    run_pipeline_process_faults,
    run_runtime_process_faults,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the sharded supervised join requires fork",
)


class TestShardedKillAtScale:
    def test_10k_tier_kill_is_byte_identical(self):
        from repro.datasets.registry import generate
        from repro.experiments.configs import PRUNING_THRESHOLD
        from repro.obs import ObsContext
        from repro.pruning.candidate import build_candidate_set
        from repro.runtime.faults import ProcessFaultPlan
        from repro.runtime.supervisor import SupervisorPolicy
        from repro.similarity.composite import jaccard_similarity_function

        dataset = generate("largescale", scale=1.0, seed=0)  # 10k records
        assert len(dataset.records) == 10_000

        def prune(fault_plan=None, obs=None):
            return build_candidate_set(
                dataset.records, jaccard_similarity_function(),
                threshold=PRUNING_THRESHOLD, shards=8, parallel=4,
                supervisor_policy=SupervisorPolicy(backoff_base_s=0.005),
                fault_plan=fault_plan, obs=obs,
            )

        reference = prune()
        obs = ObsContext()
        chaotic = prune(
            fault_plan=ProcessFaultPlan.sample(8, seed=0, kills=2),
            obs=obs,
        )
        # The production path must have taken the sharded join.
        (span,) = [root for root in obs.tracer.roots
                   if root.name == "pruning"]
        assert span.attrs["engine"] == "prefix"
        assert chaotic.pairs == reference.pairs
        assert chaotic.machine_scores == reference.machine_scores
        assert chaotic.threshold == reference.threshold
        counters = obs.metrics.as_dict()["counters"]
        assert counters.get("runtime_worker_crashes_total", 0) >= 2


class TestChaosSuiteChecks:
    def test_process_fault_matrix(self):
        checks = run_runtime_process_faults(records=10_000,
                                            faults_per_kind=1)
        by_kind = {check["fault"]: check for check in checks}
        assert set(by_kind) == {"kill", "delay", "poison"}
        assert all(check["byte_identical"] for check in checks)
        assert by_kind["kill"]["runtime_counters"].get(
            "runtime_worker_crashes_total", 0) >= 1
        assert by_kind["delay"]["runtime_counters"].get(
            "runtime_straggler_redispatches_total", 0) >= 1
        assert by_kind["poison"]["runtime_counters"].get(
            "runtime_task_retries_total", 0) >= 1

    def test_pipeline_fault_matrix(self):
        checks = run_pipeline_process_faults(records=2_000,
                                             faults_per_kind=1)
        by_kind = {check["fault"]: check for check in checks}
        assert set(by_kind) == {"kill", "delay", "poison"}
        assert all(check["byte_identical"] for check in checks)
        assert all(check["classic_identical"] for check in checks)
        assert all(check["barrier_identical"] for check in checks)
        assert by_kind["kill"]["runtime_counters"].get(
            "runtime_worker_crashes_total", 0) >= 1
        assert by_kind["poison"]["runtime_counters"].get(
            "runtime_task_retries_total", 0) >= 1

    def test_checkpoint_kill_resume(self):
        checks = run_checkpoint_kill_resume()
        by_phase = {check["phase"]: check for check in checks}
        assert set(by_phase) == {"pruning", "generation", "refinement"}
        assert all(check["byte_identical"] for check in checks)
        assert not any(check["phase_reexecuted"] for check in checks)
        assert by_phase["pruning"]["candidates_identical"]

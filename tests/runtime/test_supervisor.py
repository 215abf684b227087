"""The supervised fork pool: byte-identity under every fault schedule.

The contract under test is the determinism clause of
:func:`repro.runtime.supervised_map`: whatever the schedule of worker
crashes, stragglers, retries, and degradations, the results are exactly
``[worker_fn(p) for p in payloads]`` — and no worker process survives the
call, even when it aborts.
"""

import multiprocessing
import pickle
import threading

import pytest

from repro.obs import ObsContext
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import (
    RuntimeReport,
    SupervisedPool,
    SupervisorPolicy,
    supervised_map,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the supervised pool requires the 'fork' start method",
)


def _square(value):
    return value * value


PAYLOADS = list(range(12))
EXPECTED = [_square(value) for value in PAYLOADS]

#: Fast backoff so fault tests don't sleep through real retry delays.
FAST = SupervisorPolicy(backoff_base_s=0.001, backoff_cap_s=0.01)


def _runtime_counters(obs):
    counters = obs.metrics.as_dict()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("runtime_")}


def _no_new_children(before):
    return [child for child in multiprocessing.active_children()
            if child not in before]


class TestFaultFree:
    def test_matches_serial_map(self):
        results, report = supervised_map(_square, PAYLOADS, processes=3)
        assert results == EXPECTED
        assert report == RuntimeReport(tasks=len(PAYLOADS),
                                       bytes_shipped=report.bytes_shipped)
        assert report.bytes_shipped > 0

    def test_empty_payloads(self):
        results, report = supervised_map(_square, [], processes=2)
        assert results == []
        assert report.tasks == 0

    def test_more_processes_than_tasks(self):
        results, _ = supervised_map(_square, [5, 6], processes=8)
        assert results == [25, 36]

    def test_processes_must_be_positive(self):
        with pytest.raises(ValueError):
            supervised_map(_square, PAYLOADS, processes=0)


class TestWorkerKill:
    def test_killed_workers_retry_byte_identical(self):
        plan = ProcessFaultPlan(kill_tasks=frozenset({1, 7}))
        obs = ObsContext()
        results, report = supervised_map(
            _square, PAYLOADS, processes=3, policy=FAST,
            fault_plan=plan, obs=obs,
        )
        assert results == EXPECTED
        assert report.worker_crashes >= 2
        assert report.task_retries >= 2
        assert report.degraded_serial == 0
        counters = _runtime_counters(obs)
        assert counters.get("runtime_worker_crashes_total", 0) >= 2
        assert counters.get("runtime_task_retries_total", 0) >= 2

    def test_crashed_workers_are_respawned(self):
        plan = ProcessFaultPlan(kill_tasks=frozenset({0, 4, 8}))
        _, report = supervised_map(_square, PAYLOADS, processes=2,
                                   policy=FAST, fault_plan=plan)
        assert report.worker_respawns >= 1

    def test_respawns_count_exactly_the_directive_kills(self):
        """Whether a lost worker is needed again depends on how many
        tasks were still open when it died; a directive-killed worker is
        replaced regardless, so the count repeats under any schedule."""
        plan = ProcessFaultPlan(kill_tasks=frozenset({1, 10, 11}))
        for _ in range(3):
            obs = ObsContext()
            _, report = supervised_map(_square, PAYLOADS, processes=3,
                                       policy=FAST, fault_plan=plan,
                                       obs=obs)
            assert report.worker_respawns == 3
            assert _runtime_counters(obs)[
                "runtime_worker_respawns_total"] == 3

    def test_no_child_processes_survive(self):
        before = multiprocessing.active_children()
        plan = ProcessFaultPlan(kill_tasks=frozenset({2, 5}))
        results, _ = supervised_map(_square, PAYLOADS, processes=3,
                                    policy=FAST, fault_plan=plan)
        assert results == EXPECTED
        assert _no_new_children(before) == []


class TestClosureWorkers:
    def test_closure_over_unpicklable_object_survives_kills(self):
        """Fork, not pickle, carries the worker function: a closure over
        an object pickle rejects reaches the first workers, their
        replacements and the in-parent path alike."""
        guard = threading.Lock()
        offsets = {value: 3 * value + 1 for value in PAYLOADS}

        def shifted(value):
            with guard:
                return offsets[value] * value

        with pytest.raises(TypeError):
            pickle.dumps(guard)
        plan = ProcessFaultPlan(kill_tasks=frozenset({0, 5, 11}))
        results, report = supervised_map(shifted, PAYLOADS, processes=3,
                                         policy=FAST, fault_plan=plan)
        assert results == [shifted(value) for value in PAYLOADS]
        assert report.worker_crashes >= 3
        assert report.worker_respawns == 3


class TestDegradation:
    def test_exhausted_retries_degrade_to_serial_byte_identical(self):
        # The fault is persistent: every process-level attempt is killed,
        # so the task must finish on the in-process bottom rung.
        plan = ProcessFaultPlan(kill_tasks=frozenset({3}),
                                faulty_attempts=99)
        policy = SupervisorPolicy(max_task_retries=1, backoff_base_s=0.001)
        obs = ObsContext()
        results, report = supervised_map(
            _square, PAYLOADS, processes=2, policy=policy,
            fault_plan=plan, obs=obs,
        )
        assert results == EXPECTED
        assert report.degraded_serial >= 1
        assert _runtime_counters(obs).get(
            "runtime_degraded_serial_total", 0) >= 1

    def test_poison_tasks_retry_then_succeed(self):
        plan = ProcessFaultPlan(poison_tasks=frozenset({0, 9}))
        results, report = supervised_map(_square, PAYLOADS, processes=3,
                                         policy=FAST, fault_plan=plan)
        assert results == EXPECTED
        assert report.task_retries >= 2
        assert report.worker_crashes == 0

    def test_persistent_poison_degrades(self):
        plan = ProcessFaultPlan(poison_tasks=frozenset({6}),
                                faulty_attempts=99)
        policy = SupervisorPolicy(max_task_retries=2, backoff_base_s=0.001)
        results, report = supervised_map(_square, PAYLOADS, processes=2,
                                         policy=policy, fault_plan=plan)
        assert results == EXPECTED
        assert report.degraded_serial >= 1


class TestStragglers:
    def test_straggler_redispatch_is_deterministic(self):
        # Task 2 sleeps well past the deadline; a duplicate dispatch
        # finishes it, and first-result-wins keeps the output identical.
        plan = ProcessFaultPlan(delay_tasks=frozenset({2}),
                                delay_seconds=0.5)
        policy = SupervisorPolicy(backoff_base_s=0.001,
                                  task_deadline_s=0.05)
        obs = ObsContext()
        results, report = supervised_map(
            _square, PAYLOADS, processes=3, policy=policy,
            fault_plan=plan, obs=obs,
        )
        assert results == EXPECTED
        assert report.straggler_redispatches >= 1
        assert _runtime_counters(obs).get(
            "runtime_straggler_redispatches_total", 0) >= 1

    def test_delay_without_deadline_just_finishes(self):
        plan = ProcessFaultPlan(delay_tasks=frozenset({1}),
                                delay_seconds=0.05)
        results, report = supervised_map(_square, PAYLOADS, processes=2,
                                         policy=FAST, fault_plan=plan)
        assert results == EXPECTED
        assert report.straggler_redispatches == 0

    def test_hung_worker_with_no_retry_budget_is_terminated(self):
        # Regression: with the retry budget exhausted, an expired deadline
        # used to only set `deadline_fired` — the event loop then blocked
        # in connection.wait with no timeout, waiting forever on a worker
        # that never answers.  The hung worker must be terminated and the
        # task must finish on the in-process bottom rung.
        before = multiprocessing.active_children()
        plan = ProcessFaultPlan(delay_tasks=frozenset({1}),
                                delay_seconds=8.0)
        policy = SupervisorPolicy(max_task_retries=0, task_deadline_s=0.1,
                                  backoff_base_s=0.001)
        obs = ObsContext()
        results, report = supervised_map(
            _square, PAYLOADS[:4], processes=2, policy=policy,
            fault_plan=plan, obs=obs,
        )
        assert results == EXPECTED[:4]
        assert report.straggler_terminations >= 1
        assert report.degraded_serial >= 1
        assert _runtime_counters(obs).get(
            "runtime_straggler_terminations_total", 0) >= 1
        assert _no_new_children(before) == []


class TestInterruptHygiene:
    def test_aborted_map_reaps_every_worker(self):
        # An unpicklable payload makes the dispatch itself raise; the
        # supervisor's finally-shutdown must still leave no child behind.
        before = multiprocessing.active_children()
        payloads = [lambda: None for _ in range(4)]
        with pytest.raises(Exception):
            supervised_map(_square, payloads, processes=2)
        assert _no_new_children(before) == []


def _sleep_then_square(value):
    import time

    time.sleep(0.3)
    return value * value


class TestSupervisedPool:
    def _collect(self, pool, count):
        return dict(pool.next_result() for _ in range(count))

    def test_one_process_runs_inline(self):
        before = multiprocessing.active_children()
        pool = SupervisedPool(_square, 1)
        try:
            for value in PAYLOADS:
                pool.submit(value)
            assert _no_new_children(before) == []
            results = self._collect(pool, len(PAYLOADS))
        finally:
            pool.close()
        assert [results[index] for index in range(len(PAYLOADS))] == EXPECTED

    def test_task_deadline_redispatches_stragglers(self):
        plan = ProcessFaultPlan(delay_tasks=frozenset({0}),
                                delay_seconds=0.5)
        policy = SupervisorPolicy(backoff_base_s=0.001,
                                  task_deadline_s=0.05)
        pool = SupervisedPool(_square, 2, policy=policy, fault_plan=plan)
        try:
            for value in PAYLOADS[:4]:
                pool.submit(value)
            results = self._collect(pool, 4)
            # The pool stays up: a second wave runs on the same workers.
            for value in PAYLOADS[4:8]:
                pool.submit(value)
            results.update(self._collect(pool, 4))
        finally:
            pool.close()
        assert [results[index] for index in range(8)] == EXPECTED[:8]
        assert pool.report.straggler_redispatches >= 1
        assert pool.report.tasks == 8
        assert pool.report.bytes_shipped > 0

    def test_waiting_on_busy_workers_does_not_spin(self):
        """Regression: a queued task with every worker busy must block in
        the wait, not poll it with a zero timeout."""
        import time

        pool = SupervisedPool(_sleep_then_square, 2)
        try:
            for value in range(4):
                pool.submit(value)
            cpu_before = time.process_time()
            results = self._collect(pool, 4)
            cpu_spent = time.process_time() - cpu_before
        finally:
            pool.close()
        assert results == {value: value * value for value in range(4)}
        assert cpu_spent < 0.2


class TestPolicy:
    @pytest.mark.parametrize("kwargs", (
        dict(max_task_retries=-1),
        dict(backoff_base_s=-0.1),
        dict(backoff_cap_s=-1.0),
        dict(task_deadline_s=0.0),
        dict(task_deadline_s=-1.0),
        dict(max_worker_respawns=-1),
    ))
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs)

    def test_backoff_doubles_and_caps(self):
        policy = SupervisorPolicy(backoff_base_s=0.02, backoff_cap_s=0.05)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.04)
        assert policy.backoff(3) == pytest.approx(0.05)  # capped
        assert policy.backoff(10) == pytest.approx(0.05)

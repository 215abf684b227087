"""The supervised fork pool: worker death, stragglers, retries, degradation.

The raw ``multiprocessing.Pool`` the pruning layer used has a famous
failure mode: an OOM-killed or segfaulted worker leaves ``Pool.map``
hanging (or crashing) with no record of which chunk died.  This module is
the replacement, and the only place the package forks supervised
workers.  :class:`SupervisedPool` manages worker processes directly — one
duplex pipe each — and supervises every dispatched task:

- **Crash detection.**  Worker process sentinels are part of the event
  loop; a dead worker (non-zero exitcode, broken pipe) is detected
  immediately and its in-flight task is recovered.  A worker a chaos
  kill directive took down is always replaced, so ``worker_respawns``
  counts exactly the plan's kills, whatever the schedule; other lost
  workers are refilled only while unresolved tasks outnumber live
  workers, and are not counted as respawns.  Both draw on the
  ``max_worker_respawns`` budget.
- **Deadlines / stragglers.**  With ``task_deadline_s`` set, a task that
  outlives its deadline is re-dispatched to another worker; the first
  result wins.  Workers are pure functions, so duplicate execution is
  harmless and results stay byte-identical.  A straggler that cannot be
  re-dispatched (its task already resolved, or its retry budget spent)
  is terminated so a hung worker can never block the event loop.
- **Bounded retries.**  A failed execution (crash or raise) is retried
  with exponential backoff, up to ``max_task_retries`` extra attempts —
  the process-level mirror of the crowd layer's HIT repost budget.
- **Serial degradation.**  When a task exhausts its process-level budget
  (or the whole pool dies), it runs in-process in the parent.  The worker
  function is pure and the parent calls the very same one, so the
  degraded result is byte-identical — the run completes, slower, never
  wrong.

Workers read everything but their payload from the worker function
itself: fork copies it, closures and unpicklable captures included, so
a caller hands a pool its shared inputs by closing over them, and they
are released with the pool.  The pool is long-lived: tasks are submitted
as they become ready and collected in completion order —
:func:`repro.core.acd.run_acd` keeps one pool up for all of cluster
generation's component tasks this way (:mod:`repro.core.generation`).
:func:`supervised_map` is the one-shot wrapper the pruning join uses.

:func:`uses_pool` is the one place a caller asks whether its requested
processes will fork.  Without the ``fork`` start method the answer is
no, and the fallback is never silent: it raises a
:class:`ParallelFallbackWarning` and emits a ``pruning.parallel_fallback``
warning event.  Results are identical either way.

Every decision is observable: ``runtime.worker_crash`` /
``runtime.task_retry`` / ``runtime.straggler_redispatch`` /
``runtime.straggler_termination`` /
``runtime.degraded_serial`` / ``runtime.worker_respawn`` events on the
attached :class:`~repro.obs.ObsContext`, matching ``runtime_*_total``
metrics counters, and a :class:`RuntimeReport` returned to the caller.

Determinism contract: results are keyed by task index, workers and the
degraded path compute the same pure function, so every result is
byte-identical to calling the function in-process, for every schedule of
crashes, stragglers, and retries.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import pickle
import time
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.runtime.faults import ProcessFaultPlan

#: Exit code of a chaos-killed worker (any abnormal exit is treated the
#: same; the constant only makes chaos kills recognizable in event logs).
CHAOS_KILL_EXIT = 87

#: How long a worker gets to honor a "stop" message before termination.
_SHUTDOWN_GRACE_S = 0.5


class ParallelFallbackWarning(RuntimeWarning):
    """A requested parallel run fell back to the in-process path."""


def fork_available() -> bool:
    """Whether the ``fork`` start method (required for the pool) exists."""
    return "fork" in multiprocessing.get_all_start_methods()


def uses_pool(processes: int, *, context: str, obs=None) -> bool:
    """Will a request for ``processes`` workers fork a pool?

    No for ``processes <= 1``.  Without the ``fork`` start method also
    no, and the fallback is recorded: a :class:`ParallelFallbackWarning`
    (always) and a ``pruning.parallel_fallback`` warning event on ``obs``
    (when attached) with the requested count and ``context`` (the call
    site).  Results are byte-identical, only the wall-clock expectation
    is not met.
    """
    if processes <= 1:
        return False
    if fork_available():
        return True
    warnings.warn(
        f"{context}: {processes} worker processes requested but the "
        "'fork' start method is unavailable on this platform; running "
        "serially (results are identical, only slower)",
        ParallelFallbackWarning, stacklevel=3,
    )
    if obs is not None:
        obs.event("pruning.parallel_fallback", requested=processes,
                  context=context, reason="fork-unavailable")
    return False


@dataclass(frozen=True)
class SupervisorPolicy:
    """Fault-handling knobs of the supervised pool.

    Attributes:
        max_task_retries: Extra executions granted to a task after its
            first failure before it degrades to in-process execution
            (straggler duplicates draw from the same budget).
        backoff_base_s: First retry delay; doubles per further attempt.
        backoff_cap_s: Upper bound on any single retry delay.
        task_deadline_s: Wall-clock budget per task execution before a
            duplicate is dispatched to another worker (``None`` disables
            straggler re-dispatch — the production default, since honest
            long tasks would otherwise double-execute).
        max_worker_respawns: Replacement workers forked over the pool's
            lifetime before crashes start shrinking the pool instead.
    """

    max_task_retries: int = 3
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    task_deadline_s: Optional[float] = None
    max_worker_respawns: int = 8

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {self.max_task_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.task_deadline_s is not None and self.task_deadline_s <= 0:
            raise ValueError(
                f"task_deadline_s must be > 0, got {self.task_deadline_s}"
            )
        if self.max_worker_respawns < 0:
            raise ValueError(
                f"max_worker_respawns must be >= 0, "
                f"got {self.max_worker_respawns}"
            )

    def backoff(self, failures: int) -> float:
        """Delay before the retry following the ``failures``-th failure."""
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** max(0, failures - 1)))


@dataclass
class RuntimeReport:
    """What the supervisor had to do to finish a pool's tasks.

    All zeros on a fault-free run.  The chaos suite and the runtime tests
    read these; the same counts land in the obs metrics registry as
    ``runtime_*_total`` counters.
    """

    tasks: int = 0
    worker_crashes: int = 0
    task_retries: int = 0
    straggler_redispatches: int = 0
    straggler_terminations: int = 0
    #: Replacements for workers a fault-plan kill directive took down.
    worker_respawns: int = 0
    degraded_serial: int = 0
    #: Pickled payload bytes handed to the pool (each task once).
    bytes_shipped: int = 0

    def add(self, other: "RuntimeReport") -> None:
        """Add ``other``'s counts to these (one run's several pools)."""
        for name in self.as_dict():
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        return {
            "tasks": self.tasks,
            "worker_crashes": self.worker_crashes,
            "task_retries": self.task_retries,
            "straggler_redispatches": self.straggler_redispatches,
            "straggler_terminations": self.straggler_terminations,
            "worker_respawns": self.worker_respawns,
            "degraded_serial": self.degraded_serial,
            "bytes_shipped": self.bytes_shipped,
        }


def _worker_main(worker_fn: Callable[[Any], Any], conn,
                 fault_plan: Optional[ProcessFaultPlan]) -> None:
    """Worker process body: serve tasks off the pipe until told to stop.

    Payloads arrive pickled (the parent serializes each one once, at
    submission).  Chaos faults are applied *here*, per (task, attempt),
    so the parent's serial degradation path (which never enters this
    function) always runs clean — that is the bottom rung of the
    degradation ladder.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "stop":
                return
            _, index, attempt, blob = message
            directive = (fault_plan.directive(index, attempt)
                         if fault_plan is not None else None)
            if directive is not None:
                if directive.kind == "kill":
                    os._exit(CHAOS_KILL_EXIT)
                elif directive.kind == "delay":
                    time.sleep(directive.delay_seconds)
                elif directive.kind == "poison":
                    conn.send((index, attempt, "error",
                               f"chaos poison (task {index}, "
                               f"attempt {attempt})"))
                    continue
            try:
                result = worker_fn(pickle.loads(blob))
            except BaseException as error:  # noqa: BLE001 - forwarded
                outcome: Tuple = (index, attempt, "error", repr(error))
            else:
                outcome = (index, attempt, "ok", result)
            try:
                conn.send(outcome)
            except (BrokenPipeError, OSError):
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class _Worker:
    process: Any
    conn: Any
    #: (task_index, attempt, deadline_monotonic | None) while busy.
    task: Optional[Tuple[int, int, Optional[float]]] = None
    #: Set when this worker's deadline already triggered a re-dispatch.
    deadline_fired: bool = False


class _Observer:
    """Fans supervisor decisions out to obs events + metrics counters."""

    def __init__(self, obs, label: str):
        self._obs = obs
        self._label = label

    def record(self, counter: str, event: str, **attrs: Any) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter(
            counter, help=f"Supervised-pool {event} occurrences",
        ).inc()
        self._obs.event(event, pool=self._label, **attrs)


class SupervisedPool:
    """A persistent supervised fork pool: submit tasks, collect results.

    Tasks are submitted as they become ready (:meth:`submit`) and
    collected in completion order (:meth:`next_result`); the pool stays
    up until :meth:`close`, so one fork can serve several phases.  Every
    task runs the fault ladder of the module docstring.

    With ``processes <= 1`` or no ``fork`` start method the pool runs
    *inline*: tasks execute synchronously in submission order in the
    parent, and fault plans do not apply.

    Args:
        worker_fn: A *pure* function of one payload.  It is carried to
            workers by fork, so a closure over the inputs every task
            shares (unpicklable ones included) is how a caller hands
            them to the workers.
        processes: Worker processes, forked up front.
        policy: Fault-handling knobs (default :class:`SupervisorPolicy`).
        obs: Optional :class:`~repro.obs.ObsContext` receiving
            ``runtime.*`` events and ``runtime_*_total`` counters.
        fault_plan: Deterministic chaos injected inside workers, keyed
            by task index (submission order).
        label: Pool name recorded on every event.
    """

    def __init__(self, worker_fn: Callable[[Any], Any], processes: int,
                 policy: Optional[SupervisorPolicy] = None, obs=None,
                 fault_plan: Optional[ProcessFaultPlan] = None,
                 label: str = "runtime"):
        if processes < 0:
            raise ValueError(f"processes must be >= 0, got {processes}")
        self._worker_fn = worker_fn
        self._processes = processes
        self._policy = policy if policy is not None else SupervisorPolicy()
        self._observer = _Observer(obs, label)
        self._fault_plan = fault_plan
        self.report = RuntimeReport()
        self._payloads: List[Any] = []
        #: Min-heap of (ready_at_monotonic, sequence, task_index).
        self._pending: List[Tuple[float, int, int]] = []
        self._sequence = 0
        self._dispatches: List[int] = []
        self._inflight: List[int] = []
        self._failures: List[int] = []
        #: Tasks whose result is decided (queued in _ready or delivered).
        self._resolved: Set[int] = set()
        self._ready: Deque[Tuple[int, Any]] = deque()
        self._outstanding = 0
        self._workers: List[_Worker] = []
        #: Workers forked to replace lost ones (the respawn budget), and
        #: directive-killed workers not yet replaced.
        self._replacements = 0
        self._owed_respawns = 0
        self._inline = processes <= 1 or not fork_available()
        if not self._inline:
            self._context = multiprocessing.get_context("fork")
            self._workers = [self._spawn() for _ in range(processes)]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(self._worker_fn, child_conn, self._fault_plan),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def submit(self, payload: Any) -> int:
        """Queue a task; returns its index (also the fault-plan key)."""
        index = len(self._payloads)
        if self._inline:
            self._payloads.append(payload)
        else:
            # Pickle once at submission: the blob is what every dispatch
            # (retries and duplicates included) ships, so the meter is
            # exact and the parent never re-serializes a payload.
            blob = pickle.dumps(payload)
            self._payloads.append(blob)
            self.report.bytes_shipped += len(blob)
        self._dispatches.append(0)
        self._inflight.append(0)
        self._failures.append(0)
        self._outstanding += 1
        self.report.tasks += 1
        self._push(0.0, index)
        return index

    def next_result(self) -> Tuple[int, Any]:
        """Block until some submitted task completes; return (index, value)."""
        if self._outstanding == 0:
            raise RuntimeError("no outstanding tasks")
        while not self._ready:
            if self._inline:
                _, _, index = heapq.heappop(self._pending)
                self._resolved.add(index)
                self._ready.append(
                    (index, self._worker_fn(self._payloads[index])))
            else:
                self._step()
        self._outstanding -= 1
        return self._ready.popleft()

    def close(self) -> None:
        """Stop, terminate, and reap every worker (idempotent)."""
        _shutdown(self._workers)
        self._workers = []

    def _push(self, ready_at: float, index: int) -> None:
        heapq.heappush(self._pending, (ready_at, self._sequence, index))
        self._sequence += 1

    def _degrade(self, index: int) -> None:
        """Bottom rung: run a task in-parent, fault-free, byte-identical."""
        self._resolved.add(index)
        self.report.degraded_serial += 1
        self._observer.record(
            "runtime_degraded_serial_total", "runtime.degraded_serial",
            task=index, failures=self._failures[index],
        )
        payload = pickle.loads(self._payloads[index])
        self._ready.append((index, self._worker_fn(payload)))

    def _handle_failure(self, worker: Optional[_Worker], index: int,
                        attempt: int, reason: str) -> None:
        if worker is not None:
            worker.task = None
            worker.deadline_fired = False
        if index in self._resolved:
            return
        self._failures[index] += 1
        if self._dispatches[index] < 1 + self._policy.max_task_retries:
            delay = self._policy.backoff(self._failures[index])
            self.report.task_retries += 1
            self._observer.record(
                "runtime_task_retries_total", "runtime.task_retry",
                task=index, attempt=attempt, reason=reason,
                backoff_s=round(delay, 4),
            )
            self._push(time.monotonic() + delay, index)
        elif self._inflight[index] == 0:
            self._degrade(index)

    def _respawn_if_short(self) -> None:
        """Replace lost workers within the respawn budget.

        A directive-killed worker is always replaced (its task's retry
        is still owed), so the respawn count is a function of the fault
        plan alone.  Any other shortfall is refilled only up to the
        unresolved task count, and is not counted as a respawn: whether
        it arises depends on how many tasks were still open at the crash.
        """
        unresolved = len(self._payloads) - len(self._resolved)
        while (self._replacements < self._policy.max_worker_respawns
               and (self._owed_respawns
                    or len(self._workers) < min(self._processes,
                                                unresolved))):
            self._replacements += 1
            replacement = self._spawn()
            self._workers.append(replacement)
            if self._owed_respawns:
                self._owed_respawns -= 1
                self.report.worker_respawns += 1
                self._observer.record(
                    "runtime_worker_respawns_total",
                    "runtime.worker_respawn", pid=replacement.process.pid,
                )

    def _remove(self, worker: _Worker) -> None:
        self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _step(self) -> None:
        """One event-loop iteration: dispatch, wait, reap, recover."""
        self._respawn_if_short()
        if not self._workers:
            # The whole pool is gone and cannot be rebuilt: degrade every
            # unresolved queued task (later submissions land here too).
            while self._pending:
                _, _, index = heapq.heappop(self._pending)
                if index not in self._resolved:
                    self._degrade(index)
            return

        now = time.monotonic()
        deadline_s = self._policy.task_deadline_s
        idle = [worker for worker in self._workers if worker.task is None]
        while idle and self._pending and self._pending[0][0] <= now:
            _, _, index = heapq.heappop(self._pending)
            if index in self._resolved:
                continue
            worker = idle.pop()
            attempt = self._dispatches[index]
            self._dispatches[index] += 1
            self._inflight[index] += 1
            worker.task = (index, attempt,
                           now + deadline_s if deadline_s is not None
                           else None)
            worker.deadline_fired = False
            try:
                worker.conn.send(("task", index, attempt,
                                  self._payloads[index]))
            except (BrokenPipeError, OSError):
                # Died between dispatches; the sentinel handler below
                # reaps the worker and recovers the task as a failure.
                pass

        # Block until a result, crash, deadline, or backoff wakes us.  A
        # queued task is a wakeup only while some worker is idle to take
        # it: the dispatch loop above already drained every ready task,
        # so a non-empty queue with all workers busy must NOT set a zero
        # timeout — that degenerates into a busy-spin that steals the CPU
        # from the workers it is waiting on.
        busy = [worker for worker in self._workers
                if worker.task is not None]
        if not busy and not self._pending:
            raise RuntimeError("supervised pool has outstanding tasks "
                               "but nothing running or queued")
        wakeups = [worker.task[2] for worker in busy
                   if worker.task[2] is not None
                   and not worker.deadline_fired]
        if self._pending and idle:
            wakeups.append(self._pending[0][0])
        timeout = (max(0.0, min(wakeups) - time.monotonic())
                   if wakeups else None)
        waitable = ([worker.conn for worker in busy]
                    + [worker.process.sentinel for worker in self._workers])
        ready = connection.wait(waitable, timeout)

        conn_of = {worker.conn: worker for worker in busy}
        sentinel_of = {worker.process.sentinel: worker
                       for worker in self._workers}
        crashed: List[_Worker] = []
        for item in ready:
            if item in conn_of:
                worker = conn_of[item]
                try:
                    index, attempt, status, value = worker.conn.recv()
                except (EOFError, OSError):
                    crashed.append(worker)  # died mid-send
                    continue
                self._inflight[index] -= 1
                if status == "ok":
                    worker.task = None
                    worker.deadline_fired = False
                    if index not in self._resolved:
                        self._resolved.add(index)
                        self._ready.append((index, value))
                else:
                    self._handle_failure(worker, index, attempt, value)
            elif item in sentinel_of:
                crashed.append(sentinel_of[item])

        for worker in crashed:
            if worker not in self._workers:
                continue
            self._remove(worker)
            worker.process.join()
            self.report.worker_crashes += 1
            self._observer.record(
                "runtime_worker_crashes_total", "runtime.worker_crash",
                exitcode=worker.process.exitcode, pid=worker.process.pid,
            )
            if worker.task is not None:
                index, attempt, _ = worker.task
                directive = (self._fault_plan.directive(index, attempt)
                             if self._fault_plan is not None else None)
                if directive is not None and directive.kind == "kill":
                    self._owed_respawns += 1
                self._inflight[index] -= 1
                self._handle_failure(None, index, attempt, "worker-crash")
        self._reap_stragglers()

    def _reap_stragglers(self) -> None:
        """Expired deadlines queue a duplicate; hung workers are killed.

        A straggler that cannot be re-dispatched (its task resolved by a
        duplicate, or its retry budget spent) is terminated outright —
        merely flagging it would leave the loop blocked in
        ``connection.wait`` on a hung worker that never answers.
        """
        now = time.monotonic()
        budget = 1 + self._policy.max_task_retries
        hung: List[_Worker] = []
        for worker in self._workers:
            if (worker.task is None or worker.deadline_fired
                    or worker.task[2] is None or worker.task[2] > now):
                continue
            index, attempt, _ = worker.task
            worker.deadline_fired = True
            if index in self._resolved or self._dispatches[index] >= budget:
                hung.append(worker)
                continue
            self.report.straggler_redispatches += 1
            self._observer.record(
                "runtime_straggler_redispatches_total",
                "runtime.straggler_redispatch",
                task=index, attempt=attempt,
                deadline_s=self._policy.task_deadline_s,
            )
            self._push(now, index)
        for worker in hung:
            index, attempt, _ = worker.task
            self._remove(worker)
            self.report.straggler_terminations += 1
            self._observer.record(
                "runtime_straggler_terminations_total",
                "runtime.straggler_termination",
                task=index, attempt=attempt, pid=worker.process.pid,
                deadline_s=self._policy.task_deadline_s,
            )
            worker.process.terminate()
            worker.process.join()
            self._inflight[index] -= 1
            if self._inflight[index] == 0 and index not in self._resolved:
                self._degrade(index)


def supervised_map(
    worker_fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    processes: int,
    policy: Optional[SupervisorPolicy] = None,
    obs=None,
    fault_plan: Optional[ProcessFaultPlan] = None,
    label: str = "runtime",
) -> Tuple[List[Any], RuntimeReport]:
    """Map ``worker_fn`` over ``payloads`` on a :class:`SupervisedPool`.

    A drop-in replacement for ``Pool.map`` over pure functions: submits
    every payload, collects the results in payload order, and shuts the
    pool down on every exit path.  ``processes`` is capped at the task
    count, so a single task (or ``processes=1``) runs inline.

    Returns:
        ``(results, report)`` — results in payload order, byte-identical
        to ``[worker_fn(p) for p in payloads]``.
    """
    payloads = list(payloads)
    if not payloads:
        return [], RuntimeReport()
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    pool = SupervisedPool(worker_fn, min(processes, len(payloads)),
                          policy=policy, obs=obs, fault_plan=fault_plan,
                          label=label)
    try:
        for payload in payloads:
            pool.submit(payload)
        results: List[Any] = [None] * len(payloads)
        for _ in payloads:
            index, value = pool.next_result()
            results[index] = value
    finally:
        pool.close()
    return results, pool.report


def _shutdown(workers: List[_Worker]) -> None:
    """Stop, terminate, and reap every worker — no child may survive.

    Runs on every exit path (success, exception, KeyboardInterrupt), so
    an aborted parallel run never leaves orphan processes behind.
    """
    for worker in workers:
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    deadline = time.monotonic() + _SHUTDOWN_GRACE_S
    for worker in workers:
        worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
    for worker in workers:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=_SHUTDOWN_GRACE_S)
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.kill()
            worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass

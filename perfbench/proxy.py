"""Answer-source proxy that counts and times crowd calls from outside.

The per-layer crowd metrics come from wrapping the answer source a run
receives, not from instrumentation inside ``repro``.  The proxy keeps the
wrapped source's contract (``confidence``, ``prime``, ``num_workers``,
``pair_deterministic``, ``fork_source``), so a proxied run resolves
byte-identical answers and produces a byte-identical clustering.

Worker processes of the pipelined executor never see the proxy itself:
they resolve rounds through ``fork_source``.  The proxy's fork view counts
those rounds into an anonymous shared mapping created with the proxy,
before any pool forks, so the parent can read the workers' totals after
the pool has shut down.
"""

from __future__ import annotations

import mmap
import multiprocessing
import struct
import time

# Shared layout: component rounds (count), then seconds spent in them.
_SHARED_FORMAT = "dd"


class CountingAnswers:
    """Wraps an answer source; counts and times every call made through it.

    Attributes:
        calls: ``confidence`` calls made in this process.
        seconds: Wall-clock seconds spent inside those calls.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0
        self.seconds = 0.0
        self._shared = mmap.mmap(-1, struct.calcsize(_SHARED_FORMAT))
        self._lock = multiprocessing.get_context("fork").Lock()

    @property
    def pair_deterministic(self) -> bool:
        return bool(getattr(self._inner, "pair_deterministic", False))

    @property
    def num_workers(self) -> int:
        return self._inner.num_workers

    def confidence(self, record_a: int, record_b: int) -> float:
        start = time.perf_counter()
        try:
            return self._inner.confidence(record_a, record_b)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1

    def prime(self, answers) -> None:
        self._inner.prime(answers)

    @property
    def fork_source(self) -> "_CountingForkView":
        inner = getattr(self._inner, "fork_source", self._inner)
        return _CountingForkView(inner, self._shared, self._lock)

    def component_rounds(self) -> int:
        """Rounds resolved through :attr:`fork_source`, in any process."""
        return int(struct.unpack_from(_SHARED_FORMAT, self._shared)[0])

    def wait_seconds(self) -> float:
        """Seconds those rounds took, summed over every process."""
        return struct.unpack_from(_SHARED_FORMAT, self._shared)[1]


class _CountingForkView:
    """The worker-side view: one ``confidence_batch`` call per crowd round.

    Each call is counted and timed into the shared mapping under a lock,
    since several pool workers resolve rounds concurrently.  Answers come
    from the wrapped view's ``confidence_batch`` when it has one (which is
    where simulated crowd latency sleeps), else pair by pair.
    """

    pair_deterministic = True

    def __init__(self, inner, shared: mmap.mmap, lock):
        self._inner = inner
        self._shared = shared
        self._lock = lock

    @property
    def num_workers(self) -> int:
        return self._inner.num_workers

    def confidence(self, record_a: int, record_b: int) -> float:
        return self._inner.confidence(record_a, record_b)

    def confidence_batch(self, pairs):
        start = time.perf_counter()
        resolver = getattr(self._inner, "confidence_batch", None)
        if resolver is not None:
            answers = resolver(pairs)
        else:
            answers = {pair: self._inner.confidence(*pair) for pair in pairs}
        elapsed = time.perf_counter() - start
        with self._lock:
            rounds, seconds = struct.unpack_from(_SHARED_FORMAT, self._shared)
            struct.pack_into(_SHARED_FORMAT, self._shared, 0, rounds + 1,
                             seconds + elapsed)
        return answers

"""Scoped wall-clock timers and the ``BENCH_*.json`` schema.

The pruning engine and the benchmark harness share one instrumentation
vocabulary: a :class:`StageTimings` accumulates named stage durations
(``blocking``, ``scoring``, ``total``, ...) via the :meth:`StageTimings.stage`
context manager, and :func:`write_bench_json` persists a benchmark run as a
machine-readable JSON document that future PRs regress against.

BENCH JSON schema (one document per benchmark)::

    {
      "benchmark": "pruning",              # harness name
      "schema_version": 1,
      "created_unix": 1754000000.0,        # time.time() at write
      "config": {"scale": 2.0, ...},       # harness knobs (env-driven)
      "runs": {                            # one entry per measured variant
        "paper/reference": {
          "stages": {"blocking": 0.41, "scoring": 3.2, "total": 3.61},
          "meters": {"peak_rss_bytes": 73400320,      # optional gauges
                     "records_per_second": 14200.0},
          "meta":   {"records": 600, "pairs": 1234}
        },
        ...
      },
      "derived": {"speedup": 4.2, ...}     # harness-computed summaries
    }

Timings are wall-clock seconds from :func:`time.perf_counter`.  Repeated
entries to the same stage accumulate, so a stage may wrap a loop body.

Besides durations, a :class:`StageTimings` carries *meters* — point-in-time
gauges such as peak RSS (:func:`peak_rss_bytes`) and derived throughputs
(records/sec, pairs/sec via :meth:`StageTimings.record_throughput`).  Meters
ride along in the same run entry under a ``meters`` key, so every benchmark
that reports timings can report memory and throughput for free.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

SCHEMA_VERSION = 1


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Uses ``resource.getrusage`` (always available on POSIX; no psutil
    dependency).  ``ru_maxrss`` is kibibytes on Linux but bytes on macOS —
    normalized here.  Note this is a high-water mark since process start,
    not the current footprint: record it right after the stage of interest
    and interpret deltas accordingly.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


class StageTimings:
    """Accumulates named wall-clock stage durations.

    >>> timings = StageTimings()
    >>> with timings.stage("blocking"):
    ...     pass
    >>> sorted(timings.as_dict()) == ["blocking"]
    True
    """

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._meters: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (accumulating on re-entry)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to stage ``name``."""
        if seconds < 0:
            raise ValueError(f"negative duration for stage {name!r}: {seconds}")
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def seconds(self, name: str) -> float:
        """Accumulated seconds of one stage (0.0 if never entered)."""
        return self._seconds.get(name, 0.0)

    @property
    def total(self) -> float:
        """Sum of all recorded stages (excluding an explicit 'total' stage)."""
        return sum(
            seconds for name, seconds in self._seconds.items() if name != "total"
        )

    def set_meter(self, name: str, value: float) -> None:
        """Set a gauge meter (overwrites; meters are point measurements)."""
        self._meters[name] = value

    def record_peak_rss(self, name: str = "peak_rss_bytes") -> int:
        """Capture the process peak RSS into meter ``name``; returns it."""
        peak = peak_rss_bytes()
        self.set_meter(name, float(peak))
        return peak

    def record_throughput(self, name: str, count: int,
                          stage: Optional[str] = None) -> float:
        """Derive an items-per-second meter from a recorded stage.

        Args:
            name: Meter name (e.g. ``records_per_second``).
            count: Items processed (records, pairs, ...).
            stage: Stage whose duration divides ``count``; defaults to the
                cross-stage total.

        Returns:
            The computed rate (0.0 when the duration is not measurable).
        """
        seconds = self.seconds(stage) if stage is not None else self.total
        rate = count / seconds if seconds > 0 else 0.0
        self.set_meter(name, rate)
        return rate

    @property
    def meters(self) -> Dict[str, float]:
        """Meter -> value mapping, insertion-ordered."""
        return dict(self._meters)

    def as_dict(self) -> Dict[str, float]:
        """Stage -> seconds mapping, insertion-ordered."""
        return dict(self._seconds)

    def with_total(self) -> Dict[str, float]:
        """Stage mapping plus a ``total`` key (explicit total wins if set)."""
        out = self.as_dict()
        out.setdefault("total", self.total)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={seconds:.4f}s" for name, seconds in self._seconds.items()
        )
        return f"StageTimings({inner})"


#: The shared no-op context of :func:`maybe_stage` (``nullcontext`` is
#: reusable, so disabled sites allocate nothing).
_NULL_STAGE = nullcontext()


def maybe_stage(timings: Optional[StageTimings], name: str):
    """A stage on ``timings`` — or the shared no-op context when it is None.

    The timing twin of :func:`repro.obs.maybe_span`::

        with maybe_stage(timings, "refine.pack"):
            ...
    """
    if timings is None:
        return _NULL_STAGE
    return timings.stage(name)


def bench_payload(
    benchmark: str,
    config: Optional[Mapping[str, Any]] = None,
    runs: Optional[Mapping[str, Mapping[str, Any]]] = None,
    derived: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a BENCH document in the shared schema (see module docstring)."""
    return {
        "benchmark": benchmark,
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "config": dict(config or {}),
        "runs": {name: dict(run) for name, run in (runs or {}).items()},
        "derived": dict(derived or {}),
    }


def run_entry(
    timings: StageTimings, **meta: Any
) -> Dict[str, Any]:
    """One ``runs`` entry: stage timings (with total), any recorded meters
    (peak RSS, throughputs), plus free-form meta."""
    entry: Dict[str, Any] = {"stages": timings.with_total()}
    if timings.meters:
        entry["meters"] = timings.meters
    entry["meta"] = dict(meta)
    return entry


def write_bench_json(path: Union[str, Path], payload: Mapping[str, Any]) -> Path:
    """Write a BENCH document; returns the resolved path."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return target


def read_bench_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a BENCH document back (inverse of :func:`write_bench_json`)."""
    return json.loads(Path(path).read_text())

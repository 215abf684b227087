"""Benchmark meters and the ``BENCH_*.json`` schema.

Stage durations are spans: the pipeline's phases and stages (``pruning``
with its ``blocking`` / ``scoring`` stages, the five ``refine.*`` stages
of a PC-Refine round, ...) open spans on an optional
:class:`~repro.obs.ObsContext`, and a harness that wants a stage table
passes one and reads ``obs.tracer.span_summaries()`` (harness-level
timers are spans on an ``ObsContext`` of their own).  This module adds
what spans do not carry: :class:`StageTimings` *meters* — peak RSS and
throughputs — and :func:`write_bench_json`, which persists a benchmark
run as a machine-readable JSON document that future PRs regress
against.

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

``stages`` is :func:`stage_seconds` of the run's span rollup: span
wall-clock seconds (:func:`time.perf_counter`) summed per name, so a
stage may wrap a loop body and nested spans appear next to their
parent.  ``meters`` are point-in-time gauges — peak RSS
(:func:`peak_rss_bytes`) and throughputs (records/sec, pairs/sec via
:meth:`StageTimings.record_throughput`).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

SCHEMA_VERSION = 1


def peak_rss_bytes() -> int:
    """Peak resident set size of this process plus its largest reaped
    child, in bytes (perfbench's ``peak_rss_mb`` reads the same sum).

    Uses ``resource.getrusage`` (always available on POSIX; no psutil
    dependency).  ``ru_maxrss`` is kibibytes on Linux but bytes on macOS —
    normalized here.  Both terms are high-water marks over the process
    lifetime, not the current footprint: a variant measured after a
    larger one in the same process repeats the larger peak, so the
    harnesses run each measured variant in its own forked child
    (``benchmarks/common.py``'s ``in_fork``) and read it there.  The
    child term covers worker pools the variant forked and reaped.
    """
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


class StageTimings:
    """A run's meters: point-in-time gauges such as peak RSS and
    throughputs.  Stage durations are spans (see the module docstring).

    >>> timings = StageTimings()
    >>> timings.set_meter("records_per_second", 42.0)
    >>> timings.meters
    {'records_per_second': 42.0}
    """

    def __init__(self) -> None:
        self._meters: Dict[str, float] = {}

    def set_meter(self, name: str, value: float) -> None:
        """Set a gauge meter (overwrites; meters are point measurements)."""
        self._meters[name] = value

    def record_peak_rss(self, name: str = "peak_rss_bytes") -> int:
        """Capture :func:`peak_rss_bytes` into meter ``name``; returns it."""
        peak = peak_rss_bytes()
        self.set_meter(name, float(peak))
        return peak

    def record_throughput(self, name: str, count: int,
                          seconds: float) -> float:
        """Set an items-per-second meter.

        Args:
            name: Meter name (e.g. ``records_per_second``).
            count: Items processed (records, pairs, ...).
            seconds: The wall-clock they took (typically one entry of
                :func:`stage_seconds`).

        Returns:
            The computed rate (0.0 when the duration is not measurable).
        """
        rate = count / seconds if seconds > 0 else 0.0
        self.set_meter(name, rate)
        return rate

    @property
    def meters(self) -> Dict[str, float]:
        """Meter -> value mapping, insertion-ordered."""
        return dict(self._meters)

    def __repr__(self) -> str:
        return f"StageTimings(meters={self._meters!r})"


def stage_seconds(
    summaries: Iterable[Mapping[str, Any]],
) -> Dict[str, float]:
    """Span name -> summed seconds, from
    :meth:`repro.obs.Tracer.span_summaries`: a BENCH stage table."""
    return {summary["name"]: summary["total_s"] for summary in summaries}


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
    stages: Iterable[Mapping[str, Any]],
    timings: Optional[StageTimings] = None,
    **meta: Any,
) -> Dict[str, Any]:
    """One ``runs`` entry: the stage table of a span rollup
    (:meth:`repro.obs.Tracer.span_summaries`), any meters recorded on
    ``timings`` (peak RSS, throughputs), plus free-form meta."""
    entry: Dict[str, Any] = {"stages": stage_seconds(stages)}
    if timings is not None and timings.meters:
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

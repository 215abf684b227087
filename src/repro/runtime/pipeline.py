"""``run_pipeline``: a compatibility shim over :func:`repro.core.acd.run_acd`.

:func:`~repro.core.acd.run_acd` is the one ACD executor: given records
it prunes first, then generates clusters per connected component, inline
or on one supervised pool.  This module keeps
the older entry point for the repository benchmark, which calls it; it
forwards every argument and repackages the result.  It goes away in
ROADMAP item 5, Step C, together with :class:`PipelineResult` and the
``timings=`` meters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.perf.timing import StageTimings
from repro.pruning.candidate import CandidateSet
from repro.runtime.supervisor import RuntimeReport

if TYPE_CHECKING:
    from repro.core.acd import ACDResult


@dataclass
class PipelineResult:
    """What :func:`run_pipeline` returns.

    Attributes:
        candidates: The pruning phase's candidate set.
        result: The :class:`~repro.core.acd.ACDResult`.
        report: The generation pool's fault-handling telemetry.
    """

    candidates: CandidateSet
    result: "ACDResult"
    report: RuntimeReport


def run_pipeline(answers, *, timings: Optional[StageTimings] = None,
                 **options) -> PipelineResult:
    """Run :func:`~repro.core.acd.run_acd` and repackage its result.

    Every keyword but ``timings`` is forwarded to ``run_acd`` unchanged.
    ``timings`` receives the ``pipeline_bytes_shipped_total`` /
    ``pipeline_bytes_per_task`` meters (zero when no pool ran;
    ``run_acd`` records the same values as ``obs`` gauges).  Deprecated:
    goes away in ROADMAP item 5, Step C; call ``run_acd`` instead.
    """
    from repro.core.acd import run_acd

    result = run_acd(answers=answers, **options)
    runtime = result.runtime
    if timings is not None:
        timings.set_meter("pipeline_bytes_shipped_total",
                          float(runtime.bytes_shipped))
        timings.set_meter(
            "pipeline_bytes_per_task",
            round(runtime.bytes_shipped / runtime.tasks, 2)
            if runtime.tasks else 0.0,
        )
    return PipelineResult(candidates=result.candidates, result=result,
                          report=runtime)

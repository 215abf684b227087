"""Shared harness for the benchmark suite.

Each benchmark file regenerates one of the paper's tables or figures (see
DESIGN.md's per-experiment index).  Heavy computations — the prepared
instances and the full method comparisons — are cached at module level so
that, e.g., Figures 6, 7 and 8 (three views of the same experiment) only
run the comparison once per dataset x setting.

Environment knobs:
    REPRO_BENCH_SCALE     dataset scale (default 1.0 = Table 3 sizes)
    REPRO_BENCH_REPS      repetitions for randomized methods (default 3;
                          the paper uses 5)
    REPRO_BENCH_PARALLEL  pruning worker processes (default 0 = serial)

Every benchmark prints its rows (visible with ``pytest -s``) and also
writes them to ``benchmarks/results/<name>.txt``.  The standalone
``bench_*.py`` harnesses share :func:`in_fork`.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Dict

from repro.experiments.runner import (
    Instance,
    MethodResult,
    prepare_instance,
    run_comparison,
)
from repro.experiments.sweeps import EpsilonSweep, epsilon_sweep, threshold_sweep

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
REPETITIONS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
PARALLEL = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
SEED = 1

RESULTS_DIR = Path(__file__).resolve().parent / "results"

DATASETS = ("paper", "restaurant", "product")
SETTINGS = ("3w", "5w")


@functools.lru_cache(maxsize=None)
def instance(dataset: str, setting: str) -> Instance:
    """One prepared (dataset, crowd setting) instance, cached per process."""
    return prepare_instance(dataset, setting, scale=SCALE, seed=SEED,
                            parallel=PARALLEL)


@functools.lru_cache(maxsize=None)
def comparison(dataset: str, setting: str) -> Dict[str, MethodResult]:
    """The full Section 6.3 method comparison, cached per process."""
    return run_comparison(instance(dataset, setting),
                          repetitions=REPETITIONS)


@functools.lru_cache(maxsize=None)
def eps_sweep(dataset: str) -> EpsilonSweep:
    """The Figure 5 ε sweep (3-worker setting, as in the paper)."""
    return epsilon_sweep(instance(dataset, "3w"), repetitions=REPETITIONS)


@functools.lru_cache(maxsize=None)
def t_sweep(dataset: str):
    """The Figure 10 T sweep (3-worker setting)."""
    return threshold_sweep(instance(dataset, "3w"), repetitions=REPETITIONS)


def in_fork(fn):
    """Run ``fn`` in a forked child process and return its result.

    Each measured variant gets a pristine process: no variant's
    measurement is taxed by another's leftover heap (fork page-faults,
    GC pressure), the order variants run in stops mattering, and the
    process-lifetime peak-RSS meters
    (:func:`repro.perf.timing.peak_rss_bytes`) read that variant's own
    peak rather than the largest one measured before it.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def _target() -> None:
        try:
            payload = ("ok", fn())
        except BaseException as exc:
            payload = ("err", f"{type(exc).__name__}: {exc}")
        sender.send(payload)
        sender.close()

    proc = ctx.Process(target=_target)
    proc.start()
    sender.close()
    status, payload = receiver.recv()
    proc.join()
    if status != "ok":
        raise RuntimeError(f"benchmark stage failed in fork: {payload}")
    return payload


def emit(name: str, text: str) -> None:
    """Print a figure's rows and persist them under benchmarks/results/."""
    banner = f"== {name} (scale={SCALE}, reps={REPETITIONS}) =="
    print(f"\n{banner}\n{text}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(f"{banner}\n{text}\n")

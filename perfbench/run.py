"""Repository benchmark: records in, clustering out, on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics from a separate traced run.
Every run executes in a freshly forked process, so heap state and peak
RSS are per run, and every run's clustering is checked: it must
partition exactly the input record ids, F1 is computed against the gold
standard, and runs with the same permutation seed (traced or not) must
produce the same clustering.  A run that raises or mismatches counts as
failed.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` shrinks every workload to a few hundred records (the
benchmark's own tests use it).  See ``perfbench/README.md`` for why each
workload exists and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Every run of this command ends well inside three minutes.
DEADLINE_S = 165.0

#: Mean over a run's permutations (exact for a given seed).
CROWD_METRICS = ("pairs_issued", "crowd_rounds", "crowd_hours", "f1")


class RunFailed(Exception):
    """A benchmark run raised, died, timed out or mismatched."""


def in_fork(fn: Callable[[], dict], timeout: float) -> dict:
    """Run ``fn`` in a forked child and return its result.

    The child starts from the parent's set-up state and exits after one
    run, so no run inherits another's heap.  Raises :class:`RunFailed`
    when the child raises, dies without answering, or outlives
    ``timeout``; the child is reaped in every case.
    """
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def target() -> None:
        try:
            payload = ("ok", fn())
        except Exception:  # noqa: BLE001 - reported to the parent
            payload = ("err", traceback.format_exc(limit=4))
        sender.send(payload)
        sender.close()

    proc = ctx.Process(target=target)
    proc.start()
    sender.close()
    try:
        if not receiver.poll(max(timeout, 1.0)):
            raise RunFailed(f"run exceeded {timeout:.0f} s")
        status, payload = receiver.recv()
    except EOFError:
        raise RunFailed("run process died without a result") from None
    finally:
        receiver.close()
        if proc.is_alive():
            proc.join(5.0)
        if proc.is_alive():
            proc.terminate()
        proc.join()
    if status != "ok":
        raise RunFailed(payload)
    return payload


def environment() -> Dict[str, object]:
    """Where the numbers were measured."""
    import numpy

    from repro.similarity.kernels import resolve_kernel_backend

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": resolve_kernel_backend("auto"),
        "git_revision": git_revision(),
    }


def git_revision() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """One invocation: set-up, forked runs, checks, and the result line."""

    def __init__(self, workload, smoke: bool):
        self.workload = workload
        self.smoke = smoke
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.instance = None
        self.setup_s: List[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def set_up(self) -> None:
        """Build the instance every forked run starts from."""
        from workloads import set_up

        self.instance = set_up(self.workload, smoke=self.smoke)

    def sample_set_up(self) -> None:
        """Time one set-up in a forked child.

        In the parent, set-up after a fork runs measurably slower than
        before one (the parent's pages are copy-on-write once a child
        has forked), so every sample starts from the same forked heap.
        """
        from workloads import set_up

        def timed() -> dict:
            start = time.perf_counter()
            set_up(self.workload, smoke=self.smoke)
            return {"setup_s": time.perf_counter() - start}

        self.attempted += 1
        try:
            self.setup_s.append(in_fork(timed, self.remaining())["setup_s"])
        except RunFailed as failure:
            self.failed += 1
            print(f"FAILED set-up: {failure}", file=sys.stderr)

    def run(self, label: str, fn: Callable[[], dict]) -> Optional[dict]:
        """One forked run; failures are counted and reported, not raised."""
        self.attempted += 1
        try:
            result = in_fork(fn, self.remaining())
        except RunFailed as failure:
            self.failed += 1
            print(f"FAILED {label}: {failure}", file=sys.stderr)
            return None
        print(f"{label}: " + json.dumps(
            {key: value for key, value in result.items()
             if key not in ("digest", "layers")}))
        return result

    def check_same(self, label: str, result: Optional[dict],
                   reference: Optional[dict]) -> Optional[dict]:
        """Fail ``result`` if its clustering differs from ``reference``."""
        if result is None or reference is None:
            return result
        if result["digest"] != reference["digest"]:
            self.failed += 1
            print(f"FAILED {label}: clustering differs from the untraced "
                  "run with the same permutation seed", file=sys.stderr)
            return None
        return result

    def untraced_runs(self, seeds: List[int],
                      seconds: float) -> Dict[int, List[dict]]:
        """Timed runs: every seed once, then repeats that fit in ``seconds``.

        A repeat of a seed must reproduce the seed's first clustering.  A
        repeat starts only while a run of median length still ends inside
        the window, so the window bounds the command's length at any
        program speed.  The set-up repeats between runs, not back to
        back, so its median samples the whole window of a host whose
        speed drifts.
        """
        from workloads import timed_run

        runs: Dict[int, List[dict]] = {seed: [] for seed in seeds}
        lengths: List[float] = []
        start = time.monotonic()
        index = 0
        while True:
            seed = seeds[index % len(seeds)]
            if index >= len(seeds):
                typical = statistics.median(lengths) if lengths else 0.0
                if (time.monotonic() - start + typical > seconds
                        or self.remaining() < 3 * max(lengths) + 10):
                    break
            label = f"run {index} (permutation seed {seed})"
            began = time.monotonic()
            result = self.run(label, lambda: timed_run(self.instance, seed))
            if runs[seed]:
                result = self.check_same(label, result, runs[seed][0])
            if result is not None:
                runs[seed].append(result)
            if len(self.setup_s) < self.workload.setups:
                self.sample_set_up()
            lengths.append(time.monotonic() - began)
            index += 1
        while len(self.setup_s) < self.workload.setups:
            self.sample_set_up()
        return runs

    def end_to_end(self, runs: Dict[int, List[dict]]) -> dict:
        """The ``--trace 0`` metrics from the runs of each seed.

        ``makespan_s`` is the median over every run of the window.  On a
        shared host whose speed switches between levels second by second,
        the median of a long window follows the host's average speed; the
        fastest run depends on whether one run happened to miss every slow
        second, and spread wider over ten windows.
        """
        done = [seed_runs for seed_runs in runs.values() if seed_runs]
        every = [run for seed_runs in done for run in seed_runs]
        metrics = {}
        if self.setup_s:
            metrics["setup_s"] = statistics.median(self.setup_s)
        if done:
            metrics["makespan_s"] = statistics.median(
                run["makespan_s"] for run in every)
            metrics["peak_rss_mb"] = statistics.median(
                run["peak_rss_mb"] for run in every)
            for name in CROWD_METRICS:
                metrics[name] = statistics.fmean(
                    seed_runs[0][name] for seed_runs in done)
        samples = {seed: [round(run["makespan_s"], 3) for run in seed_runs]
                   for seed, seed_runs in runs.items()}
        print(f"summary: {len(every)} timed runs over {len(done)} "
              f"of {len(runs)} permutation seeds; makespan samples by seed "
              f"{samples}; set-up samples "
              f"{[round(value, 4) for value in self.setup_s]}")
        return metrics

    def per_layer(self, seeds: List[int]) -> dict:
        """Untraced reference runs, then the traced run on the first seed.

        Where the workload measures tracing overhead, each reference run
        is followed at once by the same run with a JSONL trace, so the
        pair shares the host's speed of the moment.
        """
        from workloads import observed_run, timed_run, traced_run

        observed = self.workload.observed_permutations
        references, overheads, sizes = {}, [], []
        with tempfile.TemporaryDirectory(dir=ROOT,
                                         prefix=".perfbench-") as trace_dir:
            for seed in seeds[:max(observed, 1)]:
                reference = self.run(f"untraced (permutation seed {seed})",
                                     lambda: timed_run(self.instance, seed))
                if reference is None:
                    continue
                references[seed] = reference
                if not observed:
                    continue
                traced = self.check_same("observed", self.run(
                    f"observed (permutation seed {seed})",
                    lambda: observed_run(self.instance, seed,
                                         Path(trace_dir))), reference)
                if traced is not None:
                    overheads.append(100.0 * (traced["acd_s"]
                                              - reference["acd_s"])
                                     / reference["acd_s"])
                    sizes.append(traced["trace_bytes"])
        seed = seeds[0]
        reference = references.get(seed)
        if reference is None:
            return {}
        traced = self.check_same(
            "traced", self.run(f"traced (permutation seed {seed})",
                               lambda: traced_run(self.instance, seed,
                                                  reference["makespan_s"])),
            reference)
        if traced is None:
            return {}
        return {
            **traced["layers"],
            "obs.overhead_pct":
                statistics.median(overheads) if overheads else 0.0,
            "obs.trace_bytes": statistics.median(sizes) if sizes else 0.0,
        }


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], units: Dict[str, str]) -> str:
    """The last output line; a metric no run produced reads 0."""
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to test size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, SMOKE_PERMUTATIONS, permutation_seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in
             spec["per_layer" if args.trace else "end_to_end"]}
    print("env: " + json.dumps(environment()))
    bench = Bench(workload, args.smoke)
    seeds = permutation_seeds(
        args.seed,
        SMOKE_PERMUTATIONS if args.smoke else workload.permutations)
    bench.set_up()
    if args.trace:
        values = bench.per_layer(seeds)
    else:
        values = bench.end_to_end(bench.untraced_runs(seeds, args.seconds))
    correct = bench.failed == 0 and set(units) <= set(values)
    error_rate = bench.failed / max(bench.attempted, 1)
    print(f"error_rate: {error_rate:.4f} "
          f"({bench.failed} of {bench.attempted} runs failed)")
    print(result_line(correct, bench.attempted, bench.failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

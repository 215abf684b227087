"""Crowd latency model: what batching actually buys in wall-clock time.

The whole point of PC-Pivot and PC-Refine (Sections 4.2 and 5.4) is
*latency*: each crowd iteration means posting HITs and waiting for workers,
so total time is governed by the number of iterations, not the number of
pairs.  The paper reports iteration counts; this model translates them into
simulated wall-clock time, so the parallelization benefit can be stated in
hours rather than rounds.

The model is deliberately simple and deterministic-per-seed: a batch of
``n`` pairs is packed into HITs; the platform has ``concurrent_workers``
working in parallel; each HIT assignment takes a lognormal-ish completion
time (drawn per assignment); a batch completes when its last assignment
does; batch latencies add up (each iteration waits for the previous one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.crowd.cache import AnswerWrapper
from repro.crowd.hits import num_hits
from repro.crowd.seeding import stable_rng


@dataclass(frozen=True)
class LatencyModel:
    """Simulated AMT timing.

    Attributes:
        pairs_per_hit: HIT packing factor.
        num_workers: Assignments per HIT (one per worker).
        concurrent_workers: Workers active on the task at any moment.
        mean_seconds_per_hit: Mean time one worker spends on one HIT.
        sigma: Lognormal shape for per-assignment variation.
        posting_overhead_seconds: Fixed cost to post a batch and collect it.
        seed: Randomness seed.
    """

    pairs_per_hit: int = 20
    num_workers: int = 3
    concurrent_workers: int = 10
    mean_seconds_per_hit: float = 90.0
    sigma: float = 0.35
    posting_overhead_seconds: float = 120.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.concurrent_workers < 1:
            raise ValueError("concurrent_workers must be >= 1")
        if self.mean_seconds_per_hit <= 0:
            raise ValueError("mean_seconds_per_hit must be > 0")

    def batch_seconds(self, num_pairs: int, batch_index: int = 0,
                      extra_assignments: int = 0) -> float:
        """Simulated completion time of one crowd iteration.

        Assignments (HITs x workers) are processed greedily by the
        ``concurrent_workers`` pool; the batch finishes when the last
        assignment does.  ``extra_assignments`` adds reposted slots —
        assignments redone after a timeout or abandonment — on top of the
        planned HITs-times-workers load.
        """
        if num_pairs < 0:
            raise ValueError(f"num_pairs must be >= 0, got {num_pairs}")
        if extra_assignments < 0:
            raise ValueError(
                f"extra_assignments must be >= 0, got {extra_assignments}"
            )
        if num_pairs == 0:
            return 0.0
        assignments = (num_hits(num_pairs, self.pairs_per_hit)
                       * self.num_workers + extra_assignments)
        rng = stable_rng(self.seed, "latency", batch_index, num_pairs)
        # mu chosen so the lognormal mean equals mean_seconds_per_hit.
        mu = math.log(self.mean_seconds_per_hit) - self.sigma ** 2 / 2.0
        # Greedy list scheduling on identical workers.
        workers = [0.0] * min(self.concurrent_workers, assignments)
        for _ in range(assignments):
            duration = rng.lognormvariate(mu, self.sigma)
            soonest = min(range(len(workers)), key=workers.__getitem__)
            workers[soonest] += duration
        return self.posting_overhead_seconds + max(workers)

    def total_seconds(self, batch_sizes: Iterable[int],
                      retries: Optional[Iterable[int]] = None) -> float:
        """Sequentially accumulated latency over a run's crowd iterations.

        Args:
            batch_sizes: Fresh pairs per iteration (``CrowdStats.batch_sizes``).
            retries: Optional reposted-assignment counts, one per batch (or
                fewer — missing entries count as zero), folding crowd-side
                failures into the wall-clock estimate.
        """
        retry_counts = list(retries) if retries is not None else []
        total = 0.0
        for index, size in enumerate(batch_sizes):
            extra = retry_counts[index] if index < len(retry_counts) else 0
            total += self.batch_seconds(size, batch_index=index,
                                        extra_assignments=extra)
        return total


class _SleepingForkSource(AnswerWrapper):
    """Worker-side view of :class:`SimulatedLatencyAnswers`.

    Implements ``confidence_batch`` so a worker's local oracle delivers
    each crowd round in one call — and that call sleeps ``round_seconds``
    once, the wall-clock cost of posting the round and waiting for the
    crowd.  A pivot task batches every component it carries into one
    round, so the sleep is once per task round, not once per component
    round.  Answers themselves come from the wrapped source, so a
    latency-injected run resolves byte-identical confidences.
    """

    def __init__(self, inner, round_seconds: float):
        super().__init__(inner)
        self.round_seconds = round_seconds

    def confidence_batch(self, pairs):
        import time

        time.sleep(self.round_seconds)
        return {pair: self._inner.confidence(*pair) for pair in pairs}


class SimulatedLatencyAnswers(AnswerWrapper):
    """Inject real wall-clock crowd latency into a simulated answer source.

    The iteration counts the paper reports translate to wall clock only
    if every crowd round actually *takes time*; this wrapper makes the
    makespan benchmarks honest.  Worker processes see
    :attr:`fork_source` — a view whose ``confidence_batch`` sleeps
    ``round_seconds`` per crowd round.  A pivot task posts one round for
    all the components it carries, and concurrent tasks wait out their
    rounds in parallel, exactly like concurrently-posted HIT batches.
    The wrapper itself (what the parent's merged-round replay uses)
    deliberately does **not** implement ``confidence_batch``: replayed
    rounds are primed memo lookups and must stay free, or latency would
    be double-counted.

    Answers delegate to the wrapped source, so latency-injected and
    plain runs are byte-identical in everything but elapsed time.
    """

    def __init__(self, answers, round_seconds: float):
        if round_seconds < 0:
            raise ValueError(
                f"round_seconds must be >= 0, got {round_seconds}")
        super().__init__(answers)
        self.round_seconds = round_seconds

    @property
    def fork_source(self) -> _SleepingForkSource:
        inner = getattr(self._inner, "fork_source", self._inner)
        return _SleepingForkSource(inner, self.round_seconds)


def format_duration(seconds: float) -> str:
    """Human formatting: '2h 14m', '53m', '41s'."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes = seconds / 60.0
    if minutes < 60:
        return f"{minutes:.0f}m"
    hours = int(minutes // 60)
    return f"{hours}h {minutes - 60 * hours:.0f}m"

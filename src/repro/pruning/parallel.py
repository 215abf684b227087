"""Opt-in multiprocessing pair scoring for non-set similarity metrics.

Set-overlap metrics go through the prefix-filtered join; everything else
(edit distance, Jaro-Winkler, Soft TF-IDF, weighted hybrids) must score each
candidate pair individually.  That loop is embarrassingly parallel, so
``build_candidate_set(..., parallel=N)`` fans the pair list out to ``N``
worker processes in deterministic chunks and merges the survivors.

The pool uses the ``fork`` start method and passes the metric to workers via
a module-global captured at fork time — this supports lambdas and closures
(which cannot be pickled).  On platforms without ``fork`` (e.g. Windows, or
macOS with the spawn default and no fork method) the scorer falls back to
the serial loop, so results are identical everywhere; parallelism is purely
a wall-clock optimization.  The fallback is *not* silent: it raises a
:class:`ParallelFallbackWarning` and, when an observability context is
attached, emits a ``pruning.parallel_fallback`` warning event so traces
record that a requested parallel run executed serially.

Fault tolerance: chunks run under the supervised pool of
:mod:`repro.runtime.supervisor` — a crashed (OOM-killed, segfaulted)
worker is detected and its chunk retried with backoff; chunks whose
retries exhaust degrade to in-process scoring in the parent.  Either way
the run completes with the same output.

Determinism: chunks are formed from the (deduplicated, ordered) pair list,
workers are pure functions, and results are merged in submission order, so
the surviving ``{pair: score}`` mapping is byte-identical to the serial loop
— for every schedule of worker crashes and retries.
"""

from __future__ import annotations

import multiprocessing
import warnings
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import (
    RuntimeReport,
    SupervisorPolicy,
    supervised_map,
)

Pair = Tuple[int, int]
TextSimilarity = Callable[[str, str], float]

#: Worker payload captured at fork time (start method "fork" only).
_FORK_STATE: Dict[str, object] = {}

DEFAULT_CHUNK_SIZE = 2048


class ParallelFallbackWarning(RuntimeWarning):
    """A requested parallel pruning run fell back to the serial path."""


def fork_available() -> bool:
    """Whether the fork start method (required for the pool) exists."""
    return "fork" in multiprocessing.get_all_start_methods()


def notify_parallel_fallback(obs, *, requested: int, context: str) -> None:
    """Record that a ``parallel``/``processes`` request ran serially.

    Raises a :class:`ParallelFallbackWarning` (always) and emits a
    ``pruning.parallel_fallback`` warning event on ``obs`` (when attached)
    with the requested worker count and the call site — results are still
    byte-identical, only the wall-clock expectation is not met.
    """
    message = (
        f"{context}: {requested} worker processes requested but the 'fork' "
        "start method is unavailable on this platform; running serially "
        "(results are identical, only slower)"
    )
    warnings.warn(message, ParallelFallbackWarning, stacklevel=3)
    if obs is not None:
        obs.event(
            "pruning.parallel_fallback",
            requested=requested,
            context=context,
            reason="fork-unavailable",
        )


def _score_chunk(chunk: Sequence[Pair]) -> List[Tuple[Pair, float]]:
    """Score one chunk of canonical pairs; returns threshold survivors.

    Runs inside a forked worker: reads the texts/metric/threshold snapshot
    the parent published in :data:`_FORK_STATE` before creating the pool.
    """
    texts: Mapping[int, str] = _FORK_STATE["texts"]  # type: ignore[assignment]
    metric: TextSimilarity = _FORK_STATE["metric"]  # type: ignore[assignment]
    threshold: float = _FORK_STATE["threshold"]  # type: ignore[assignment]
    survivors: List[Tuple[Pair, float]] = []
    for pair in chunk:
        score = metric(texts[pair[0]], texts[pair[1]])
        score = min(1.0, max(0.0, score))
        if score > threshold:
            survivors.append((pair, score))
    return survivors


def _chunks(pairs: Sequence[Pair], chunk_size: int) -> List[Sequence[Pair]]:
    return [pairs[i:i + chunk_size] for i in range(0, len(pairs), chunk_size)]


def score_pairs_parallel(
    pairs: Sequence[Pair],
    texts: Mapping[int, str],
    metric: TextSimilarity,
    threshold: float,
    processes: int,
    chunk_size: Optional[int] = None,
    obs=None,
    policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
) -> Dict[Pair, float]:
    """Score canonical, deduplicated pairs; return ``{pair: score}`` for
    pairs with score strictly above ``threshold``.

    Args:
        pairs: Canonical unique pairs to score (any order; output is a dict).
        texts: ``record_id -> text`` for every id referenced by ``pairs``.
        metric: The raw text similarity (closures are fine — fork, not
            pickle, carries it to the workers).
        threshold: τ; survivors have score > τ after [0, 1] clamping.
        processes: Worker count; values <= 1 run the serial loop.
        chunk_size: Pairs per task (default ``DEFAULT_CHUNK_SIZE``, capped
            so every worker gets work).
        obs: Optional :class:`~repro.obs.ObsContext`; receives the
            ``pruning.parallel_fallback`` warning event if the pool cannot
            be created on this platform, plus the supervisor's
            ``runtime.*`` fault events.
        policy: Supervised-pool fault-handling knobs (retries, backoff,
            deadlines); defaults to
            :class:`~repro.runtime.supervisor.SupervisorPolicy`.
        fault_plan: Deterministic process-fault injection (chaos testing
            only).
    """
    scores, _ = _score_pairs(
        pairs, texts, metric, threshold, processes, chunk_size=chunk_size,
        obs=obs, policy=policy, fault_plan=fault_plan,
    )
    return scores


def _score_pairs(
    pairs: Sequence[Pair],
    texts: Mapping[int, str],
    metric: TextSimilarity,
    threshold: float,
    processes: int,
    chunk_size: Optional[int] = None,
    obs=None,
    policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
) -> Tuple[Dict[Pair, float], RuntimeReport]:
    """:func:`score_pairs_parallel` plus the pool's
    :class:`~repro.runtime.supervisor.RuntimeReport` (all zeros when the
    serial loop ran)."""
    if processes > 1 and len(pairs) > 0 and not fork_available():
        notify_parallel_fallback(obs, requested=processes,
                                 context="score_pairs_parallel")
    if processes <= 1 or len(pairs) == 0 or not fork_available():
        return _score_serial(pairs, texts, metric, threshold), RuntimeReport()

    size = chunk_size or min(
        DEFAULT_CHUNK_SIZE, max(1, (len(pairs) + processes - 1) // processes)
    )
    _FORK_STATE["texts"] = dict(texts)
    _FORK_STATE["metric"] = metric
    _FORK_STATE["threshold"] = threshold
    try:
        chunk_results, report = supervised_map(
            _score_chunk, _chunks(pairs, size), processes,
            policy=policy, obs=obs, fault_plan=fault_plan,
            label="pruning.score_pairs",
        )
    finally:
        _FORK_STATE.clear()
    scores: Dict[Pair, float] = {}
    for chunk in chunk_results:
        scores.update(chunk)
    return scores, report


def _score_serial(
    pairs: Sequence[Pair],
    texts: Mapping[int, str],
    metric: TextSimilarity,
    threshold: float,
) -> Dict[Pair, float]:
    """The serial twin of the pool path (also its fallback)."""
    scores: Dict[Pair, float] = {}
    for pair in pairs:
        score = metric(texts[pair[0]], texts[pair[1]])
        score = min(1.0, max(0.0, score))
        if score > threshold:
            scores[pair] = score
    return scores

"""`shards="auto"`: shard the pruning join only where it pays for itself.

``BENCH_scale.json`` shows the crossover clearly: at the 10k tier the
8-shard pruning join is *slower* than the serial join — per-task
dispatch (fork, pickle, merge bookkeeping) dominates the sliver of
parallelizable work — while at 100k and above the sharded join wins
comfortably.  Rather than make every caller re-derive that table,
``shards="auto"`` resolves to the bench-tier shard count above a
record-count threshold and degrades to the serial join below it.

The decision is observable: each resolution emits a ``runtime.autoshard``
event and bumps ``runtime_autoshard_total``, so a trace shows which
join actually ran and why.
"""

from __future__ import annotations

from typing import Union

#: Records below which sharding loses to dispatch overhead (BENCH_scale:
#: the 10k tier regresses, the 100k tier wins).
AUTO_MIN_RECORDS = 50_000

#: Bench-tier shard count used above the threshold.
AUTO_PRUNING_SHARDS = 8


def resolve_auto_shards(*, records: int, requested: Union[int, str],
                        obs=None) -> int:
    """Resolve a ``shards`` knob that may be the string ``"auto"``.

    Integers pass through untouched (explicit configuration always
    wins).  ``"auto"`` resolves to the bench-tier shard count when
    ``records >= AUTO_MIN_RECORDS``, else ``1`` (serial join).

    Args:
        records: Problem size the heuristic keys on.
        requested: The caller's knob — an int or ``"auto"``.
        obs: Optional :class:`~repro.obs.ObsContext`; auto resolutions
            emit a ``runtime.autoshard`` event recording the decision.
    """
    if not isinstance(requested, str):
        return requested
    if requested != "auto":
        raise ValueError(
            f"shards must be an int or 'auto', got {requested!r}")
    resolved = AUTO_PRUNING_SHARDS if records >= AUTO_MIN_RECORDS else 1
    if obs is not None:
        obs.event("runtime.autoshard", records=records,
                  threshold=AUTO_MIN_RECORDS, resolved=resolved)
        obs.metrics.counter(
            "runtime_autoshard_total",
            help="shards='auto' heuristic resolutions",
        ).inc()
    return resolved

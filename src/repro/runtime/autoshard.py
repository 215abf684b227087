"""`shards="auto"`: shard the pruning join only where it can pay.

Only the join's verification splits into shards; tokenizing, encoding
and the incidence layout (the ``blocking`` span, most of the join at
scale) run once in the parent.  In one process the shards only add
bookkeeping, and on a pool per-task dispatch (fork, pickle, merge)
outweighs the split verification at the 10k tier; larger tiers need
enough cores to win.  On a 2-CPU host, 100k largescale records
(``confusion=0.25``) pruned in 0.92 s with one shard, 1.14 s with 8
shards on 2 processes and 1.10 s with 8 serial shards (medians of 5
interleaved forked ``build_candidate_set`` runs; ``blocking`` 0.58 to
0.62 s of each).
So ``shards="auto"`` resolves to the bench-tier shard count only when
the join has more than one process and at least ``AUTO_MIN_RECORDS``
records, and to the one-shard join otherwise.

The decision is observable: each resolution emits a ``runtime.autoshard``
event and bumps ``runtime_autoshard_total``, so a trace shows which
join actually ran and why.
"""

from __future__ import annotations

from typing import Union

#: Records below which sharding loses to per-task dispatch overhead
#: even on a pool.
AUTO_MIN_RECORDS = 50_000

#: Bench-tier shard count used above the threshold.
AUTO_PRUNING_SHARDS = 8


def resolve_auto_shards(*, records: int, requested: Union[int, str],
                        processes: int, obs=None) -> int:
    """Resolve a ``shards`` knob that may be the string ``"auto"``.

    Integers pass through untouched (explicit configuration always
    wins).  ``"auto"`` resolves to the bench-tier shard count when the
    join runs on more than one process and ``records >= AUTO_MIN_RECORDS``,
    else ``1`` (the one-shard join).

    Args:
        records: Problem size the heuristic keys on.
        requested: The caller's knob — an int or ``"auto"``.
        processes: Worker processes the join may use (the caller's
            ``parallel``/``workers``).
        obs: Optional :class:`~repro.obs.ObsContext`; auto resolutions
            emit a ``runtime.autoshard`` event recording the decision.
    """
    if not isinstance(requested, str):
        return requested
    if requested != "auto":
        raise ValueError(
            f"shards must be an int or 'auto', got {requested!r}")
    resolved = (AUTO_PRUNING_SHARDS
                if processes > 1 and records >= AUTO_MIN_RECORDS else 1)
    if obs is not None:
        obs.event("runtime.autoshard", records=records, processes=processes,
                  threshold=AUTO_MIN_RECORDS, resolved=resolved)
        obs.metrics.counter(
            "runtime_autoshard_total",
            help="shards='auto' heuristic resolutions",
        ).inc()
    return resolved

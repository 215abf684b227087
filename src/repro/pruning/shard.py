"""Sharded, vectorized prefix-filtered similarity join — the pruning join.

Every prefix-eligible input of
:func:`~repro.pruning.candidate.build_candidate_set` (and the streamed
pruning phase of :func:`~repro.runtime.pipeline.run_pipeline`) runs this
join.  It applies the filter algebra of :mod:`repro.pruning.prefix_join` —
canonical token order, prefix lengths, partner-size bound — over interned
int-rank arrays (:mod:`repro.similarity.kernels`), partitioned into
**shards by blocking key** and verified in numpy blocks.  One shard (the
default) is the unsharded join; more shards bound per-task memory and let
the shards run in worker processes.

Algorithm
---------
1. Token sets are interned into a :class:`~repro.similarity.kernels.TokenVocabulary`
   whose dense ranks follow the canonical (document frequency, token) order,
   and flattened into one CSR :class:`~repro.similarity.kernels.EncodedRecords`
   store, rows sorted by processing order (set size, id).
2. The *prefix incidence* list — one ``(token rank, row)`` entry per prefix
   token per record — is built and sorted token-major.  Every entry whose
   group (posting list of one token) has at least one earlier entry is an
   *element*: it will pair with each of its predecessors, which is precisely
   the prefix filter's probe/index rule (a pair is generated iff the two
   prefixes share a token).
3. Elements are partitioned into shards with
   :func:`repro.pruning.blocking.shard_of_token` (round-robin over the
   canonical rank).  Each shard generates its pair blocks with numpy
   (predecessor expansion), applies the partner-size filter, deduplicates,
   and verifies the survivors with the vectorized batch scores.
4. The cross-shard merge unions the per-shard ``{pair: score}`` survivor
   maps.  A pair straddling shards (shared prefix tokens assigned to
   different shards) is verified in each, with bit-identical scores, so the
   union is order-independent; the merged map is emitted in sorted pair
   order, making the output deterministic for every shard count.

Shards run either in-process (deterministic loop) or in parallel worker
processes using the same ``fork``-pool pattern as
:mod:`repro.pruning.parallel` — state is published in a module global
captured at fork time, workers are pure, results are merged in shard order.
The worker pool is the supervised pool of
:mod:`repro.runtime.supervisor`: a crashed shard worker is detected and
its shard retried with backoff, and shards whose retries exhaust degrade
to in-process execution — the join completes with identical output under
any schedule of worker failures.  On platforms without ``fork`` the join
falls back to the in-process loop and reports it via
:func:`repro.pruning.parallel.notify_parallel_fallback`
(``pruning.parallel_fallback`` event + ``ParallelFallbackWarning``).

Equivalence contract: for every shard count and process count, the
surviving pair list and ``{pair: score}`` map are byte-identical to the
one-record-at-a-time frozenset join kept as the test oracle
(:func:`repro.reference.prefix_filtered_candidates`) — the candidate
*sets* coincide by the argument above, and verification computes the same
IEEE-754 doubles as the scalar set functions (see
:mod:`repro.similarity.kernels`).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.datasets.schema import Record
from repro.obs import maybe_span
from repro.pruning.blocking import shard_of_token
from repro.pruning.parallel import fork_available, notify_parallel_fallback
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import SupervisorPolicy, supervised_map
from repro.pruning.prefix_join import (
    EPS,
    PREFIX_METRICS,
    partner_size_need,
    prefix_length,
)
from repro.similarity.kernels import (
    EncodedRecords,
    TokenVocabulary,
    score_encoded_pairs,
)

Pair = Tuple[int, int]
SetFunction = Callable[[FrozenSet[str], FrozenSet[str]], float]

#: Upper bound on generated (pre-filter) pairs materialized per numpy block.
#: Bounds peak memory at roughly ``block * avg_tokens_per_pair * 8`` bytes
#: during verification, independent of the total candidate volume.
DEFAULT_PAIR_BLOCK_SIZE = 1 << 19

#: Worker payload captured at fork time (start method "fork" only).
_SHARD_STATE: Dict[str, object] = {}


class _JoinPlan:
    """Everything a shard worker needs, built once in the parent.

    All arrays index *rows* (positions in the size-ordered record list),
    not record ids; ``ids[row]`` maps back at emission time.
    """

    def __init__(self, encoded: EncodedRecords, rows_sorted, elem_row,
                 elem_k, elem_grp_start, elem_token, need):
        self.encoded = encoded
        self.rows_sorted = rows_sorted
        self.elem_row = elem_row
        self.elem_k = elem_k
        self.elem_grp_start = elem_grp_start
        self.elem_token = elem_token
        self.need = need


def _build_plan(
    records: Sequence[Record],
    set_of: Callable[[Record], FrozenSet[str]],
    metric: str,
    threshold: float,
) -> Tuple[_JoinPlan, List[int]]:
    """Intern, encode, and lay out the prefix incidence for the join.

    Returns the plan over the records with non-empty sets, plus the ids
    of the records whose set is empty (they share no token, so only
    ``include_empty_pairs`` ever pairs them).
    """
    sets: Dict[int, FrozenSet[str]] = {
        record.record_id: set_of(record) for record in records
    }
    nonempty = [record_id for record_id, s in sets.items() if s]
    empty = [record_id for record_id, s in sets.items() if not s]
    ordered_ids = sorted(nonempty, key=lambda rid: (len(sets[rid]), rid))
    vocab = TokenVocabulary.build([sets[rid] for rid in ordered_ids])
    encoded = EncodedRecords.from_sets(sets, ordered_ids, vocab)

    sizes = encoded.counts
    # Per-size memos keep the float bounds literally identical to the
    # per-record computations of the frozenset join.
    prefix_of_size: Dict[int, int] = {}
    need_of_size: Dict[int, float] = {}
    for size in set(sizes.tolist()):
        prefix_of_size[size] = prefix_length(metric, threshold, size)
        need_of_size[size] = partner_size_need(metric, threshold, size) - EPS
    size_list = sizes.tolist()
    pcounts = _np.fromiter((prefix_of_size[size] for size in size_list),
                           dtype=_np.int64, count=len(size_list))
    need = _np.fromiter((need_of_size[size] for size in size_list),
                        dtype=_np.float64, count=len(size_list))

    # Prefix incidence: the first prefix_len ranks of each row (rows are
    # stored canonically sorted, so slicing the head IS the prefix).
    total = int(pcounts.sum())
    nrows = len(encoded)
    first_out = _np.repeat(_np.cumsum(pcounts) - pcounts, pcounts)
    within = _np.arange(total, dtype=_np.int64) - first_out
    src = _np.repeat(encoded.starts, pcounts) + within
    inc_tokens = encoded.flat[src]
    inc_rows = _np.repeat(_np.arange(nrows, dtype=_np.int64), pcounts)

    # Token-major, row-minor order: stable sort preserves the ascending
    # row (= processing) order inside each posting list.
    order = _np.argsort(inc_tokens, kind="stable")
    tokens_sorted = inc_tokens[order]
    rows_sorted = inc_rows[order]

    # Each incidence entry with k predecessors in its posting contributes
    # k candidate pairs; k == 0 entries (posting heads) contribute none.
    if total:
        new_group = _np.empty(total, dtype=bool)
        new_group[0] = True
        _np.not_equal(tokens_sorted[1:], tokens_sorted[:-1], out=new_group[1:])
        group_index = _np.cumsum(new_group) - 1
        group_start = _np.flatnonzero(new_group)
        elem_grp_start = group_start[group_index]
        elem_k = _np.arange(total, dtype=_np.int64) - elem_grp_start
    else:
        elem_grp_start = _np.zeros(0, dtype=_np.int64)
        elem_k = _np.zeros(0, dtype=_np.int64)
    active = elem_k > 0
    plan = _JoinPlan(
        encoded=encoded,
        rows_sorted=rows_sorted,
        elem_row=rows_sorted[active],
        elem_k=elem_k[active],
        elem_grp_start=elem_grp_start[active],
        elem_token=tokens_sorted[active],
        need=need,
    )
    return plan, empty


def record_shard_touch_masks(
    plan: _JoinPlan,
    metric: str,
    threshold: float,
    num_shards: int,
) -> Dict[int, int]:
    """Per-record bitmask of pruning shards that can emit incident pairs.

    The join generates a pair only from a prefix token present in *both*
    records' prefixes, and :func:`_join_shard` assigns that token's pairs
    to shard ``token % num_shards``.  Record ``r``'s touch set is
    therefore ``{token % num_shards for token in prefix(r) if token's
    prefix posting has >= 2 records}``: a token appearing in only one
    record's prefix can never pair it with anything, so it is dropped —
    in practice most prefix tokens are such singletons (prefix filtering
    deliberately picks the rarest tokens), and dropping them is what
    makes the masks narrow enough for components to seal while later
    shards still run.  (The partner-size filter only *removes* pairs, so
    the mask stays a safe over-approximation.)  Records with empty token
    sets — or whose prefix tokens are all singletons — are absent from
    the result; callers treat them as mask ``0`` (sealed immediately,
    which is exact: no future edge can touch them).

    The pipelined executor ORs these masks over union-find components to
    decide when a component is *sealed* (see
    :class:`repro.pruning.components.IncrementalComponents`).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    sizes = plan.encoded.counts
    prefix_of_size = {size: prefix_length(metric, threshold, size)
                      for size in set(sizes.tolist())}
    size_list = sizes.tolist()
    pcounts = _np.fromiter((prefix_of_size[size] for size in size_list),
                           dtype=_np.int64, count=len(size_list))
    total = int(pcounts.sum())
    nrows = len(plan.encoded)
    first_out = _np.repeat(_np.cumsum(pcounts) - pcounts, pcounts)
    within = _np.arange(total, dtype=_np.int64) - first_out
    src = _np.repeat(plan.encoded.starts, pcounts) + within
    tokens = plan.encoded.flat[src]
    rows = _np.repeat(_np.arange(nrows, dtype=_np.int64), pcounts)
    # Keep only tokens shared by at least two prefixes: singletons can
    # never emit a pair, and they are the majority of prefix tokens.
    _, inverse, counts = _np.unique(tokens, return_inverse=True,
                                    return_counts=True)
    shared = counts[inverse] >= 2
    shards = tokens[shared] % num_shards
    packed = _np.unique(rows[shared] * num_shards + shards)
    ids = plan.encoded.ids.tolist()
    masks: Dict[int, int] = {}
    for key in packed.tolist():
        row, shard = divmod(key, num_shards)
        record_id = ids[row]
        masks[record_id] = masks.get(record_id, 0) | (1 << shard)
    return masks


def _process_element_batch(
    plan: _JoinPlan,
    element_indices,
    metric: str,
    threshold: float,
    survivors: Dict[Pair, float],
) -> int:
    """Expand one element batch into pairs, filter, verify, accumulate.

    Returns the number of (deduplicated, size-eligible) pairs verified.
    """
    k = plan.elem_k[element_indices]
    total = int(k.sum())
    if total == 0:
        return 0
    # Predecessor expansion: element e (row r at posting offset k_e) pairs
    # with the k_e earlier entries of its posting list.
    right_row = _np.repeat(plan.elem_row[element_indices], k)
    first = _np.cumsum(k) - k
    within = _np.arange(total, dtype=_np.int64) - _np.repeat(first, k)
    left_pos = _np.repeat(plan.elem_grp_start[element_indices], k) + within
    left_row = plan.rows_sorted[left_pos]

    # Partner-size filter — the probing (later, right) record's bound
    # applied to the indexed (earlier, left) record.
    keep = plan.encoded.counts[left_row] >= plan.need[right_row]
    left_row = left_row[keep]
    right_row = right_row[keep]
    if len(left_row) == 0:
        return 0

    # Deduplicate pairs generated from several shared prefix tokens.
    nrows = _np.int64(len(plan.encoded))
    packed = _np.unique(left_row * nrows + right_row)
    left_row = packed // nrows
    right_row = packed % nrows

    ids = plan.encoded.ids
    scores = score_encoded_pairs(metric, plan.encoded, left_row, right_row)
    passing = scores > threshold
    left_ids = ids[left_row[passing]]
    right_ids = ids[right_row[passing]]
    low = _np.minimum(left_ids, right_ids)
    high = _np.maximum(left_ids, right_ids)
    survivors.update(zip(
        zip(low.tolist(), high.tolist()),
        scores[passing].tolist(),
    ))
    return len(packed)


def _join_shard(
    plan: _JoinPlan,
    shard_index: int,
    num_shards: int,
    metric: str,
    threshold: float,
    pair_block_size: int,
) -> Dict[Pair, float]:
    """Run one shard's generation + verification; returns its survivors."""
    if num_shards > 1:
        # Vectorized form of blocking.shard_of_token over the element list.
        mine = _np.flatnonzero(plan.elem_token % num_shards == shard_index)
    else:
        mine = _np.arange(len(plan.elem_k), dtype=_np.int64)
    survivors: Dict[Pair, float] = {}
    if len(mine) == 0:
        return survivors
    pair_counts = _np.cumsum(plan.elem_k[mine])
    start = 0
    while start < len(mine):
        consumed = pair_counts[start - 1] if start else 0
        stop = int(_np.searchsorted(pair_counts, consumed + pair_block_size,
                                    side="left")) + 1
        stop = min(max(stop, start + 1), len(mine))
        _process_element_batch(plan, mine[start:stop], metric, threshold,
                               survivors)
        start = stop
    return survivors


def _run_shard_worker(shard_index: int) -> Dict[Pair, float]:
    """Pool entry point: reads the fork-time snapshot in _SHARD_STATE."""
    return _join_shard(
        _SHARD_STATE["plan"],  # type: ignore[arg-type]
        shard_index,
        _SHARD_STATE["num_shards"],  # type: ignore[arg-type]
        _SHARD_STATE["metric"],  # type: ignore[arg-type]
        _SHARD_STATE["threshold"],  # type: ignore[arg-type]
        _SHARD_STATE["pair_block_size"],  # type: ignore[arg-type]
    )


def sharded_prefix_filtered_candidates(
    records: Sequence[Record],
    set_of: Callable[[Record], FrozenSet[str]],
    set_function: SetFunction,
    metric: str,
    threshold: float,
    num_shards: int = 1,
    processes: int = 0,
    include_empty_pairs: bool = False,
    obs=None,
    pair_block_size: int = DEFAULT_PAIR_BLOCK_SIZE,
    supervisor_policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
) -> Tuple[List[Pair], Dict[Pair, float]]:
    """Run the join; returns ``(sorted surviving pairs, pair -> score)``,
    byte for byte what the oracle
    :func:`repro.reference.prefix_filtered_candidates` returns.

    Args:
        records: The record set ``R``.
        set_of: Maps a record to the frozenset the metric compares (cached
            word tokens or q-grams — see ``SimilarityFunction.set_of``).
        set_function: The exact scalar set metric; scores the empty-set
            pairs of ``include_empty_pairs`` (the batch kernels reproduce
            it bit for bit on every other pair).
        metric: One of :data:`~repro.pruning.prefix_join.PREFIX_METRICS`.
        threshold: τ; pairs with score strictly above τ survive.
        num_shards: Blocking-key shards (>= 1).  Output is identical for
            every value; larger counts bound per-task memory and enable
            process parallelism.
        processes: Worker processes for the shard loop; <= 1 (or a single
            shard) runs in-process.  Requires the ``fork`` start method —
            without it the join falls back to the in-process loop and
            emits the ``pruning.parallel_fallback`` warning event.
        include_empty_pairs: Also emit pairs of records with empty sets,
            matching the all-pairs scoring loop instead of token blocking
            (which never pairs them).
        obs: Optional :class:`~repro.obs.ObsContext`: the ``blocking``
            span covers interning, encoding, and incidence layout, the
            ``scoring`` span shard execution, verification, and the
            cross-shard merge; also fallback events and the supervised
            pool's ``runtime.*`` fault events.
        pair_block_size: Generated pairs per numpy block (memory bound).
        supervisor_policy: Fault-handling knobs of the shard worker pool
            (retries, backoff, straggler deadline); defaults to
            :class:`~repro.runtime.supervisor.SupervisorPolicy`.
        fault_plan: Deterministic process-fault injection (chaos testing
            only); task index = shard index.
    """
    if metric not in PREFIX_METRICS:
        raise ValueError(f"unknown prefix-join metric {metric!r}")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if pair_block_size < 1:
        raise ValueError(f"pair_block_size must be >= 1, got {pair_block_size}")

    with maybe_span(obs, "blocking"):
        plan, empty = _build_plan(records, set_of, metric, threshold)

    with maybe_span(obs, "scoring"):
        merged: Dict[Pair, float] = {}
        shard_results = _execute_shards(
            plan, num_shards, processes, metric, threshold, pair_block_size,
            obs, supervisor_policy, fault_plan,
        )
        for shard_survivors in shard_results:
            merged.update(shard_survivors)

        if include_empty_pairs and len(empty) >= 2:
            empty_score = min(1.0, max(0.0, set_function(frozenset(),
                                                         frozenset())))
            if empty_score > threshold:
                ordered = sorted(empty)
                for i, a in enumerate(ordered):
                    for b in ordered[i + 1:]:
                        merged[(a, b)] = empty_score

        surviving = sorted(merged)
        scores = {pair: merged[pair] for pair in surviving}
    return surviving, scores


def _execute_shards(
    plan: _JoinPlan,
    num_shards: int,
    processes: int,
    metric: str,
    threshold: float,
    pair_block_size: int,
    obs,
    supervisor_policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
) -> List[Dict[Pair, float]]:
    """All shards' survivor maps, in shard order (parallel when asked)."""
    want_parallel = processes > 1 and num_shards > 1 and len(plan.elem_k) > 0
    if want_parallel and not fork_available():
        notify_parallel_fallback(obs, requested=processes,
                                 context="sharded_prefix_filtered_candidates")
        want_parallel = False
    if not want_parallel:
        return [
            _join_shard(plan, shard, num_shards, metric, threshold,
                        pair_block_size)
            for shard in range(num_shards)
        ]

    _SHARD_STATE.update(
        plan=plan, num_shards=num_shards, metric=metric, threshold=threshold,
        pair_block_size=pair_block_size,
    )
    try:
        shard_results, _ = supervised_map(
            _run_shard_worker, range(num_shards),
            min(processes, num_shards),
            policy=supervisor_policy, obs=obs, fault_plan=fault_plan,
            label="pruning.shard_join",
        )
        return shard_results
    finally:
        _SHARD_STATE.clear()

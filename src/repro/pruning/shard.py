"""Sharded, vectorized prefix-filtered similarity join — the pruning join.

Every prefix-eligible input of
:func:`~repro.pruning.candidate.build_candidate_set` — and so of
:func:`~repro.core.acd.run_acd` given records — runs this join.  It
applies the filter algebra of :mod:`repro.pruning.prefix_join` —
canonical token order, prefix lengths, partner-size bound — over interned
int-rank arrays (:mod:`repro.similarity.kernels`), partitioned into
**shards by blocking key** and verified in numpy blocks.  One shard (the
default) is the unsharded join; more shards bound per-task memory and let
the shards run in worker processes.

Algorithm
---------
1. Each record's token set is read once and streamed into one CSR
   :class:`~repro.similarity.kernels.EncodedRecords` store of dense token
   ranks in the canonical (document frequency, token) order, rows sorted
   by processing order (set size, id).  No per-record object outlives
   this step.
2. The *prefix incidence* list — one ``(token rank, row)`` entry per prefix
   token per record — is built and sorted token-major.  Every entry whose
   group (posting list of one token) has at least one earlier entry is an
   *element*: it will pair with each of its predecessors, which is precisely
   the prefix filter's probe/index rule (a pair is generated iff the two
   prefixes share a token).  Elements are then kept in row-major order.
3. Elements are partitioned into shards with
   :func:`repro.pruning.blocking.shard_of_token` (round-robin over the
   canonical rank).  Each shard generates its pair blocks with numpy
   (predecessor expansion), applies the partner-size filter, deduplicates,
   and verifies the survivors with the vectorized batch scores.  Blocks
   hold about ``pair_block_size`` generated pairs and end on row
   boundaries.  Every generation of a pair comes from the elements of its
   later (probing) row, so a pair is verified once per shard, whatever
   the block size.
4. The cross-shard merge unions the per-shard ``{pair: score}`` survivor
   maps.  A pair straddling shards (shared prefix tokens assigned to
   different shards) is verified in each, with bit-identical scores, so the
   union is order-independent; the merged map is emitted in sorted pair
   order, making the output deterministic for every shard count.

Shards run either in-process (deterministic loop) or in parallel worker
processes of the supervised pool of :mod:`repro.runtime.supervisor`, which
maps a closure over the plan across the shard indices: fork hands the
plan to the workers, and it is released when the pool closes.  A crashed
shard worker is detected and its shard retried with backoff, and shards
whose retries exhaust degrade to in-process execution — the join
completes with identical output under any schedule of worker failures.
On platforms without ``fork`` the join falls back to the in-process loop
and reports it via :func:`repro.runtime.supervisor.uses_pool`
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
from repro.pruning.components import sorted_unique
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import (
    RuntimeReport,
    SupervisorPolicy,
    supervised_map,
    uses_pool,
)
from repro.pruning.prefix_join import (
    EPS,
    PREFIX_METRICS,
    partner_size_need,
    prefix_length,
)
from repro.similarity.kernels import EncodedRecords, score_encoded_pairs

Pair = Tuple[int, int]
SetFunction = Callable[[FrozenSet[str], FrozenSet[str]], float]

#: Generated (pre-filter) pairs materialized per numpy block; a block
#: exceeds it only when one row generates more.  Bounds peak memory at
#: roughly ``block * avg_tokens_per_pair * 8`` bytes during verification,
#: independent of the total candidate volume.
DEFAULT_PAIR_BLOCK_SIZE = 1 << 16


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
    """Encode the records' sets and lay out the prefix incidence.

    Returns the plan, plus the ids of the records whose set is empty
    (the store's first rows; they have no prefix, so only
    ``include_empty_pairs`` ever pairs them).  A repeated record id
    raises ``ValueError``.
    """
    encoded = EncodedRecords.encode(
        [record.record_id for record in records],
        (set_of(record) for record in records),
        by_size=True,
    )
    empty = encoded.ids[encoded.counts == 0].tolist()
    # One bound per distinct size, from the same scalar calls as the
    # frozenset join, so the float bounds are literally identical.
    sizes, size_of_row = _np.unique(encoded.counts, return_inverse=True)
    sizes = sizes.tolist()
    pcounts = _np.array([prefix_length(metric, threshold, size)
                         for size in sizes], dtype=_np.int64)[size_of_row]
    need = _np.array([partner_size_need(metric, threshold, size) - EPS
                      for size in sizes], dtype=_np.float64)[size_of_row]

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
        group_start = _np.flatnonzero(new_group)[_np.cumsum(new_group) - 1]
    else:
        group_start = _np.zeros(0, dtype=_np.int64)
    # Elements go back to incidence order, which is row-major: each row's
    # elements are adjacent, so verification blocks can end on row
    # boundaries (see _join_shard).
    elem_grp_start = _np.empty(total, dtype=_np.int64)
    elem_grp_start[order] = group_start
    elem_k = _np.empty(total, dtype=_np.int64)
    elem_k[order] = _np.arange(total, dtype=_np.int64) - group_start
    active = elem_k > 0
    plan = _JoinPlan(
        encoded=encoded,
        rows_sorted=rows_sorted,
        elem_row=inc_rows[active],
        elem_k=elem_k[active],
        elem_grp_start=elem_grp_start[active],
        elem_token=inc_tokens[active],
        need=need,
    )
    return plan, empty


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
    packed = sorted_unique(left_row * nrows + right_row)
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
    # Blocks end on row boundaries: every generation of a pair has the
    # pair's probing record as its row, so a block holds all of them and
    # verifies the pair once.  A row generating more than
    # ``pair_block_size`` pairs is a block of its own.
    # bounds[i] is the first element of the shard's i-th row, and
    # before[i] the pairs its first i rows generate.
    rows = plan.elem_row[mine]
    bounds = _np.concatenate((
        [0], _np.flatnonzero(rows[1:] != rows[:-1]) + 1, [len(mine)]))
    before = _np.concatenate(([0], _np.cumsum(plan.elem_k[mine])))[bounds]
    first = 0
    while first < len(bounds) - 1:
        stop = max(first + 1, int(_np.searchsorted(
            before, before[first] + pair_block_size, side="right")) - 1)
        _process_element_batch(plan, mine[bounds[first]:bounds[stop]],
                               metric, threshold, survivors)
        first = stop
    return survivors


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
        set_of: Maps a record to the frozenset the metric compares (word
            tokens or q-grams — see ``SimilarityFunction.set_of``).
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
            span covers tokenizing, encoding, and incidence layout, the
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
    surviving, scores, _ = _sharded_join(
        records, set_of, set_function, metric, threshold,
        num_shards=num_shards, processes=processes,
        include_empty_pairs=include_empty_pairs, obs=obs,
        pair_block_size=pair_block_size,
        supervisor_policy=supervisor_policy, fault_plan=fault_plan,
    )
    return surviving, scores


def _sharded_join(
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
) -> Tuple[List[Pair], Dict[Pair, float], RuntimeReport]:
    """:func:`sharded_prefix_filtered_candidates` plus the shard pool's
    :class:`~repro.runtime.supervisor.RuntimeReport` (all zeros when the
    shards ran in this process)."""
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
        shard_results, report = _execute_shards(
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
    return surviving, scores, report


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
) -> Tuple[List[Dict[Pair, float]], RuntimeReport]:
    """All shards' survivor maps, in shard order (parallel when asked),
    and the pool's report."""
    def run_shard(shard: int) -> Dict[Pair, float]:
        return _join_shard(plan, shard, num_shards, metric, threshold,
                           pair_block_size)

    if (num_shards > 1 and len(plan.elem_k) > 0
            and uses_pool(processes, obs=obs,
                          context="sharded_prefix_filtered_candidates")):
        return supervised_map(
            run_shard, range(num_shards), processes,
            policy=supervisor_policy, obs=obs, fault_plan=fault_plan,
            label="pruning.shard_join",
        )
    return [run_shard(shard) for shard in range(num_shards)], RuntimeReport()

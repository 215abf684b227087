"""The prefix join verifies each generated pair once, in bounded blocks.

:func:`repro.pruning.shard._join_shard` cuts a shard's elements into
verification blocks that end on row boundaries.  Every generation of a
pair comes from an element of the pair's probing row, so one block holds
all of them and deduplicates them before scoring.  The pairs a shard
verifies therefore equal its distinct generated pairs at every block
size, and a small default block bounds the join's scratch memory on the
Paper workload.
"""

import tracemalloc

import pytest

from repro.datasets.registry import generate
from repro.pruning import shard
from repro.similarity.composite import (
    SET_METRIC_FUNCTIONS,
    jaccard_similarity_function,
)

THRESHOLD = 0.3

#: tracemalloc peak of one cold Paper join (997 records, 494,756
#: generated pairs) is 18.4 MiB at the default block size; joining in one
#: 512k-pair block peaks at 81 MiB.
PAPER_JOIN_PEAK_BOUND = 24 * 2 ** 20


def _join(records, **options):
    similarity = jaccard_similarity_function()
    return shard.sharded_prefix_filtered_candidates(
        records, similarity.set_of, SET_METRIC_FUNCTIONS["jaccard"],
        "jaccard", THRESHOLD, **options)


def _distinct_generated(plan, num_shards):
    """Per shard, its distinct size-eligible generated pairs, by a plain
    loop over every element's predecessors (no blocks)."""
    pairs = [set() for _ in range(num_shards)]
    counts, need = plan.encoded.counts, plan.need
    for element in range(len(plan.elem_k)):
        right = int(plan.elem_row[element])
        start = int(plan.elem_grp_start[element])
        target = pairs[int(plan.elem_token[element]) % num_shards]
        for position in range(start, start + int(plan.elem_k[element])):
            left = int(plan.rows_sorted[position])
            if counts[left] >= need[right]:
                target.add((left, right))
    return [len(shard_pairs) for shard_pairs in pairs]


@pytest.mark.parametrize("num_shards", [1, 3])
@pytest.mark.parametrize("block", [1, 7, 64, shard.DEFAULT_PAIR_BLOCK_SIZE])
def test_each_pair_verified_once_per_shard(monkeypatch, block, num_shards):
    records = generate("paper", scale=0.3, seed=1).records
    similarity = jaccard_similarity_function()
    plan, _ = shard._build_plan(records, similarity.set_of, "jaccard",
                                THRESHOLD)
    expected = _distinct_generated(plan, num_shards)

    verified = [0] * num_shards
    process = shard._process_element_batch

    def spy(plan, element_indices, *args):
        shards = set((plan.elem_token[element_indices] % num_shards).tolist())
        assert len(shards) == 1, "a block spans shards"
        count = process(plan, element_indices, *args)
        verified[shards.pop()] += count
        return count

    monkeypatch.setattr(shard, "_process_element_batch", spy)
    _join(records, num_shards=num_shards, pair_block_size=block)
    assert verified == expected
    assert sum(expected) > 0


def test_paper_join_scratch_is_bounded():
    records = generate("paper", scale=1.0, seed=1).records
    tracemalloc.start()
    try:
        surviving, _ = _join(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(surviving) == 25_526
    assert peak < PAPER_JOIN_PEAK_BOUND, f"peak {peak / 2 ** 20:.1f} MiB"

"""Join-plan lifetime: the sharded join never pins its plan.

The shard pool's worker function is a closure over the join plan (the
encoded records and the prefix incidence); fork hands it to the workers.
Nothing may keep that plan alive once the join returns or raises, or a
large run's plan stays pinned in the parent for the rest of the process.
"""

import gc
import multiprocessing
import weakref

import pytest

from repro.datasets.schema import Record
from repro.pruning import shard
from repro.similarity.composite import (
    SET_METRIC_FUNCTIONS,
    jaccard_similarity_function,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the shard pool requires the 'fork' start method",
)

TEXTS = {
    0: "deep learning for entity resolution",
    1: "deep learning for entity matching",
    2: "crowdsourced data cleaning systems",
    3: "adaptive crowd based deduplication",
    4: "crowd based deduplication an adaptive approach",
}


@pytest.fixture
def plan_refs(monkeypatch):
    """Weak references to every plan the join builds."""
    refs = []
    build = shard._build_plan

    def recording(*args, **kwargs):
        plan, empty = build(*args, **kwargs)
        refs.append(weakref.ref(plan))
        return plan, empty

    monkeypatch.setattr(shard, "_build_plan", recording)
    return refs


def _join(**kwargs):
    records = [Record(record_id=i, text=text)
               for i, text in sorted(TEXTS.items())]
    similarity = jaccard_similarity_function()
    return shard.sharded_prefix_filtered_candidates(
        records, set_of=similarity.set_of,
        set_function=SET_METRIC_FUNCTIONS["jaccard"],
        metric="jaccard", threshold=0.1, num_shards=3, **kwargs,
    )


class TestShardJoinState:
    """The join's worker state is its plan: dead once the join ends."""

    def test_state_empty_after_successful_join(self, plan_refs):
        serial = _join()
        forked = _join(processes=2)
        assert forked == serial
        gc.collect()
        assert len(plan_refs) == 2
        assert [ref() for ref in plan_refs] == [None, None]

    def test_state_empty_after_failed_join(self, plan_refs, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("simulated pool failure")

        monkeypatch.setattr(shard, "supervised_map", explode)
        with pytest.raises(RuntimeError, match="simulated pool failure"):
            _join(processes=2)
        gc.collect()
        assert len(plan_refs) == 1
        assert plan_refs[0]() is None

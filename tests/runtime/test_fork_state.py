"""Fork-state lifetime: the pre-fork snapshots never outlive their map.

``score_pairs_parallel`` and the sharded join publish their worker inputs
in module globals (``_FORK_STATE`` / ``_SHARD_STATE``) so fork can carry
closures to the workers.  Those globals must be empty again the moment the
map returns — on success *and* on failure — or a large run's texts and
join plan stay pinned in the parent for the rest of the process.
"""

import multiprocessing

import pytest

from repro.pruning import parallel as parallel_module
from repro.pruning import shard
from repro.pruning.parallel import score_pairs_parallel
from repro.similarity.composite import (
    SET_METRIC_FUNCTIONS,
    jaccard_similarity_function,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the fork pools require the 'fork' start method",
)

TEXTS = {
    0: "deep learning for entity resolution",
    1: "deep learning for entity matching",
    2: "crowdsourced data cleaning systems",
    3: "adaptive crowd based deduplication",
    4: "crowd based deduplication an adaptive approach",
}
PAIRS = [(a, b) for a in TEXTS for b in TEXTS if a < b]


def _jaccard(left: str, right: str) -> float:
    tokens_left, tokens_right = set(left.split()), set(right.split())
    union = tokens_left | tokens_right
    return len(tokens_left & tokens_right) / len(union) if union else 0.0


class TestScoreParallelState:
    def test_state_empty_after_successful_map(self):
        serial = score_pairs_parallel(PAIRS, TEXTS, _jaccard,
                                      threshold=0.1, processes=1)
        scored = score_pairs_parallel(PAIRS, TEXTS, _jaccard,
                                      threshold=0.1, processes=2,
                                      chunk_size=2)
        assert scored == serial
        assert parallel_module._FORK_STATE == {}

    def test_state_empty_after_failed_map(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("simulated pool failure")

        monkeypatch.setattr(parallel_module, "supervised_map", explode)
        with pytest.raises(RuntimeError):
            score_pairs_parallel(PAIRS, TEXTS, _jaccard,
                                 threshold=0.1, processes=2)
        assert parallel_module._FORK_STATE == {}


class TestShardJoinState:
    @staticmethod
    def _join(**kwargs):
        from repro.datasets.schema import Record

        records = [Record(record_id=i, text=text)
                   for i, text in sorted(TEXTS.items())]
        similarity = jaccard_similarity_function()
        return shard.sharded_prefix_filtered_candidates(
            records, set_of=similarity.set_of,
            set_function=SET_METRIC_FUNCTIONS["jaccard"],
            metric="jaccard", threshold=0.1, num_shards=3, **kwargs,
        )

    def test_state_empty_after_successful_join(self):
        serial = self._join()
        forked = self._join(processes=2)
        assert forked == serial
        assert shard._SHARD_STATE == {}

    def test_state_empty_after_failed_join(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("simulated pool failure")

        monkeypatch.setattr(shard, "supervised_map", explode)
        with pytest.raises(RuntimeError):
            self._join(processes=2)
        assert shard._SHARD_STATE == {}

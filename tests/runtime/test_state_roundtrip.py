"""The checkpointable state snapshots: clustering, crowd stats, oracle,
phase diagnostics.

The generation checkpoint's byte-identity rests on three round trips:
cluster ids (merge tie-breaking depends on them), the full crowd-cost
counters, and the answer set ``A`` in answer-log order.  These tests pin
each one, the PC-Pivot / PC-Refine diagnostics both checkpoints carry,
plus the journal's replay-skip used when a checkpoint already carries a
phase's cost counters.
"""

import json

import pytest

from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationStats
from repro.core.generation import PCPivotDiagnostics
from repro.core.pc_refine import PCRefineDiagnostics
from repro.crowd.persistence import JournalingAnswerFile
from repro.crowd.stats import CrowdStats
from tests.conftest import scripted_oracle


class TestClusteringState:
    def _worked_clustering(self) -> Clustering:
        clustering = Clustering([[0, 1], [2], [3, 4, 5], [6]])
        clustering.merge(clustering.cluster_of(0), clustering.cluster_of(2))
        clustering.split(4)
        return clustering

    def test_round_trip_preserves_partition_and_ids(self):
        original = self._worked_clustering()
        restored = Clustering.from_state(original.to_state())
        assert restored.as_sets() == original.as_sets()
        assert restored.cluster_ids == original.cluster_ids
        for record_id in original.record_ids():
            assert (restored.cluster_of(record_id)
                    == original.cluster_of(record_id))
        restored.check_invariants()

    def test_future_id_assignment_is_identical(self):
        original = self._worked_clustering()
        restored = Clustering.from_state(original.to_state())
        assert restored.add_cluster([99]) == original.add_cluster([99])
        assert (restored.merge(restored.cluster_of(3),
                               restored.cluster_of(6))
                == original.merge(original.cluster_of(3),
                                  original.cluster_of(6)))

    def test_state_is_json_friendly(self):
        import json

        state = self._worked_clustering().to_state()
        assert json.loads(json.dumps(state)) == state

    @pytest.mark.parametrize("state", (
        {},
        {"clusters": [[0, [1]]]},
        {"next_id": 1},
        {"clusters": [[0, []]], "next_id": 1},
        {"clusters": [[0, [1]], [0, [2]]], "next_id": 1},
        {"clusters": [[5, [1]]], "next_id": 3},
        {"clusters": [[0, [1]], [1, [1]]], "next_id": 2},
        {"clusters": "nope", "next_id": 1},
    ))
    def test_malformed_state_raises(self, state):
        with pytest.raises(ValueError):
            Clustering.from_state(state)


class TestCrowdStatsState:
    def _worked_stats(self) -> CrowdStats:
        stats = CrowdStats(pairs_per_hit=10, reward_cents_per_hit=2.0,
                           num_workers=5)
        stats.pairs_issued = 271
        stats.iterations = 23
        stats.hits = 30
        stats.votes = 150
        stats.retries = 4
        stats.timeouts = 2
        stats.abandonments = 1
        stats.degraded_pairs = 3
        stats.quorum_stops = 7
        stats.batch_sizes.extend([40, 12, 9])
        return stats

    def test_round_trip_is_counter_exact(self):
        original = self._worked_stats()
        restored = CrowdStats.from_state(original.to_state())
        assert restored.to_state() == original.to_state()
        assert restored.snapshot() == original.snapshot()
        assert restored.batch_sizes == original.batch_sizes

    def test_restored_stats_keep_counting(self):
        restored = CrowdStats.from_state(self._worked_stats().to_state())
        restored.pairs_issued += 10
        restored.batch_sizes.append(10)
        assert restored.pairs_issued == 281
        assert restored.batch_sizes[-1] == 10

    @pytest.mark.parametrize("state", (
        {},
        {"pairs_per_hit": "many"},
        {"pairs_per_hit": 20, "num_workers": 3},
    ))
    def test_malformed_state_raises(self, state):
        with pytest.raises(ValueError):
            CrowdStats.from_state(state)


class TestDiagnosticsState:
    @pytest.mark.parametrize("cache", (
        None,
        EvaluationStats(lookups=40, hits=31, refreshes=5,
                        evaluations=6, patches=3).as_dict(),
    ))
    def test_round_trip_through_checkpoint_json(self, cache):
        """Checkpoints are written as sorted-key JSON; the restored
        diagnostics equal the originals, the evaluation-cache snapshot
        comes back in ``EvaluationStats.as_dict`` key order (so its repr
        matches an uninterrupted run's), and the payload keys are the
        ones existing checkpoints carry."""
        pivot = PCPivotDiagnostics(ks=[3, 1], predicted_waste=[2, 0],
                                   issued_per_round=[17, 4])
        refine = PCRefineDiagnostics(
            batch_sizes=[12, 3], operations_packed=[4, 1],
            operations_applied=[3, 0], free_operations_applied=6,
            operation_evaluations=58, evaluation_cache=cache,
        )
        assert set(pivot.to_state()) == {"ks", "predicted_waste",
                                         "issued_per_round"}
        assert set(refine.to_state()) == {
            "batch_sizes", "operations_packed", "operations_applied",
            "free_operations_applied", "operation_evaluations",
            "evaluation_cache",
        }
        stored = json.loads(json.dumps(
            {"pivot": pivot.to_state(), "refine": refine.to_state()},
            sort_keys=True,
        ))
        restored_pivot = PCPivotDiagnostics.from_state(stored["pivot"])
        restored_refine = PCRefineDiagnostics.from_state(stored["refine"])
        assert restored_pivot == pivot
        assert restored_refine == refine
        assert repr(restored_refine) == repr(refine)
        if cache is None:
            assert restored_refine.evaluation_cache is None
        else:
            assert list(restored_refine.evaluation_cache) == [
                "lookups", "hits", "refreshes", "evaluations", "patches",
                "hit_rate"]

    def test_checkpoint_without_patches_restores(self):
        """Checkpoints written before the cache counted patches carry no
        ``patches`` key; they restore as written, in canonical order."""
        legacy = {"evaluations": 9, "hit_rate": 0.775, "hits": 31,
                  "lookups": 40, "refreshes": 5}
        state = PCRefineDiagnostics(evaluation_cache=legacy).to_state()
        restored = PCRefineDiagnostics.from_state(
            json.loads(json.dumps(state, sort_keys=True)))
        assert restored.evaluation_cache == legacy
        assert list(restored.evaluation_cache) == [
            "lookups", "hits", "refreshes", "evaluations", "hit_rate"]


class TestOracleAnswerLog:
    ANSWERS = {(0, 1): 0.9, (2, 3): 0.2, (4, 5): 0.7, (0, 2): 0.4}

    def test_known_in_order_follows_ask_order(self):
        oracle = scripted_oracle(self.ANSWERS, num_workers=3)
        asked = [(4, 5), (0, 1), (0, 2)]
        for pair in asked:
            oracle.ask(*pair)
        assert [pair for pair, _ in oracle.known_in_order()] == asked

    def test_seed_known_replays_the_log_exactly(self):
        oracle = scripted_oracle(self.ANSWERS, num_workers=3)
        for pair in [(2, 3), (4, 5), (0, 1)]:
            oracle.ask(*pair)
        replayed = scripted_oracle(self.ANSWERS, num_workers=3)
        replayed.seed_known(dict(oracle.known_in_order()))
        assert replayed.known_in_order() == oracle.known_in_order()
        assert replayed.known_pairs() == oracle.known_pairs()


class _FaultySource:
    """An answer source that reports one retry per resolved batch."""

    num_workers = 3

    def __init__(self):
        self.fresh_resolutions = 0

    def confidence(self, record_a: int, record_b: int) -> float:
        self.fresh_resolutions += 1
        return 0.9

    def drain_fault_counters(self):
        return {"retries": 1}


class TestSkipReplayedBatches:
    def _journal_two_batches(self, path):
        with JournalingAnswerFile(_FaultySource(), path) as first_run:
            first_run.confidence_batch([(0, 1)])
            first_run.confidence_batch([(2, 3)])

    def test_negative_count_rejected(self, tmp_path):
        wrapper = JournalingAnswerFile(_FaultySource(),
                                       tmp_path / "journal.jsonl")
        with pytest.raises(ValueError):
            wrapper.skip_replayed_batches(-1)

    def test_skipped_batches_do_not_resurface_faults(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._journal_two_batches(path)
        resumed = JournalingAnswerFile(_FaultySource(), path)
        # The checkpoint already carries both batches' cost counters.
        resumed.skip_replayed_batches(2)
        resumed.confidence_batch([(0, 1)])
        resumed.confidence_batch([(2, 3)])
        assert resumed.drain_fault_counters() == {}

    def test_unskipped_replay_still_resurfaces_faults(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._journal_two_batches(path)
        resumed = JournalingAnswerFile(_FaultySource(), path)
        resumed.skip_replayed_batches(1)
        resumed.confidence_batch([(0, 1)])
        resumed.confidence_batch([(2, 3)])
        assert resumed.drain_fault_counters() == {"retries": 1}

    def test_skip_is_capped_at_inherited_batches(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._journal_two_batches(path)
        resumed = JournalingAnswerFile(_FaultySource(), path)
        resumed.skip_replayed_batches(50)  # capped, no error
        resumed.confidence_batch([(0, 1)])
        assert resumed.drain_fault_counters() == {}

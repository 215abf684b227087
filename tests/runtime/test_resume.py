"""Kill-resume byte-identity: restart from a phase checkpoint, finish
exactly like the uninterrupted run.

Each test emulates a run killed right after a phase's snapshot landed and
resumes in a fresh "process" — fresh instance, fresh answer source, fresh
:class:`CheckpointStore` — asserting the final clustering, crowd-cost
counters, and per-phase stats are byte-identical to a run that was never
interrupted, and that the checkpointed phase was not re-executed.
"""

import pytest

from repro.core.acd import run_acd
from repro.crowd.cache import AnswerWrapper
from repro.crowd.persistence import JournalingAnswerFile
from repro.experiments.runner import prepare_instance
from repro.runtime.checkpoint import (
    CheckpointStore,
    candidate_state,
    restore_candidates,
)

DATASET, SCALE, SEED, METHOD_SEED = "restaurant", 0.1, 3, 7
CONFIG = {"dataset": DATASET, "scale": SCALE, "seed": SEED,
          "method_seed": METHOD_SEED}


def _fresh_instance():
    return prepare_instance(DATASET, "3w", scale=SCALE, seed=SEED)


def _fingerprint(result) -> tuple:
    return (
        tuple(tuple(sorted(cluster))
              for cluster in result.clustering.as_sets()),
        tuple(sorted(result.stats.snapshot().items())),
        tuple(result.stats.batch_sizes),
        tuple(sorted(result.generation_stats.items())),
        tuple(sorted(result.refinement_stats.items())),
    )


class _CountingAnswers(AnswerWrapper):
    """Pass-through answer source counting fresh pair resolutions."""

    def __init__(self, source):
        super().__init__(source)
        self.resolved_pairs = 0

    def confidence(self, record_a: int, record_b: int) -> float:
        self.resolved_pairs += 1
        return self._inner.confidence(record_a, record_b)


@pytest.fixture(scope="module")
def baseline(tiny_restaurant):
    counting = _CountingAnswers(tiny_restaurant.answers)
    result = run_acd(tiny_restaurant.record_ids, tiny_restaurant.candidates,
                     counting, seed=METHOD_SEED)
    return result, counting.resolved_pairs


class TestPruningResume:
    def test_restored_candidates_skip_the_join(self, tmp_path,
                                               tiny_restaurant, baseline):
        reference, _ = baseline
        store = CheckpointStore(tmp_path, config=CONFIG)
        store.save("pruning", candidate_state(tiny_restaurant.candidates))

        # The resumed "process": reload the snapshot, hand the candidates
        # to prepare_instance so the join never runs.
        resumed_store = CheckpointStore(tmp_path, config=CONFIG)
        candidates = restore_candidates(resumed_store.load("pruning"))
        assert candidates.pairs == tiny_restaurant.candidates.pairs
        assert (candidates.machine_scores
                == tiny_restaurant.candidates.machine_scores)

        instance = prepare_instance(DATASET, "3w", scale=SCALE, seed=SEED,
                                    candidates=candidates)
        result = run_acd(instance.record_ids, instance.candidates,
                         instance.answers, seed=METHOD_SEED)
        assert _fingerprint(result) == _fingerprint(reference)


class TestGenerationResume:
    def test_resume_skips_generation_byte_identically(self, tmp_path,
                                                      baseline):
        reference, baseline_resolved = baseline
        store = CheckpointStore(tmp_path, config=CONFIG)
        first = _fresh_instance()
        run_acd(first.record_ids, first.candidates, first.answers,
                seed=METHOD_SEED, checkpoints=store)
        assert store.path("generation").exists()

        resumed_store = CheckpointStore(tmp_path, config=CONFIG)
        resumed = _fresh_instance()
        counting = _CountingAnswers(resumed.answers)
        result = run_acd(resumed.record_ids, resumed.candidates, counting,
                         seed=METHOD_SEED, checkpoints=resumed_store,
                         resume=True)
        assert _fingerprint(result) == _fingerprint(reference)
        # The resumed run may only resolve refinement-phase pairs: the
        # generation phase's crowdsourcing must come from the snapshot.
        generation_pairs = int(reference.generation_stats["pairs_issued"])
        refinement_pairs = baseline_resolved - generation_pairs
        assert counting.resolved_pairs <= refinement_pairs

    def test_without_resume_flag_the_phase_reruns(self, tmp_path, baseline):
        reference, _ = baseline
        store = CheckpointStore(tmp_path, config=CONFIG)
        first = _fresh_instance()
        run_acd(first.record_ids, first.candidates, first.answers,
                seed=METHOD_SEED, checkpoints=store)

        fresh = _fresh_instance()
        counting = _CountingAnswers(fresh.answers)
        result = run_acd(fresh.record_ids, fresh.candidates, counting,
                         seed=METHOD_SEED,
                         checkpoints=CheckpointStore(tmp_path,
                                                     config=CONFIG))
        # resume=False ignores the snapshot: full crowd cost, same result.
        assert _fingerprint(result) == _fingerprint(reference)
        assert counting.resolved_pairs == int(
            reference.stats.pairs_issued)


class TestJournalPlusCheckpoint:
    def test_combined_resume_is_byte_identical(self, tmp_path, baseline):
        reference, _ = baseline
        journal_path = tmp_path / "run.wal"
        store = CheckpointStore(tmp_path / "ck", config=CONFIG)

        first = _fresh_instance()
        with JournalingAnswerFile(first.answers, journal_path) as answers:
            run_acd(first.record_ids, first.candidates, answers,
                    seed=METHOD_SEED, checkpoints=store)

        # The resumed run replays the journal for the refinement batches
        # and restores the generation phase from its checkpoint — the
        # skip_replayed_batches handshake keeps the counters from being
        # merged twice.
        resumed = _fresh_instance()
        resumed_store = CheckpointStore(tmp_path / "ck", config=CONFIG)
        counting = _CountingAnswers(resumed.answers)
        with JournalingAnswerFile(counting, journal_path) as answers:
            result = run_acd(resumed.record_ids, resumed.candidates,
                             answers, seed=METHOD_SEED,
                             checkpoints=resumed_store, resume=True)
        assert _fingerprint(result) == _fingerprint(reference)
        # Every pair was journaled by the first run: the resumed run
        # crowdsources nothing at all.
        assert counting.resolved_pairs == 0

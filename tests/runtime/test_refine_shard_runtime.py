"""Refinement after a pool generation, composed with the runtime layer:
journal replay and checkpoint kill-resume.

:func:`~repro.core.acd.run_acd` refines with the global PC-Refine loop in
the parent process, through the caller's oracle, once the pool has
drained generation — so a journaled run replays its refinement batches
from the write-ahead log, and a ``refinement`` checkpoint resumes without
touching the crowd.  The confused largescale
population gives refinement real multi-round work.
"""

import multiprocessing
import tempfile
from pathlib import Path

import pytest

from repro.crowd.cache import AnswerFile
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.pruning.candidate import build_candidate_set
from repro.runtime.checkpoint import CheckpointStore
from repro.core.acd import run_acd
from repro.similarity.composite import jaccard_similarity_function

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the supervised worker pool requires the 'fork' start method",
)

_DATASET = generate("largescale", scale=0.2, seed=0, confusion=0.25)
_CANDIDATES = build_candidate_set(
    _DATASET.records, jaccard_similarity_function(),
    threshold=PRUNING_THRESHOLD,
)
_WORKERS = WorkerPool(difficulty=difficulty_model("largescale"),
                      num_workers=3)


class TestJournalComposition:
    def test_journaled_sharded_run_replays_byte_identical(self):
        """A journaled pool run re-invoked on the same journal
        serves every parent-side batch from the write-ahead log (the
        journal does not grow) and reports byte-identical.  Forked pivot
        workers recompute their component answers from the
        pair-deterministic source by design — the journal's guarantee
        covers the authoritative parent accounting, not worker-side
        memos.
        """
        from repro.crowd.persistence import (
            AnswerJournal,
            JournalingAnswerFile,
        )

        def acd(journal_path):
            with JournalingAnswerFile(AnswerFile(_DATASET.gold, _WORKERS),
                                      journal_path) as answers:
                return run_acd(_DATASET.record_ids, _CANDIDATES, answers,
                               seed=7, workers=2)

        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "run.journal"
            first = acd(journal)
            batches_after_first = AnswerJournal(journal).num_batches
            replayed = acd(journal)
            batches_after_replay = AnswerJournal(journal).num_batches
        assert batches_after_first >= 1
        assert batches_after_replay == batches_after_first
        assert (replayed.clustering.to_state()
                == first.clustering.to_state())
        assert replayed.stats.snapshot() == first.stats.snapshot()
        assert replayed.stats.batch_sizes == first.stats.batch_sizes


class TestCheckpointKillResume:
    def test_refinement_checkpoint_resumes_sharded_run(self):
        """A run killed right after the refinement checkpoint of a pool
        run resumes in a fresh process and reports byte-identical to an
        uninterrupted pool run — without touching the crowd at all."""
        config = {"dataset": "largescale", "scale": 0.2, "seed": 0,
                  "workers": 2}

        def acd(answers, checkpoints=None, resume=False):
            return run_acd(_DATASET.record_ids, _CANDIDATES, answers,
                           seed=7, workers=2, checkpoints=checkpoints,
                           resume=resume)

        uninterrupted = acd(AnswerFile(_DATASET.gold, _WORKERS))
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(Path(tmp), config=config)
            first = acd(AnswerFile(_DATASET.gold, _WORKERS),
                        checkpoints=store)
            assert store.load("refinement") is not None

            class Refusing:
                pair_deterministic = True
                num_workers = 3

                def confidence(self, a, b):
                    raise AssertionError(
                        f"restored refinement re-crowdsourced ({a}, {b})"
                    )

            resumed_store = CheckpointStore(Path(tmp), config=config)
            resumed = acd(Refusing(), checkpoints=resumed_store,
                          resume=True)

        for result in (first, resumed):
            assert (result.clustering.to_state()
                    == uninterrupted.clustering.to_state())
            assert result.stats.snapshot() == uninterrupted.stats.snapshot()
            assert (result.stats.batch_sizes
                    == uninterrupted.stats.batch_sizes)
        assert str(resumed.refinement_stats) == str(
            uninterrupted.refinement_stats)

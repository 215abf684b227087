"""ACD refinement across executor configurations: byte-identity, parity,
wiring.

:func:`~repro.core.acd.run_acd` decomposes pruning and cluster generation
by component — inline or on a worker pool — then refines with one global
PC-Refine loop in the parent.  Every ``{pruning shards, workers}``
configuration produces a byte-identical clustering, crowd stats, and
diagnostics.  Refinement parity is also asserted through the checkpoint
route: an inline generation writes a ``generation`` checkpoint, and a
pool-configured run resumes from it, so only refinement runs there.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.acd import run_acd
from repro.crowd.cache import AnswerFile
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.experiments.runner import prepare_instance, run_method
from repro.pruning.candidate import build_candidate_set
from repro.runtime.checkpoint import CheckpointStore
from repro.similarity.composite import jaccard_similarity_function

SEED = 3


def _instance(name="largescale", scale=0.2, seed=0, **kwargs):
    return prepare_instance(name, "3w", scale=scale, seed=seed, **kwargs)


def _outcome(result):
    diagnostics = result.refine_diagnostics
    return {
        "clustering": result.clustering.to_state(),
        "stats": result.stats.snapshot(),
        "batches": list(result.stats.batch_sizes),
        "rounds": diagnostics.rounds,
        "batch_sizes": diagnostics.batch_sizes,
        "packed": diagnostics.operations_packed,
        "applied": diagnostics.operations_applied,
        "free": diagnostics.free_operations_applied,
        "evaluations": diagnostics.operation_evaluations,
        "cache": diagnostics.evaluation_cache,
    }


def _classic(instance, seed=SEED):
    return _outcome(run_acd(instance.record_ids, instance.candidates,
                            instance.answers, seed=seed))


def _classic_generation_then_sharded_refine(instance, seed=SEED, workers=0):
    """An inline generation-only run, then a ``workers``-configured run
    resumed from its ``generation`` checkpoint (which adds a
    ``refinement`` one)."""
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp), config={"seed": seed})
        run_acd(instance.record_ids, instance.candidates, instance.answers,
                seed=seed, refine=False, checkpoints=store)
        result = run_acd(instance.record_ids, instance.candidates,
                         instance.answers, workers=workers,
                         checkpoints=store, resume=True)
    return _outcome(result)


def _streamed(dataset, answers, shards, workers):
    return _outcome(run_acd(
        answers=answers, records=dataset.records,
        similarity=jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD, pruning_shards=shards,
        workers=workers, seed=SEED,
    ))


class TestCrossConfigIdentity:
    def test_every_shard_count_is_byte_identical(self):
        instance = _instance()
        reference = _streamed(instance.dataset, instance.answers, 1, 0)
        for shards, workers in ((2, 0), (5, 2), (9, 3)):
            assert (_streamed(instance.dataset, instance.answers, shards,
                              workers) == reference), shards

    def test_identity_survives_a_confused_population(self):
        # The confusion knob gives refinement real over/under-merge work
        # (multi-round components), so this exercises packed rounds and
        # the histogram-evolution path, not just the free pass.
        dataset = generate("largescale", scale=0.3, seed=0, confusion=0.25)
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD,
        )
        crowd = WorkerPool(difficulty=difficulty_model("largescale"),
                           num_workers=3)

        def run(workers):
            return _outcome(run_acd(
                dataset.record_ids, candidates,
                AnswerFile(dataset.gold, crowd), workers=workers, seed=SEED,
            ))

        reference = run(0)
        assert reference["rounds"] >= 1
        for workers in (2, 3):
            assert run(workers) == reference, workers

    def test_sharded_ids_are_canonical(self):
        state = _classic_generation_then_sharded_refine(
            _instance(), workers=2)["clustering"]
        clusters = sorted(state["clusters"], key=lambda entry: entry[0])
        ids = [cid for cid, _ in clusters]
        assert ids == list(range(len(ids)))
        smallest = [min(members) for _, members in clusters]
        assert smallest == sorted(smallest)
        assert state["next_id"] == len(ids)


class TestClassicParity:
    """Resumed from the same ``generation`` checkpoint, a resumed run's
    refinement (any worker count) equals the uninterrupted inline run's
    on every outcome key."""

    @pytest.mark.parametrize("name,scale", [
        ("paper", 0.3), ("restaurant", 0.5), ("product", 0.15),
    ])
    def test_sharded_matches_classic_on_paper_datasets(self, name, scale):
        classic = _classic(_instance(name, scale=scale))
        sharded = _classic_generation_then_sharded_refine(
            _instance(name, scale=scale))
        assert sharded == classic

    def test_sharded_matches_classic_at_largescale(self):
        instance = _instance(scale=0.5)
        classic = _classic(instance)
        sharded = _classic_generation_then_sharded_refine(
            _instance(scale=0.5), workers=2)
        assert sharded == classic

    def test_pipeline_matches_classic_on_confused_population(self):
        # 10k confused records: refinement packs over many clusters for
        # several rounds, so one histogram and one budget T per round
        # (Algorithm 5) decide every ranking and stopping choice.
        dataset = generate("largescale", scale=1.0, seed=0, confusion=0.25)
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD,
        )
        crowd = WorkerPool(difficulty=difficulty_model("largescale"),
                           num_workers=3)

        def instance():
            return SimpleNamespace(record_ids=dataset.record_ids,
                                   candidates=candidates,
                                   answers=AnswerFile(dataset.gold, crowd))

        classic = _classic(instance())
        assert classic["rounds"] >= 2
        assert _classic_generation_then_sharded_refine(instance()) == classic


class TestValidation:
    def test_processes_without_shards_rejected(self):
        """``run_method`` takes ``workers=``; the knob that picked an
        executor is gone."""
        with pytest.raises(TypeError, match="pipeline_workers"):
            run_method("ACD", _instance(scale=0.05), seed=7,
                       pipeline_workers=2)

    def test_max_refinement_pairs_caps_pool_runs(self):
        """Refinement is global on every executor configuration, so the
        refinement pair cap applies identically with a pool."""
        outcomes = []
        for workers in (0, 2):
            instance = _instance(scale=0.1)
            result = run_acd(instance.record_ids, instance.candidates,
                             instance.answers, seed=7, workers=workers,
                             max_refinement_pairs=5)
            assert result.refinement_stats["pairs_issued"] <= 5
            outcomes.append(_outcome(result))
        assert outcomes[0] == outcomes[1]

    def test_non_pair_deterministic_source_rejected(self):
        instance = _instance(scale=0.05)

        class Opaque:
            num_workers = 3

            def confidence(self, a, b):  # pragma: no cover - never reached
                return 1.0

        with pytest.raises(ValueError, match="pair-deterministic"):
            run_acd(instance.record_ids, instance.candidates, Opaque(),
                    workers=2)


class TestRunAcdWiring:
    def test_sharded_run_acd_matches_classic(self):
        instance = _instance("restaurant", scale=0.3)
        classic = run_acd(instance.record_ids, instance.candidates,
                          instance.answers, seed=7)
        instance = _instance("restaurant", scale=0.3)
        sharded = run_acd(instance.record_ids, instance.candidates,
                          instance.answers, seed=7, workers=2)
        assert (sharded.clustering.to_state()
                == classic.clustering.to_state())
        assert sharded.stats.snapshot() == classic.stats.snapshot()


class TestRefinementCheckpoint:
    def test_refinement_checkpoint_roundtrip_is_byte_identical(self):
        config = {"dataset": "largescale", "scale": 0.1, "seed": 0}

        def acd(instance, checkpoints=None, resume=False):
            return run_acd(instance.record_ids, instance.candidates,
                           instance.answers, seed=7, workers=2,
                           checkpoints=checkpoints, resume=resume)

        uninterrupted = acd(_instance(scale=0.1))
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(Path(tmp), config=config)
            acd(_instance(scale=0.1), checkpoints=store)
            assert store.load("refinement") is not None

            class Refusing:
                pair_deterministic = True
                num_workers = 3

                def confidence(self, a, b):
                    raise AssertionError(
                        f"restored refinement re-crowdsourced ({a}, {b})"
                    )

            resumed_store = CheckpointStore(Path(tmp), config=config)
            instance = _instance(scale=0.1)
            import dataclasses
            instance = dataclasses.replace(instance, answers=Refusing())
            resumed = acd(instance, checkpoints=resumed_store, resume=True)

        assert (resumed.clustering.to_state()
                == uninterrupted.clustering.to_state())
        assert resumed.stats.snapshot() == uninterrupted.stats.snapshot()
        assert resumed.stats.batch_sizes == uninterrupted.stats.batch_sizes
        assert str(resumed.refinement_stats) == str(
            uninterrupted.refinement_stats)


class TestCliWiring:
    def test_cli_defaults_keep_classic_path(self):
        """By default ``repro run`` generates inline; ``--parallel`` is the
        one worker-count flag."""
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "restaurant"])
        assert args.parallel == 0
        assert not hasattr(args, "pipeline")
        assert not hasattr(args, "pipeline_workers")

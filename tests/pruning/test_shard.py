"""Byte-identity of the sharded vectorized join with its scalar oracle.

Sharding and vectorization are throughput optimizations, not
approximations: for every metric, shard count and process count the
production join must return exactly the pairs and float scores of the
one-record-at-a-time frozenset join
:func:`repro.reference.prefix_filtered_candidates`.  These tests also
cover the ``build_candidate_set`` routing (the ``shards`` knob, pinned
to the seed scoring loop :func:`repro.reference.candidate_set`) and the
never-silent serial fallback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.cli import main
from repro.datasets.registry import generate
from repro.datasets.schema import Record
from repro.experiments.runner import prepare_instance
from repro.obs import ObsContext, Tracer
from repro.pruning import shard
from repro.pruning.candidate import build_candidate_set
from repro.pruning.prefix_join import PREFIX_METRICS
from repro.reference import prefix_filtered_candidates
from repro.runtime import supervisor
from repro.runtime.pipeline import run_pipeline
from repro.runtime.supervisor import ParallelFallbackWarning
from repro.similarity.composite import (
    SET_METRIC_FUNCTIONS,
    cosine_set_similarity_function,
    dice_similarity_function,
    jaccard_similarity_function,
    overlap_similarity_function,
    qgram_similarity_function,
)
from repro.similarity.jaccard import token_jaccard
from tests.conftest import pruned_with

SET_FACTORIES = {
    "jaccard": jaccard_similarity_function,
    "cosine": cosine_set_similarity_function,
    "dice": dice_similarity_function,
    "overlap": overlap_similarity_function,
}


def recs(*texts):
    return [Record(record_id=i, text=t) for i, t in enumerate(texts)]


def join_args(metric, factory=None):
    similarity = (factory or SET_FACTORIES[metric])()
    return dict(
        set_of=similarity.set_of,
        set_function=SET_METRIC_FUNCTIONS[metric],
        metric=metric,
    )


def assert_same_join(records, metric, threshold, *, include_empty_pairs=False,
                     shard_counts=(1, 2, 3, 5, 8), processes=0):
    """The scalar oracle join vs the production join at every shard count."""
    expected_pairs, expected_scores = prefix_filtered_candidates(
        records, threshold=threshold,
        include_empty_pairs=include_empty_pairs, **join_args(metric),
    )
    for num_shards in shard_counts:
        pairs, scores = shard.sharded_prefix_filtered_candidates(
            records, threshold=threshold, num_shards=num_shards,
            processes=processes,
            include_empty_pairs=include_empty_pairs, **join_args(metric),
        )
        assert pairs == expected_pairs, (metric, num_shards, processes)
        assert scores == expected_scores, (metric, num_shards, processes)


class TestShardedJoinOnDatasets:
    @pytest.mark.parametrize("metric", PREFIX_METRICS)
    def test_paper_dataset_all_shard_counts(self, metric):
        records = generate("paper", scale=0.15, seed=3).records
        assert_same_join(records, metric, threshold=0.3,
                         shard_counts=(1, 3, 8))

    @pytest.mark.parametrize("dataset_name", ("restaurant", "product"))
    def test_other_datasets(self, dataset_name):
        records = generate(dataset_name, scale=0.1, seed=5).records
        assert_same_join(records, "jaccard", threshold=0.3,
                         shard_counts=(1, 5))

    def test_include_empty_pairs(self):
        records = recs("", "", "a b", "a b c", "")
        assert_same_join(records, "jaccard", threshold=0.3,
                         include_empty_pairs=True, shard_counts=(1, 2, 4))


short_texts = st.lists(
    st.text(alphabet="abcdefg ", min_size=0, max_size=24),
    min_size=2, max_size=14,
)


class TestShardedJoinRandomized:
    @settings(max_examples=40, deadline=None)
    @given(texts=short_texts,
           threshold=st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 0.9]),
           metric=st.sampled_from(PREFIX_METRICS),
           num_shards=st.sampled_from([1, 2, 3, 7]),
           include_empty=st.booleans())
    def test_matches_scalar_join(self, texts, threshold, metric, num_shards,
                                 include_empty):
        assert_same_join(recs(*texts), metric, threshold,
                         include_empty_pairs=include_empty,
                         shard_counts=(num_shards,))

    @settings(max_examples=20, deadline=None)
    @given(texts=short_texts, block=st.sampled_from([1, 7, 64]))
    def test_pair_block_size_invariant(self, texts, block):
        # Tiny pair blocks exercise the batch boundaries; output must not
        # depend on the block size.
        records = recs(*texts)
        expected = prefix_filtered_candidates(
            records, threshold=0.3, **join_args("jaccard"),
        )
        got = shard.sharded_prefix_filtered_candidates(
            records, threshold=0.3, num_shards=2, pair_block_size=block,
            **join_args("jaccard"),
        )
        assert got == expected


class TestForkParallelism:
    def test_fork_processes_match_in_process(self):
        records = generate("paper", scale=0.15, seed=3).records
        assert_same_join(records, "jaccard", threshold=0.3,
                         shard_counts=(4,), processes=2)

    def test_fallback_warns_and_emits_event(self, monkeypatch):
        monkeypatch.setattr(supervisor, "fork_available", lambda: False)
        records_seen = []
        obs = ObsContext(tracer=Tracer(sink=records_seen.append))

        records = recs("a b c", "a b d", "b c d")
        with pytest.warns(ParallelFallbackWarning):
            pairs, scores = shard.sharded_prefix_filtered_candidates(
                records, threshold=0.1, num_shards=2, processes=2,
                obs=obs, **join_args("jaccard"),
            )
        expected_pairs, expected_scores = prefix_filtered_candidates(
            records, threshold=0.1, **join_args("jaccard"),
        )
        assert pairs == expected_pairs and scores == expected_scores
        assert any(record["type"] == "event"
                   and record["name"] == "pruning.parallel_fallback"
                   for record in records_seen)


class TestBuildCandidateSetRouting:
    def test_shard_counts_match_reference(self):
        records = generate("restaurant", scale=0.1, seed=7).records
        expected = reference.candidate_set(
            records, jaccard_similarity_function(), threshold=0.3,
        )
        for kwargs in (
            dict(shards=3),
            dict(),
            dict(shards=2),
            dict(shards=4),
        ):
            result, engine = pruned_with(
                build_candidate_set, records, jaccard_similarity_function(),
                threshold=0.3, **kwargs,
            )
            assert engine == "prefix", kwargs
            assert result.pairs == expected.pairs, kwargs
            assert result.machine_scores == expected.machine_scores, kwargs

    def test_qgram_sharded_matches_reference(self):
        records = generate("restaurant", scale=0.08, seed=2).records
        expected = reference.candidate_set(
            records, qgram_similarity_function(), threshold=0.2,
            use_token_blocking=False,
        )
        sharded, engine = pruned_with(
            build_candidate_set, records, qgram_similarity_function(),
            threshold=0.2, use_token_blocking=False, shards=3,
        )
        assert engine == "prefix"
        assert sharded.pairs == expected.pairs
        assert sharded.machine_scores == expected.machine_scores

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            build_candidate_set(recs("a", "b"), jaccard_similarity_function(),
                                shards=-1)

    def test_reference_engine_rejects_shards(self):
        # External candidate pairs route even a set metric to the scoring
        # loop, which has no shards to honor.
        with pytest.raises(ValueError, match="scoring loop"):
            build_candidate_set(recs("a", "b"), jaccard_similarity_function(),
                                candidate_pairs=[(0, 1)], shards=2)


class TestShardedJoinValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            shard.sharded_prefix_filtered_candidates(
                recs("a", "b"), set_of=lambda r: frozenset(),
                set_function=lambda a, b: 0.0, metric="levenshtein",
                threshold=0.3,
            )

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard.sharded_prefix_filtered_candidates(
                recs("a", "b"), threshold=0.3, num_shards=0,
                **join_args("jaccard"),
            )

    def test_threshold_equal_score_excluded(self):
        # Strict f > τ, as in the paper: jaccard({a,b},{b,c}) == 1/3.
        pairs, _ = shard.sharded_prefix_filtered_candidates(
            recs("a b", "b c"), threshold=1 / 3, num_shards=2,
            **join_args("jaccard"),
        )
        assert (0, 1) not in pairs


def test_reference_text_metric_never_routes_to_shards():
    # A plain text metric has no set metadata, so it runs the scoring loop
    # even when shards are requested... which has no shards to honor, so it
    # must raise instead of silently ignoring the knob.
    from repro.similarity.composite import SimilarityFunction

    similarity = SimilarityFunction("jaccard", token_jaccard)
    with pytest.raises(ValueError):
        build_candidate_set(recs("a b", "a c"), similarity, shards=2)


class TestRemovedKnobs:
    """The join has one verification kernel, so the ``kernel_backend``
    option is gone from every surface that used to thread it through."""

    @pytest.mark.parametrize("call", [
        lambda: build_candidate_set(recs("a b", "a c"),
                                    jaccard_similarity_function(),
                                    kernel_backend="scalar"),
        lambda: shard.sharded_prefix_filtered_candidates(
            recs("a b", "a c"), threshold=0.3, kernel_backend="scalar",
            **join_args("jaccard")),
        lambda: run_pipeline(None, records=recs("a b", "a c"),
                             similarity=jaccard_similarity_function(),
                             kernel_backend="scalar"),
        lambda: prepare_instance("restaurant", scale=0.05,
                                 kernel_backend="scalar"),
    ], ids=["build_candidate_set", "sharded_prefix_filtered_candidates",
            "run_pipeline", "prepare_instance"])
    def test_kernel_backend_argument_is_gone(self, call):
        with pytest.raises(TypeError, match="kernel_backend"):
            call()

    def test_kernel_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "restaurant", "--kernel-backend", "scalar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

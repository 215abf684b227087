"""Equivalence of the production pruning path with the reference loop.

The prefix-filtered join is an optimization, not an approximation: for
every supported configuration it must produce a
byte-identical :class:`CandidateSet` (same pairs, same float scores) as the
seed's enumerate-and-score loop (:func:`repro.reference.candidate_set`).
These tests pin that down on the three paper datasets, on randomized
synthetic records, and on the τ edge cases (score == τ excluded;
empty-token records).  Every production call that is meant to exercise the
join checks that its pruning span really reports ``engine="prefix"`` —
otherwise a routing change would quietly turn a check into
reference-vs-reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.datasets.registry import generate
from repro.datasets.schema import Record
from repro.pruning.candidate import _prefix_join_eligible, build_candidate_set
from repro.pruning.prefix_join import prefix_length
from repro.similarity.composite import (
    SimilarityFunction,
    cosine_set_similarity_function,
    dice_similarity_function,
    jaccard_similarity_function,
    overlap_similarity_function,
    qgram_similarity_function,
)
from repro.similarity.jaccard import token_jaccard
from tests.conftest import pruned_with

DATASETS = ("paper", "restaurant", "product")

SET_FACTORIES = (
    jaccard_similarity_function,
    cosine_set_similarity_function,
    dice_similarity_function,
    overlap_similarity_function,
)


def recs(*texts):
    return [Record(record_id=i, text=t) for i, t in enumerate(texts)]


def reference_similarity():
    """The seed's pruning metric: plain text Jaccard, no set metadata —
    guaranteed to take the reference engine's blocking + score loop."""
    return SimilarityFunction("jaccard", token_jaccard)


def joined(*args, **kwargs):
    """The production pruning path, asserted to have taken the join."""
    candidates, engine = pruned_with(build_candidate_set, *args, **kwargs)
    assert engine == "prefix"
    return candidates


def assert_identical(left, right):
    assert left.pairs == right.pairs
    assert left.machine_scores == right.machine_scores
    assert left.threshold == right.threshold


class TestPrefixJoinOnDatasets:
    """Acceptance criterion: identical CandidateSet on all three datasets."""

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_identical_to_seed_reference(self, dataset_name):
        records = generate(dataset_name, scale=0.15, seed=3).records
        expected = reference.candidate_set(records, reference_similarity(),
                                           threshold=0.3)
        assert_identical(expected, joined(
            records, jaccard_similarity_function(), threshold=0.3))

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_auto_selects_join_and_matches(self, dataset_name):
        records = generate(dataset_name, scale=0.1, seed=5).records
        auto = joined(records, jaccard_similarity_function())
        expected = reference.candidate_set(records, reference_similarity())
        assert_identical(expected, auto)


short_texts = st.lists(
    st.text(alphabet="abcdefg ", min_size=0, max_size=24),
    min_size=2, max_size=16,
)


class TestPrefixJoinRandomized:
    @settings(max_examples=60, deadline=None)
    @given(texts=short_texts,
           threshold=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1 / 3, 0.9]),
           factory_index=st.integers(min_value=0,
                                     max_value=len(SET_FACTORIES) - 1),
           blocking=st.booleans())
    def test_matches_reference_on_random_records(self, texts, threshold,
                                                 factory_index, blocking):
        records = recs(*texts)
        factory = SET_FACTORIES[factory_index]
        expected = reference.candidate_set(
            records, factory(), threshold=threshold,
            use_token_blocking=blocking,
        )
        assert_identical(expected, joined(
            records, factory(), threshold=threshold,
            use_token_blocking=blocking,
        ))

    @settings(max_examples=30, deadline=None)
    @given(texts=short_texts,
           threshold=st.sampled_from([0.0, 0.2, 0.5]))
    def test_qgram_join_matches_all_pairs_reference(self, texts, threshold):
        records = recs(*texts)
        expected = reference.candidate_set(
            records, qgram_similarity_function(), threshold=threshold,
            use_token_blocking=False,
        )
        assert_identical(expected, joined(
            records, qgram_similarity_function(), threshold=threshold,
            use_token_blocking=False,
        ))


class TestThresholdEdgeCases:
    def test_score_equal_to_threshold_excluded(self):
        # {a,b} vs {b,c}: jaccard exactly 1/3 — must be pruned at τ=1/3 by
        # both engines (the paper's condition is strict: f > τ).
        records = recs("a b", "b c")
        for build in (reference.candidate_set, joined):
            result = build(records, jaccard_similarity_function(),
                           threshold=1 / 3)
            assert (0, 1) not in result, build

    def test_empty_records_with_blocking(self):
        # Token blocking never pairs empty-token records; the join must not
        # re-introduce them.
        records = recs("", "", "a b")
        for build in (reference.candidate_set, joined):
            result = build(records, jaccard_similarity_function())
            assert (0, 1) not in result, build

    def test_empty_records_without_blocking(self):
        # All-pairs scoring gives two empty records jaccard 1.0 > τ; the
        # join must reproduce that too.
        records = recs("", "", "a b")
        expected = reference.candidate_set(
            records, jaccard_similarity_function(), use_token_blocking=False,
        )
        assert (0, 1) in expected and expected.machine_scores[(0, 1)] == 1.0
        assert_identical(expected, joined(
            records, jaccard_similarity_function(), use_token_blocking=False,
        ))

    def test_threshold_zero_keeps_any_overlap(self):
        records = recs("a b c d e f g", "g z")
        expected = reference.candidate_set(
            records, jaccard_similarity_function(), threshold=0.0)
        result = joined(records, jaccard_similarity_function(), threshold=0.0)
        assert (0, 1) in result
        assert_identical(expected, result)


def scored(*args, **kwargs):
    """The production pruning path, asserted to have run the scoring
    loop, and equal to the reference oracle on the same input."""
    candidates, engine = pruned_with(build_candidate_set, *args, **kwargs)
    assert engine == "reference"
    assert_identical(reference.candidate_set(*args, **kwargs), candidates)
    return candidates


class TestEngineSelection:
    """The join is taken exactly when :func:`_prefix_join_eligible` holds;
    every other input runs the scoring loop."""

    def test_prefix_engine_rejects_non_set_metric(self):
        assert not _prefix_join_eligible(reference_similarity(), None, True)
        scored(recs("a b", "a b"), reference_similarity())

    def test_prefix_engine_rejects_external_pairs(self):
        assert not _prefix_join_eligible(jaccard_similarity_function(),
                                         [(0, 1)], True)
        result = scored(recs("a", "a"), jaccard_similarity_function(),
                        candidate_pairs=[(0, 1)])
        assert result.pairs == ((0, 1),)

    def test_prefix_engine_rejects_qgram_under_token_blocking(self):
        # Token blocking's word-token domain doesn't match q-gram sets; the
        # scoring loop (blocking off or on) is the only faithful one.
        assert not _prefix_join_eligible(qgram_similarity_function(), None,
                                         True)
        assert _prefix_join_eligible(qgram_similarity_function(), None,
                                     False)
        scored(recs("ab", "cd", "abc"), qgram_similarity_function(),
               use_token_blocking=True)

    def test_unknown_engine_rejected(self):
        """The engine knob is gone: the input alone picks the path."""
        with pytest.raises(TypeError, match="engine"):
            build_candidate_set(recs("a", "b"), jaccard_similarity_function(),
                                engine="reference")

    def test_auto_falls_back_for_external_pairs(self):
        records = recs("a b", "a b", "a b")
        result = build_candidate_set(records, jaccard_similarity_function(),
                                     candidate_pairs=[(0, 1)])
        assert set(result.pairs) == {(0, 1)}


class TestPrefixLength:
    def test_jaccard_prefix_shrinks_with_threshold(self):
        assert prefix_length("jaccard", 0.0, 10) == 10
        assert prefix_length("jaccard", 0.9, 10) == 2
        assert prefix_length("overlap", 0.9, 10) == 10  # no bound

    def test_at_least_one_token_probed(self):
        assert prefix_length("jaccard", 0.99, 1) == 1


class TestDuplicatePairScoring:
    """External candidate_pairs streams may repeat pairs; every pair must be
    scored exactly once — including sub-threshold ones (seed bug)."""

    class CountingSimilarity(SimilarityFunction):
        def __init__(self, score):
            super().__init__("count", lambda a, b: score)
            self.calls = 0

        def __call__(self, record_a, record_b):
            self.calls += 1
            return super().__call__(record_a, record_b)

    def test_sub_threshold_duplicate_not_rescored(self):
        records = recs("x", "y")
        similarity = self.CountingSimilarity(0.1)  # below τ
        result = build_candidate_set(
            records, similarity, threshold=0.3,
            candidate_pairs=[(0, 1), (1, 0), (0, 1)],
        )
        assert similarity.calls == 1
        assert len(result) == 0

    def test_surviving_duplicate_emitted_once(self):
        records = recs("x", "y")
        similarity = self.CountingSimilarity(0.9)
        result = build_candidate_set(
            records, similarity, threshold=0.3,
            candidate_pairs=[(1, 0), (0, 1)],
        )
        assert similarity.calls == 1
        assert result.pairs == ((0, 1),)

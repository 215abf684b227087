"""Tests for repro.similarity.views (the shared record-view cache)."""

import pytest

from repro.core.acd import run_acd
from repro.crowd.cache import AnswerFile
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.datasets.schema import Record
from repro.experiments.configs import difficulty_model
from repro.pruning.candidate import build_candidate_set
from repro.similarity.composite import (
    cosine_set_similarity_function,
    jaccard_similarity_function,
    qgram_similarity_function,
    softtfidf_similarity_function,
)
from repro.similarity.jaccard import token_jaccard
from repro.similarity.softtfidf import SoftTfIdf
from repro.similarity.tokenize import qgrams, word_tokens
from repro.similarity.views import RecordView, RecordViewCache


def rec(i, text):
    return Record(record_id=i, text=text)


class TestRecordView:
    def test_of_matches_tokenizer(self):
        record = rec(0, "Golden Cafe, Golden Gate")
        view = RecordView.of(record)
        assert view.tokens == tuple(word_tokens(record.text))
        assert view.token_set == frozenset(word_tokens(record.text))

    def test_tokens_keep_multiplicity(self):
        view = RecordView.of(rec(0, "a a b"))
        assert view.tokens == ("a", "a", "b")
        assert view.token_set == frozenset({"a", "b"})

    def test_qgram_set_lazy_and_cached(self):
        view = RecordView.of(rec(0, "cafe"))
        assert view.qgram_set(3) == frozenset(qgrams("cafe", q=3))
        assert view.qgram_set(3) is view.qgram_set(3)
        assert view.qgram_set(2) == frozenset(qgrams("cafe", q=2))


class TestRecordViewCache:
    def test_view_computed_once(self):
        cache = RecordViewCache()
        record = rec(0, "golden cafe")
        assert cache.view(record) is cache.view(record)
        assert len(cache) == 1 and 0 in cache

    def test_conflicting_text_rejected(self):
        cache = RecordViewCache()
        cache.view(rec(0, "golden cafe"))
        with pytest.raises(ValueError):
            cache.view(rec(0, "silver spoon"))

    def test_get_by_id(self):
        cache = RecordViewCache([rec(0, "a"), rec(1, "b")])
        assert cache.get(1).token_set == frozenset({"b"})
        with pytest.raises(KeyError):
            cache.get(2)

    def test_token_lists(self):
        cache = RecordViewCache()
        records = [rec(0, "a b"), rec(1, "c")]
        assert cache.token_lists(records) == [("a", "b"), ("c",)]


class TestSharedViews:
    def test_factories_share_one_cache(self):
        """Metrics built on the same cache read the same view objects —
        each record is tokenized exactly once across all of them."""
        views = RecordViewCache()
        jaccard = jaccard_similarity_function(views=views)
        cosine = cosine_set_similarity_function(views=views)
        a, b = rec(0, "golden cafe"), rec(1, "golden grill")
        jaccard(a, b)
        cosine(a, b)
        qgram_similarity_function(views=views)(a, b)
        assert len(views) == 2  # two records, one view each

    def test_join_path_builds_no_views(self):
        """The prefix join reads each record's set once from its text;
        pruning and a whole ACD run from records leave the shared cache
        empty (pair scores come from the join's memo, not from views)."""
        dataset = generate("restaurant", scale=0.2, seed=0)
        shared = RecordViewCache()
        similarity = jaccard_similarity_function(views=shared)
        candidates = build_candidate_set(dataset.records, similarity)
        assert len(candidates) > 0
        assert len(shared) == 0
        crowd = WorkerPool(difficulty=difficulty_model("restaurant"))
        result = run_acd(answers=AnswerFile(dataset.gold, crowd), seed=0,
                         records=dataset.records,
                         similarity=jaccard_similarity_function(views=shared))
        assert result.candidates.pairs == candidates.pairs
        assert len(shared) == 0

    def test_view_backed_jaccard_matches_text_jaccard(self):
        records = [rec(0, "golden cafe"), rec(1, "golden grill"),
                   rec(2, ""), rec(3, "")]
        similarity = jaccard_similarity_function()
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                expected = token_jaccard(records[i].text, records[j].text)
                assert similarity(records[i], records[j]) == expected

    def test_softtfidf_record_path_matches_text_path(self):
        records = [rec(0, "golden gate cafe"), rec(1, "golden cafe"),
                   rec(2, "spoon silver")]
        views = RecordViewCache(records)
        scorer = SoftTfIdf.from_records(records, views=views)
        similarity = softtfidf_similarity_function(records, views=views)
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                via_records = similarity(records[i], records[j])
                via_text = scorer(records[i].text, records[j].text)
                assert via_records == pytest.approx(via_text)

"""Cached per-record token views shared by the token-based metrics.

The pair-scoring paths score tens of thousands of pairs; without a view
cache every ``similarity(a, b)`` call re-runs ``word_tokens`` on both raw
texts.  A :class:`RecordViewCache` tokenizes and normalizes each record
exactly once — Jaccard, TF-IDF cosine, Soft TF-IDF and Dice/overlap pair
scores all read the same cached token list / frozenset instead of
re-tokenizing per pair.  The prefix-filtered join reads each record
once, so it builds no views: it takes its sets from
``SimilarityFunction.set_of``, which tokenizes the text uncached.

Views are keyed by ``record_id``.  A cache belongs to one record set; mixing
records from different datasets (same id, different text) is a bug the cache
detects and reports rather than silently mis-scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.datasets.schema import Record
from repro.similarity.tokenize import qgrams, word_tokens


@dataclass
class RecordView:
    """Everything the token-based metrics need about one record, computed once.

    Attributes:
        record_id: The record's id (cache key).
        text: The raw text the view was computed from.
        tokens: Word tokens in document order (with multiplicity) — feeds
            TF-IDF term counts and Soft TF-IDF alignment.
        token_set: The deduplicated token frozenset — feeds Jaccard, Dice,
            overlap, set-cosine and the prefix-filtered join.
    """

    record_id: int
    text: str
    tokens: Tuple[str, ...]
    token_set: FrozenSet[str]
    _qgram_sets: Dict[int, FrozenSet[str]] = field(default_factory=dict,
                                                   repr=False)

    @staticmethod
    def of(record: Record) -> "RecordView":
        tokens = tuple(word_tokens(record.text))
        return RecordView(
            record_id=record.record_id,
            text=record.text,
            tokens=tokens,
            token_set=frozenset(tokens),
        )

    def qgram_set(self, q: int = 3) -> FrozenSet[str]:
        """Padded character q-gram set, computed lazily and cached per q."""
        cached = self._qgram_sets.get(q)
        if cached is None:
            cached = frozenset(qgrams(self.text, q=q))
            self._qgram_sets[q] = cached
        return cached


class RecordViewCache:
    """Lazy ``record_id -> RecordView`` cache (one per record set).

    >>> cache = RecordViewCache()
    >>> view = cache.view(Record(record_id=0, text="Golden Cafe"))
    >>> sorted(view.token_set)
    ['cafe', 'golden']
    """

    def __init__(self, records: Iterable[Record] = ()) -> None:
        self._views: Dict[int, RecordView] = {}
        for record in records:
            self.view(record)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._views

    def view(self, record: Record) -> RecordView:
        """The (possibly freshly computed) view of ``record``."""
        cached = self._views.get(record.record_id)
        if cached is not None:
            if cached.text != record.text:
                raise ValueError(
                    f"record id {record.record_id} seen with two different "
                    "texts; a RecordViewCache serves exactly one record set"
                )
            return cached
        fresh = RecordView.of(record)
        self._views[record.record_id] = fresh
        return fresh

    def get(self, record_id: int) -> RecordView:
        """Look up a view by id; raises ``KeyError`` if never populated."""
        return self._views[record_id]

    def tokens(self, record: Record) -> Tuple[str, ...]:
        """Cached word tokens (with multiplicity) of a record."""
        return self.view(record).tokens

    def token_set(self, record: Record) -> FrozenSet[str]:
        """Cached word-token frozenset of a record."""
        return self.view(record).token_set

    def qgram_set(self, record: Record, q: int = 3) -> FrozenSet[str]:
        """Cached padded q-gram frozenset of a record."""
        return self.view(record).qgram_set(q)

    def token_lists(self, records: Iterable[Record]) -> List[Tuple[str, ...]]:
        """Token lists for many records (e.g. to fit a TF-IDF vectorizer)."""
        return [self.tokens(record) for record in records]

"""Similarity function objects: the ``f`` of the paper (Section 2.1).

A :class:`SimilarityFunction` maps a pair of :class:`~repro.datasets.schema.Record`
objects to a score in [0, 1].  The pruning phase and several baselines are
parameterized over this interface, so swapping metrics is a one-liner.

Two layers of caching keep the pruning hot path fast:

* a per-pair memo (as in the seed implementation), and
* an optional per-record :class:`~repro.similarity.views.RecordViewCache`
  shared by all token-based metrics, so each record is tokenized exactly
  once instead of once per pair.

Set-overlap metrics additionally carry *set-metric metadata*
(:attr:`SimilarityFunction.set_metric` plus :meth:`SimilarityFunction.set_of`)
that lets the pruning engine route them through the prefix-filtered
similarity join instead of the emit-everything blocking + score loop.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.datasets.schema import Record, canonical_pair
from repro.similarity.hybrid import (
    dice_coefficient,
    ochiai_coefficient,
    overlap_coefficient,
    token_cosine,
    token_dice,
    token_overlap,
)
from repro.similarity.jaccard import jaccard, qgram_jaccard, token_jaccard
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.levenshtein import levenshtein_similarity
from repro.similarity.views import RecordViewCache

TextSimilarity = Callable[[str, str], float]
RecordSimilarity = Callable[[Record, Record], float]

#: Set metrics the prefix-filtered join understands, with their set function.
SET_METRIC_FUNCTIONS: Dict[str, Callable[[FrozenSet[str], FrozenSet[str]], float]] = {
    "jaccard": jaccard,
    "cosine": ochiai_coefficient,
    "dice": dice_coefficient,
    "overlap": overlap_coefficient,
}


class SimilarityFunction:
    """A named record-pair similarity with memoization.

    The cache matters: the pruning phase scores every candidate pair once,
    and the refinement phase's histogram estimator re-reads machine scores
    for the same pairs many times.

    Args:
        name: Metric name (diagnostics, dispatch).
        text_similarity: The raw ``(text, text) -> score`` metric.  Always
            kept — it is the reference implementation the fast paths are
            tested against.
        record_similarity: Optional ``(Record, Record) -> score`` fast path
            (e.g. view-cached set intersection); wins over
            ``text_similarity`` when present.
        set_metric: One of :data:`SET_METRIC_FUNCTIONS` when this function
            is a plain set-overlap metric the prefix join can accelerate;
            ``None`` otherwise.
        set_of: For set metrics, maps a record to the exact frozenset the
            metric compares (cached word tokens or q-grams).
        set_domain: What the compared sets contain — ``"word"`` for word
            tokens (the token-blocking domain) or e.g. ``"qgram3"``.  The
            pruning engine only substitutes the prefix join for token
            blocking when the domains agree.
    """

    def __init__(
        self,
        name: str,
        text_similarity: TextSimilarity,
        record_similarity: Optional[RecordSimilarity] = None,
        set_metric: Optional[str] = None,
        set_of: Optional[Callable[[Record], FrozenSet[str]]] = None,
        set_domain: Optional[str] = None,
    ):
        if set_metric is not None and set_metric not in SET_METRIC_FUNCTIONS:
            raise ValueError(f"unknown set metric {set_metric!r}")
        if set_metric is not None and set_of is None:
            raise ValueError("set_metric requires a set_of accessor")
        self.name = name
        self.set_metric = set_metric
        self.set_domain = set_domain if set_metric is not None else None
        self._set_of = set_of
        self._text_similarity = text_similarity
        self._record_similarity = record_similarity
        self._cache: Dict[Tuple[int, int], float] = {}

    def __call__(self, record_a: Record, record_b: Record) -> float:
        key = canonical_pair(record_a.record_id, record_b.record_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self._record_similarity is not None:
            score = self._record_similarity(record_a, record_b)
        else:
            score = self._text_similarity(record_a.text, record_b.text)
        score = min(1.0, max(0.0, score))
        self._cache[key] = score
        return score

    def set_of(self, record: Record) -> FrozenSet[str]:
        """The frozenset this (set-)metric compares for ``record``."""
        if self._set_of is None:
            raise ValueError(f"{self.name!r} is not a set metric")
        return self._set_of(record)

    def seed_cache(self, scores: Dict[Tuple[int, int], float]) -> None:
        """Prime the per-pair memo with externally computed scores
        (the fast-path engines feed their results back through this)."""
        self._cache.update(scores)

    def cache_size(self) -> int:
        return len(self._cache)


def _view_set_function(
    name: str,
    text_similarity: TextSimilarity,
    set_metric: str,
    views: Optional[RecordViewCache],
) -> SimilarityFunction:
    """A word-token set metric backed by a shared view cache."""
    cache = views if views is not None else RecordViewCache()
    set_function = SET_METRIC_FUNCTIONS[set_metric]

    def from_views(record_a: Record, record_b: Record) -> float:
        return set_function(cache.token_set(record_a), cache.token_set(record_b))

    return SimilarityFunction(
        name,
        text_similarity,
        record_similarity=from_views,
        set_metric=set_metric,
        set_of=cache.token_set,
        set_domain="word",
    )


def jaccard_similarity_function(
    views: Optional[RecordViewCache] = None,
) -> SimilarityFunction:
    """Word-token Jaccard — the paper's pruning-phase metric.

    Args:
        views: Shared record-view cache; a private one is created when
            omitted, so each record is still tokenized exactly once.
    """
    return _view_set_function("jaccard", token_jaccard, "jaccard", views)


def cosine_set_similarity_function(
    views: Optional[RecordViewCache] = None,
) -> SimilarityFunction:
    """Set cosine (Ochiai) over word tokens — prefix-join eligible."""
    return _view_set_function("cosine", token_cosine, "cosine", views)


def dice_similarity_function(
    views: Optional[RecordViewCache] = None,
) -> SimilarityFunction:
    """Sørensen-Dice over word tokens — prefix-join eligible."""
    return _view_set_function("dice", token_dice, "dice", views)


def overlap_similarity_function(
    views: Optional[RecordViewCache] = None,
) -> SimilarityFunction:
    """Overlap coefficient over word tokens.

    Join-eligible, but the overlap coefficient admits no prefix filter (a
    tiny partner set can satisfy any τ), so the join degrades to an indexed
    scan with exact verification.
    """
    return _view_set_function("overlap", token_overlap, "overlap", views)


def qgram_similarity_function(
    q: int = 3,
    views: Optional[RecordViewCache] = None,
) -> SimilarityFunction:
    """Character q-gram Jaccard (view-cached per record)."""
    cache = views if views is not None else RecordViewCache()

    def from_views(record_a: Record, record_b: Record) -> float:
        return jaccard(cache.qgram_set(record_a, q), cache.qgram_set(record_b, q))

    def set_of(record: Record) -> FrozenSet[str]:
        return cache.qgram_set(record, q)

    return SimilarityFunction(
        f"qgram{q}",
        lambda a, b: qgram_jaccard(a, b, q=q),
        record_similarity=from_views,
        set_metric="jaccard",
        set_of=set_of,
        set_domain=f"qgram{q}",
    )


def softtfidf_similarity_function(
    records: Sequence[Record],
    views: Optional[RecordViewCache] = None,
    theta: float = 0.9,
) -> SimilarityFunction:
    """Corpus-fitted Soft TF-IDF over a fixed record set.

    Tokenizes each record once through the shared view cache and reuses one
    TF-IDF vector per record across all pairs.  Not a plain set metric, so
    the pruning engine scores it through the pair loop rather than the
    prefix join.
    """
    from repro.similarity.softtfidf import SoftTfIdf

    scorer = SoftTfIdf.from_records(records, views=views, theta=theta)
    return SimilarityFunction(
        "softtfidf",
        scorer,
        record_similarity=scorer.record_similarity,
    )


def levenshtein_similarity_function() -> SimilarityFunction:
    """Normalized edit similarity."""
    return SimilarityFunction("levenshtein", levenshtein_similarity)


def jaro_winkler_similarity_function() -> SimilarityFunction:
    """Jaro-Winkler similarity."""
    return SimilarityFunction("jaro_winkler", jaro_winkler_similarity)


def weighted_similarity_function(
    components: Sequence[Tuple[TextSimilarity, float]],
    name: str = "weighted",
) -> SimilarityFunction:
    """Convex combination of text similarities.

    Args:
        components: ``(metric, weight)`` pairs; weights must be positive and
            are normalized to sum to one.
    """
    if not components:
        raise ValueError("weighted similarity needs at least one component")
    total = sum(weight for _, weight in components)
    if total <= 0:
        raise ValueError("component weights must sum to a positive number")
    normalized: List[Tuple[TextSimilarity, float]] = [
        (metric, weight / total) for metric, weight in components
    ]

    def combined(text_a: str, text_b: str) -> float:
        return sum(weight * metric(text_a, text_b) for metric, weight in normalized)

    return SimilarityFunction(name, combined)

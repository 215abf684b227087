"""Vectorized similarity kernels: batch set-metric scoring over int-id arrays.

The scalar set metrics (:func:`~repro.similarity.jaccard.jaccard` and
friends) compare two Python frozensets per call; at 100k-1M records the
per-pair interpreter overhead is the pruning phase's wall.  This module
provides the batch counterpart: one streaming encoder
(:meth:`EncodedRecords.encode`) reads each token set once, interns its
tokens into dense integer ranks, and makes every record a sorted
``int32`` array in one flat CSR store (:class:`EncodedRecords`); whole
blocks of candidate pairs are then scored with a handful of numpy
operations instead of one Python call each.  The prefix join
(:mod:`repro.pruning.shard`) verifies every candidate pair this way; the
scalar functions stay the reference these kernels are tested against.

Equivalence contract: for every supported metric the vectorized scores are
**bit-for-bit identical** to the scalar ones.  Intersection and set sizes
are exact integers; each batch formula performs the same IEEE-754 double
operations in the same order as its scalar twin (e.g. Jaccard divides the
exact intersection by the exact union — both integers below 2^53 — so both
paths produce the same correctly rounded quotient).  The empty-set
conventions also match: empty vs empty scores 1.0, empty vs non-empty 0.0.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence

import numpy as _np
import scipy.sparse as _sparse

#: Metrics with a batch implementation (the prefix-join family).
VECTORIZED_METRICS = ("jaccard", "cosine", "dice", "overlap")


def resolve_kernel_backend(backend: str) -> str:
    """The prefix join's verification kernel for ``backend``: always
    ``"vectorized"``.

    The join has one kernel, so nothing in the package calls this.  It
    stays importable because the repo benchmark (``perfbench/run.py``)
    records ``resolve_kernel_backend("auto")`` in its environment line.

    Raises:
        ValueError: For any name other than ``"auto"`` or
            ``"vectorized"``.
    """
    if backend not in ("auto", "vectorized"):
        raise ValueError(
            f"kernel backend must be 'auto' or 'vectorized', got {backend!r}"
        )
    return "vectorized"


class EncodedRecords:
    """A record population as one flat CSR token-rank store.

    Attributes:
        ids: ``int64[n]`` record ids, in row order (see :meth:`encode`).
        flat: ``int32[total]`` concatenated per-record rank arrays, each
            sorted ascending (canonical order).
        starts: ``int64[n]`` offset of each row's slice in ``flat``.
        counts: ``int64[n]`` per-row set sizes.
        vocab_size: Number of distinct tokens (key-packing modulus).
        incidence: The same store as a records x vocabulary 0/1
            ``scipy.sparse`` CSR matrix, built once here, so forked prune
            shards share it; it feeds :func:`batch_intersection_sizes`.
    """

    def __init__(self, ids, flat, starts, counts, vocab_size: int):
        self.ids = ids
        self.flat = flat
        self.starts = starts
        self.counts = counts
        self.vocab_size = int(vocab_size)
        # Column indices are ``flat`` itself: rows are stored sorted and
        # duplicate-free, so the matrix is already canonical.
        index_type = _np.int32 if len(flat) < 2**31 else _np.int64
        indptr = _np.zeros(len(counts) + 1, dtype=index_type)
        _np.cumsum(counts, out=indptr[1:])
        self.incidence = _sparse.csr_matrix(
            (_np.ones(len(flat), dtype=_np.int8),
             flat.astype(index_type, copy=False), indptr),
            shape=(len(counts), max(self.vocab_size, 1)),
        )

    def __len__(self) -> int:
        return len(self.ids)

    @staticmethod
    def encode(
        ids: Sequence[int],
        sets: Iterable[FrozenSet[str]],
        by_size: bool = False,
    ) -> "EncodedRecords":
        """Stream one token set per id straight into the rank store.

        Each set is read once, its tokens interned to first-seen ids in
        one flat array.  Ranks follow the canonical (df, token) order of
        :func:`repro.pruning.prefix_join.canonical_token_order`; one sort
        of packed ``row * vocab_size + rank`` keys lays out the rows and
        sorts each one.

        Args:
            ids: Record ids, one per set, all distinct.
            sets: Token sets in ``ids`` order (a generator is read once).
            by_size: Order rows by ``(set size, id)``, the join's
                processing order, instead of ``ids`` order.  Empty sets
                stay as empty rows either way.

        Raises:
            ValueError: If ``ids`` repeats an id.
        """
        ids = _np.asarray(ids, dtype=_np.int64)
        ordered = _np.sort(ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise ValueError(f"record id {int(repeated[0])} appears twice")
        first_seen, counts, tokens = _intern(sets)
        vocab_size = len(tokens)
        # Canonical rank of each first-seen id: document frequency first,
        # ties by the token's position in plain string order.
        lexical = _np.empty(vocab_size, dtype=_np.int64)
        lexical[sorted(range(vocab_size), key=tokens.__getitem__)] = \
            _np.arange(vocab_size, dtype=_np.int64)
        frequency = _np.bincount(first_seen, minlength=vocab_size)
        rank = _np.empty(vocab_size, dtype=_np.int64)
        rank[_np.lexsort((lexical, frequency))] = \
            _np.arange(vocab_size, dtype=_np.int64)

        if by_size:
            row_order = _np.lexsort((ids, counts))
        else:
            row_order = _np.arange(len(ids), dtype=_np.int64)
        position = _np.empty(len(ids), dtype=_np.int64)
        position[row_order] = _np.arange(len(ids), dtype=_np.int64)
        modulus = _np.int64(max(vocab_size, 1))
        keys = _np.repeat(position, counts) * modulus + rank[first_seen]
        keys.sort()
        counts = counts[row_order]
        starts = _np.cumsum(counts) - counts
        return EncodedRecords(
            ids=ids[row_order],
            flat=(keys % modulus).astype(_np.int32),
            starts=starts, counts=counts, vocab_size=vocab_size,
        )


def _intern(sets: Iterable[FrozenSet[str]]):
    """Read each set once: ``(first-seen token ids, set sizes, tokens)``,
    where ``tokens[i]`` is the token interned as id ``i``."""
    token_id: Dict[str, int] = {}
    intern = token_id.setdefault
    first_seen: List[int] = []
    sizes: List[int] = []
    for token_set in sets:
        sizes.append(len(token_set))
        first_seen.extend([intern(token, len(token_id))
                           for token in token_set])
    return (_np.array(first_seen, dtype=_np.int64),
            _np.array(sizes, dtype=_np.int64), list(token_id))


def batch_intersection_sizes(
    encoded: EncodedRecords,
    left_rows: "_np.ndarray",
    right_rows: "_np.ndarray",
) -> "_np.ndarray":
    """Exact ``|A ∩ B|`` for each row pair, as ``int64[npairs]``.

    A sparse row product: the element-wise product of the two rows of
    the 0/1 :attr:`EncodedRecords.incidence` matrix is 1 exactly on the
    shared tokens, so its row sum is the intersection size.
    """
    if len(left_rows) == 0:
        return _np.zeros(0, dtype=_np.int64)
    matrix = encoded.incidence
    shared = matrix[left_rows].multiply(matrix[right_rows]).sum(axis=1)
    return _np.asarray(shared, dtype=_np.int64).ravel()


def batch_set_scores(
    metric: str,
    intersections: "_np.ndarray",
    left_sizes: "_np.ndarray",
    right_sizes: "_np.ndarray",
) -> "_np.ndarray":
    """Batch twin of the scalar set metrics, bit-for-bit.

    Args:
        metric: One of :data:`VECTORIZED_METRICS`.
        intersections: Exact ``|A ∩ B|`` per pair.
        left_sizes: ``|A|`` per pair.
        right_sizes: ``|B|`` per pair.

    Returns:
        ``float64[npairs]`` scores, including the scalar empty-set
        conventions (1.0 for empty vs empty, 0.0 for empty vs non-empty).
    """
    if metric not in VECTORIZED_METRICS:
        raise ValueError(
            f"metric must be one of {VECTORIZED_METRICS}, got {metric!r}"
        )
    inter = intersections.astype(_np.float64)
    size_a = left_sizes.astype(_np.int64)
    size_b = right_sizes.astype(_np.int64)
    both_empty = (size_a == 0) & (size_b == 0)
    one_empty = ((size_a == 0) | (size_b == 0)) & ~both_empty
    # Guard the denominators so fully-empty pairs never divide by zero;
    # their scores are overwritten by the convention masks below.
    if metric == "jaccard":
        union = size_a + size_b - intersections
        scores = inter / _np.maximum(union, 1)
    elif metric == "cosine":
        # Scalar: intersection / (len_a * len_b) ** 0.5.  Both CPython's
        # float ** 0.5 and numpy's power call the platform's correctly
        # rounded pow/sqrt, so the doubles agree bit-for-bit.
        product = (size_a * size_b).astype(_np.float64)
        scores = inter / _np.power(_np.maximum(product, 1.0), 0.5)
    elif metric == "dice":
        scores = 2.0 * inter / _np.maximum(size_a + size_b, 1)
    else:  # overlap
        scores = inter / _np.maximum(_np.minimum(size_a, size_b), 1)
    scores[both_empty] = 1.0
    scores[one_empty] = 0.0
    return scores


def score_encoded_pairs(
    metric: str,
    encoded: EncodedRecords,
    left_rows: "_np.ndarray",
    right_rows: "_np.ndarray",
) -> "_np.ndarray":
    """Clamped batch scores for row pairs of one :class:`EncodedRecords`.

    The [0, 1] clamp mirrors the scalar verification loop's
    ``min(1.0, max(0.0, score))``; for these metrics it never changes a
    value (scores are already in range) so the clamp is equality-safe.
    """
    intersections = batch_intersection_sizes(encoded, left_rows, right_rows)
    scores = batch_set_scores(
        metric, intersections,
        encoded.counts[left_rows], encoded.counts[right_rows],
    )
    return _np.clip(scores, 0.0, 1.0)


def batch_text_scores(
    texts_a: Sequence[str],
    texts_b: Sequence[str],
    metric: str = "jaccard",
    domain: str = "word",
    q: int = 3,
) -> List[float]:
    """Batch-score aligned text pairs; the test-facing convenience API.

    Bit-for-bit equivalent to calling the scalar text metric per pair —
    ``token_jaccard`` (``metric="jaccard", domain="word"``),
    ``qgram_jaccard`` (``domain="qgram"``), ``token_cosine``
    (``metric="cosine"``), and so on.

    Args:
        texts_a: Left texts.
        texts_b: Right texts (same length).
        metric: One of :data:`VECTORIZED_METRICS`.
        domain: ``"word"`` (word tokens) or ``"qgram"`` (padded q-grams).
        q: Gram length for the q-gram domain.
    """
    if len(texts_a) != len(texts_b):
        raise ValueError(
            f"aligned text batches required: {len(texts_a)} vs {len(texts_b)}"
        )
    from repro.similarity.tokenize import qgram_set, token_set

    if domain == "word":
        set_of = token_set
    elif domain == "qgram":
        def set_of(text: str) -> FrozenSet[str]:
            return qgram_set(text, q=q)
    else:
        raise ValueError(f"domain must be 'word' or 'qgram', got {domain!r}")

    npairs = len(texts_a)
    encoded = EncodedRecords.encode(
        range(2 * npairs),
        (set_of(text) for pair in zip(texts_a, texts_b) for text in pair),
    )
    left = _np.arange(npairs, dtype=_np.int64) * 2
    right = left + 1
    intersections = batch_intersection_sizes(encoded, left, right)
    scores = batch_set_scores(
        metric, intersections, encoded.counts[left], encoded.counts[right]
    )
    return [float(score) for score in scores]

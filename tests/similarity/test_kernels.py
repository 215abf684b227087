"""Vectorized kernel equivalence: numpy batch scores vs scalar metrics.

The vectorized backend is an optimization, not an approximation — for the
four set metrics it must be *bit-for-bit* equal to the scalar functions
(``token_jaccard``, ``qgram_jaccard``, ``token_cosine``, ...), including
the empty-set conventions and [0, 1] clamping.  These tests pin that down
with hypothesis on random and adversarial inputs (empty fields, unicode,
duplicate tokens) and check the streaming encoder reproduces the scalar
join's canonical token order exactly.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pruning.prefix_join import canonical_token_order
from repro.similarity.hybrid import token_cosine, token_dice, token_overlap
from repro.similarity.jaccard import qgram_jaccard, token_jaccard
from repro.similarity.kernels import (
    EncodedRecords,
    batch_intersection_sizes,
    batch_text_scores,
    resolve_kernel_backend,
)
from repro.similarity.tokenize import qgram_set, token_set

# Random text: lowercase words plus unicode (accents, CJK) and repeats.
words = st.text(alphabet=string.ascii_lowercase + " ", max_size=40)
unicode_words = st.text(
    alphabet=string.ascii_lowercase + " éüßñ東京",
    max_size=40,
)

SCALAR_TEXT_METRICS = {
    "jaccard": token_jaccard,
    "cosine": token_cosine,
    "dice": token_dice,
    "overlap": token_overlap,
}

ADVERSARIAL = [
    "",                        # empty field
    " ",                       # whitespace-only (empty token set)
    "a",
    "a a a a",                 # duplicate tokens collapse to one
    "the the quick quick brown",
    "café crème brûlée",       # unicode accents
    "東京 大阪 café",            # CJK + accents
    "x" * 60,                  # one long token
    "a b c d e f g h i j k l m n o p",
]


@pytest.mark.parametrize("metric", sorted(SCALAR_TEXT_METRICS))
def test_adversarial_pairs_bit_identical(metric):
    scalar = SCALAR_TEXT_METRICS[metric]
    pairs = [(a, b) for a in ADVERSARIAL for b in ADVERSARIAL]
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    batch = batch_text_scores(lefts, rights, metric=metric, domain="word")
    for (a, b), got in zip(pairs, batch):
        want = min(1.0, max(0.0, scalar(a, b)))
        assert got == want and repr(got) == repr(want), (metric, a, b)


@given(st.lists(st.tuples(words, words), min_size=1, max_size=20))
@settings(max_examples=100)
def test_word_jaccard_bit_identical(pairs):
    batch = batch_text_scores([a for a, _ in pairs], [b for _, b in pairs],
                              metric="jaccard", domain="word")
    for (a, b), got in zip(pairs, batch):
        assert got == token_jaccard(a, b)


@given(st.lists(st.tuples(unicode_words, unicode_words),
                min_size=1, max_size=12))
@settings(max_examples=60)
def test_unicode_all_metrics_bit_identical(pairs):
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    for metric, scalar in SCALAR_TEXT_METRICS.items():
        batch = batch_text_scores(lefts, rights, metric=metric, domain="word")
        for (a, b), got in zip(pairs, batch):
            want = min(1.0, max(0.0, scalar(a, b)))
            assert got == want, (metric, a, b)


@given(st.lists(st.tuples(words, words), min_size=1, max_size=12))
@settings(max_examples=60)
def test_qgram_jaccard_bit_identical(pairs):
    batch = batch_text_scores([a for a, _ in pairs], [b for _, b in pairs],
                              metric="jaccard", domain="qgram", q=3)
    for (a, b), got in zip(pairs, batch):
        assert got == qgram_jaccard(a, b, q=3)


def _texts_to_sets(texts, domain):
    if domain == "word":
        return [token_set(text) for text in texts]
    return [qgram_set(text, q=3) for text in texts]


@pytest.mark.parametrize("by_size", [False, True])
@pytest.mark.parametrize("domain", ["word", "qgram"])
@given(texts=st.lists(unicode_words, max_size=25))
@settings(max_examples=60)
def test_encoder_ranks_follow_canonical_token_order(texts, domain, by_size):
    """Ranks are the canonical (df, token) order, and every row decodes
    to its set sorted in that order; empty sets stay empty rows.  The
    q-gram domain carries the ``\x01`` pad in its boundary grams."""
    sets = _texts_to_sets(texts, domain)
    # Descending ids: the (size, id) order must re-sort ties.
    ids = [1000 - 7 * index for index in range(len(sets))]
    encoded = EncodedRecords.encode(ids, iter(sets), by_size=by_size)
    order = canonical_token_order(sets)
    tokens = sorted(order, key=order.__getitem__)
    assert encoded.vocab_size == len(tokens)
    set_of_id = dict(zip(ids, sets))
    if by_size:
        expected_ids = sorted(ids, key=lambda rid: (len(set_of_id[rid]), rid))
    else:
        expected_ids = ids
    assert encoded.ids.tolist() == expected_ids
    assert encoded.flat.dtype == np.int32
    for row, record_id in enumerate(expected_ids):
        start = int(encoded.starts[row])
        count = int(encoded.counts[row])
        decoded = [tokens[rank]
                   for rank in encoded.flat[start:start + count].tolist()]
        assert decoded == sorted(set_of_id[record_id], key=order.__getitem__)


def test_encoder_rejects_a_repeated_id():
    sets = [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]
    with pytest.raises(ValueError, match="record id 5 "):
        EncodedRecords.encode([5, 2, 5], sets)


token_sets = st.frozensets(st.sampled_from("abcdefghij"), max_size=8)


@given(st.lists(token_sets, min_size=1, max_size=12), st.data())
@settings(max_examples=80)
def test_intersection_sizes_match_set_intersection(sets, data):
    """The sparse row product counts ``len(a & b)`` exactly, empty rows
    (and empty-vs-empty pairs) included."""
    records = dict(enumerate(sets))
    records[len(sets)] = frozenset()  # always at least one empty row
    encoded = EncodedRecords.encode(list(records), records.values())
    rows = st.integers(0, len(records) - 1)
    pairs = data.draw(st.lists(st.tuples(rows, rows), max_size=30))
    left = np.array([a for a, _ in pairs], dtype=np.int64)
    right = np.array([b for _, b in pairs], dtype=np.int64)
    sizes = batch_intersection_sizes(encoded, left, right)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [len(records[a] & records[b])
                              for a, b in pairs]


def test_intersection_sizes_exceed_the_incidence_dtype():
    """The 0/1 incidence entries are int8; their row sums must not be."""
    records = {0: frozenset(map(str, range(300))),
               1: frozenset(map(str, range(100, 400)))}
    encoded = EncodedRecords.encode([0, 1], records.values())
    sizes = batch_intersection_sizes(encoded, np.array([0, 0]),
                                     np.array([1, 0]))
    assert sizes.tolist() == [200, 300]


def test_resolve_backend():
    # Kept only for the repo benchmark's environment line: one kernel.
    assert resolve_kernel_backend("auto") == "vectorized"
    assert resolve_kernel_backend("vectorized") == "vectorized"
    for retired in ("scalar", "simd"):
        with pytest.raises(ValueError):
            resolve_kernel_backend(retired)


def test_batch_text_scores_validates():
    with pytest.raises(ValueError, match="aligned"):
        batch_text_scores(["a"], [])
    with pytest.raises(ValueError, match="metric"):
        batch_text_scores(["a"], ["b"], metric="euclid")
    with pytest.raises(ValueError, match="domain"):
        batch_text_scores(["a"], ["b"], domain="chars")

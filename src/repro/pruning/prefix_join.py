"""Filter algebra of the length- and prefix-filtered set-similarity join.

For a τ-thresholded set metric the classic prefix-filter family
(Chaudhuri et al. 2006; Bayardo et al. 2007; Xiao et al. 2008) proves that
a pair can pass the threshold only if the two records share a token inside
a short *prefix* of their canonically ordered token lists, and only if
their set sizes are compatible.  This module holds the bounds that rule
rests on, for the four plain set-overlap metrics the library ships
(Jaccard, set cosine/Ochiai, Dice, overlap coefficient):
:func:`canonical_token_order`, :func:`prefix_length` and
:func:`partner_size_need`, each relaxed by :data:`EPS` in the safe
direction so a borderline pair is verified rather than wrongly filtered.

The join that applies them is :mod:`repro.pruning.shard` (interned int-id
arrays, blocking-key shards, numpy batch verification).  Its
one-record-at-a-time frozenset reading,
:func:`repro.reference.prefix_filtered_candidates`, uses the same bounds
and is kept as the test oracle the shard identity suite compares against.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, FrozenSet, Sequence, Tuple

#: Float-safety slack: all generation bounds are relaxed by this much, so a
#: borderline pair is verified (cheap) rather than wrongly filtered.
EPS = 1e-9

#: Metrics with real prefix/length filters.  The overlap coefficient is
#: join-able but admits no prefix shortening (a one-token partner can satisfy
#: any τ), so it degrades to a full-index scan with exact verification.
PREFIX_METRICS = ("jaccard", "cosine", "dice", "overlap")


def partner_size_need(metric: str, threshold: float, size: int) -> float:
    """Lower bound on an eligible partner's set size (partner must be
    strictly larger than this in exact arithmetic) — and, by the same
    formula, on the overlap any τ-passing partner must share with a record
    of ``size`` tokens (minimized over all eligible partner sizes).

    Derivations (strict score > τ throughout):
      jaccard: i > τ(l_a+l_b)/(1+τ) >= τ·l   (partner no smaller than τ·l)
      cosine:  i > τ·sqrt(l_a·l_b)   >= τ²·l
      dice:    i > τ(l_a+l_b)/2      >= τ/(2-τ)·l
      overlap: i > τ·min(l_a,l_b)    >= τ·1   (no useful bound)
    """
    if metric == "jaccard":
        return threshold * size
    if metric == "cosine":
        return threshold * threshold * size
    if metric == "dice":
        return threshold / (2.0 - threshold) * size
    if metric == "overlap":
        return 0.0
    raise ValueError(f"unknown prefix-join metric {metric!r}")


def prefix_length(metric: str, threshold: float, size: int) -> int:
    """Number of leading (canonically ordered) tokens that must be indexed
    so that no τ-passing pair is missed.  Always in [1, size] for size >= 1.
    """
    if size == 0:
        return 0
    # Smallest integer overlap strictly above the bound; the epsilon only
    # ever lengthens the prefix (safe direction).
    required = math.floor(partner_size_need(metric, threshold, size) - EPS) + 1
    return max(1, min(size, size - required + 1))


def canonical_token_order(
    sets: Sequence[FrozenSet[str]],
) -> Dict[str, Tuple[int, str]]:
    """A global total order over tokens: ascending document frequency, ties
    broken lexicographically.  Rare-first ordering keeps prefixes selective
    and posting lists short."""
    frequency: Counter = Counter()
    for token_set in sets:
        frequency.update(token_set)
    return {token: (count, token) for token, count in frequency.items()}

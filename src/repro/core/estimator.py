"""Equi-depth histogram mapping machine scores to estimated crowd scores.

Section 5.2: when an operation's benefit needs ``f_c`` values that have not
been crowdsourced, ACD estimates them from the machine score ``f`` via an
equi-depth histogram built over the already-crowdsourced pairs ``A``
(following Whang et al. [48]; the paper uses m = 20 buckets).  Each bucket
covers an equal number of observed pairs; a query score falls into one bucket
and is estimated as that bucket's mean observed crowd score.  The histogram
is rebuilt whenever new pairs are crowdsourced.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

DEFAULT_NUM_BUCKETS = 20

Pair = Tuple[int, int]

#: Projects an ``(f, f_c)`` observation to its crowd score at C speed.
_crowd_score = itemgetter(1)


class HistogramEstimator:
    """Equi-depth ``f -> f_c`` estimator over observed (f, f_c) samples."""

    def __init__(self, num_buckets: int = DEFAULT_NUM_BUCKETS):
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = num_buckets
        self._samples: Dict[Pair, Tuple[float, float]] = {}
        self._upper_bounds: List[float] = []
        self._bucket_means: List[float] = []
        self._merged_counts: List[int] = []
        self._dirty = True
        self._epoch = 0
        # Sorted-snapshot bookkeeping: ``_sorted_obs`` is the observation
        # list as of the last rebuild and ``_fresh`` holds samples added
        # since, keyed by pair so an overwrite of a *snapshotted* pair
        # can be detected and the snapshot discarded.  A rebuild then
        # merges the snapshot with the (few) fresh samples instead of
        # re-sorting the full set — PC-Refine leans on this, rebuilding
        # after every crowd round.
        self._sorted_obs: Optional[List[Tuple[float, float]]] = None
        self._fresh: Dict[Pair, Tuple[float, float]] = {}

    @property
    def epoch(self) -> int:
        """Monotone counter bumped by every sample ingestion.

        Incremental consumers (:class:`~repro.core.evaluation_cache.
        EvaluationCache`) compare epochs to learn that the histogram *may*
        have changed, then diff per-score estimates to find out what
        actually did.
        """
        return self._epoch

    def __len__(self) -> int:
        return len(self._samples)

    def add_sample(self, pair: Pair, machine_score: float,
                   crowd_score: float) -> None:
        """Record one crowdsourced pair; marks the histogram for rebuild.

        Re-adding the same pair overwrites its previous sample (idempotent
        with respect to replayed answers).
        """
        sample = (machine_score, crowd_score)
        if self._sorted_obs is not None:
            if pair in self._fresh:
                self._fresh[pair] = sample
            elif pair in self._samples:
                # Overwrites a snapshotted sample — the snapshot no
                # longer reflects the live set, so fall back to a full
                # re-sort on the next rebuild.
                self._sorted_obs = None
                self._fresh.clear()
            else:
                self._fresh[pair] = sample
        self._samples[pair] = sample
        self._dirty = True
        self._epoch += 1

    def add_samples(self, samples: Dict[Pair, Tuple[float, float]]) -> None:
        """Bulk :meth:`add_sample`."""
        self._sorted_obs = None
        self._fresh.clear()
        self._samples.update(samples)
        self._dirty = True
        self._epoch += 1

    def _rebuild(self) -> None:
        if self._sorted_obs is not None:
            # Splice the few samples added since the snapshot into a copy
            # of the (already sorted) snapshot — same multiset as sorting
            # ``_samples.values()`` from scratch (overwrites of
            # snapshotted pairs discard the snapshot in
            # :meth:`add_sample`), and equal tuples are interchangeable,
            # so the buckets come out identical.  ``list`` + ``insort``
            # run at C speed, so this costs O(S + k·log S) with a tiny
            # constant versus the O(S·log S) full sort.
            observations = list(self._sorted_obs)
            for sample in self._fresh.values():
                bisect.insort(observations, sample)
        else:
            observations = sorted(self._samples.values())
        self._sorted_obs = observations
        self._fresh = {}
        self._upper_bounds = []
        self._bucket_means = []
        self._merged_counts = []
        if not observations:
            self._dirty = False
            return
        buckets = min(self.num_buckets, len(observations))
        size = len(observations) / buckets
        start = 0
        for index in range(buckets):
            end = len(observations) if index == buckets - 1 else round((index + 1) * size)
            chunk = observations[start:end]
            if not chunk:
                continue
            upper = chunk[-1][0]
            if self._upper_bounds and self._upper_bounds[-1] == upper:
                # Equi-depth cuts can land inside a run of equal machine
                # scores, producing two buckets with the same upper bound.
                # bisect_left can only ever select the first of those, so
                # the second would be dead weight *and* its samples lost to
                # queries at exactly that score — fold the chunk into the
                # previous bucket (weighted mean) instead.
                merged = self._merged_counts[-1] + len(chunk)
                # sum(map(...)) adds the same floats in the same order as
                # the obvious genexpr — bit-identical means, C-speed walk.
                self._bucket_means[-1] = (
                    self._bucket_means[-1] * self._merged_counts[-1]
                    + sum(map(_crowd_score, chunk))
                ) / merged
                self._merged_counts[-1] = merged
            else:
                self._upper_bounds.append(upper)
                self._bucket_means.append(
                    sum(map(_crowd_score, chunk)) / len(chunk)
                )
                self._merged_counts.append(len(chunk))
            start = end
        self._dirty = False

    def estimate(self, machine_score: float) -> float:
        """Estimated crowd score for a pair with the given machine score.

        Bucket semantics (the ``bisect_left`` contract, made explicit):
        bucket ``i`` covers machine scores in ``(bounds[i-1], bounds[i]]``
        — a score exactly equal to a bucket's upper bound belongs to that
        bucket, because ``bisect_left`` returns the index of the first
        bound ``>= machine_score``.  Scores above the last bound clamp to
        the last bucket; scores at or below the first bound fall in bucket
        0.  Upper bounds are strictly increasing (``_rebuild`` merges
        chunks sharing a bound), so every bucket is reachable.

        With no samples yet, falls back to the machine score itself (the
        "straightforward solution" the paper improves upon); this only
        happens before the generation phase has crowdsourced anything.
        """
        if self._dirty:
            self._rebuild()
        if not self._bucket_means:
            return min(1.0, max(0.0, machine_score))
        index = bisect.bisect_left(self._upper_bounds, machine_score)
        if index >= len(self._bucket_means):
            index = len(self._bucket_means) - 1
        return self._bucket_means[index]

    def bucket_table(self) -> List[Tuple[float, float]]:
        """(upper_bound, mean_crowd_score) per bucket — for inspection."""
        if self._dirty:
            self._rebuild()
        return list(zip(self._upper_bounds, self._bucket_means))

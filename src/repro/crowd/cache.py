"""The crowd answer file ``F``.

Section 6.1 of the paper: *"we post all record pairs in the candidate set S
to AMT, and record the crowd's answers in a local file F. Then, during our
experiments, whenever a method requests to crowdsource a record pair, we
retrieve the answers for the pair from F ... This ensures that all methods
utilize the same set of crowdsourced results."*

:class:`AnswerFile` is the simulated equivalent: lazily generated, memoized
per-pair crowd confidences backed by a :class:`~repro.crowd.worker.WorkerPool`
and the gold standard.  One :class:`AnswerFile` is shared by all methods in a
comparison so they see byte-identical answers.

It is also the one memo behind every answer source in this package: a
source that votes differently (escalated panels, named workers, the
platform simulator, a scripted table) subclasses it and overrides only
:meth:`AnswerFile._vote`, the per-pair hook the memo calls on first use.
Sources that *wrap* another source extend :class:`AnswerWrapper`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.datasets.schema import GoldStandard, canonical_pair
from repro.crowd.worker import WorkerPool

Pair = Tuple[int, int]

#: A degradation fallback: per-pair machine confidence, as a mapping or a
#: callable (e.g. ``candidates.score`` wrapped over a pair).
Fallback = Union[Mapping[Pair, float], Callable[[Pair], float]]


class AnswerFile:
    """Replayable per-pair crowd answers, generated once and memoized.

    Subclasses change how a pair is answered by overriding :meth:`_vote`;
    everything else (the memo, ``majority_duplicate``, ``prefetch``,
    ``prime``, ``len`` and ``majority_error_rate``) is shared.
    """

    #: Each pair's answer is a pure function of the pair (the worker pool
    #: votes through a pair-seeded RNG), so forked processes resolve the
    #: same pairs to the same confidences — the property the sharded
    #: pivot engine requires of its oracle.  Subclasses that keep
    #: per-pair audit state declare ``False``: the engine primes the
    #: parent's memo with worker answers (:meth:`prime` skips
    #: :meth:`_vote`), so that state would silently miss those pairs.
    pair_deterministic = True

    #: Ground truth, for :meth:`majority_error_rate`; ``None`` on sources
    #: that never see it.
    _gold: Optional[GoldStandard] = None

    def __init__(self, gold: GoldStandard, workers: WorkerPool):
        self._gold = gold
        self._workers = workers
        self.num_workers = workers.num_workers
        self._answers: Dict[Pair, float] = {}

    def _vote(self, pair: Pair) -> float:
        """The crowd confidence for a canonical pair not yet in the memo."""
        return self._workers.confidence(pair[0], pair[1],
                                        self._gold.is_duplicate(*pair))

    def __len__(self) -> int:
        return len(self._answers)

    def confidence(self, record_a: int, record_b: int) -> float:
        """The crowd confidence ``f_c`` for one pair (generated on first use)."""
        pair = canonical_pair(record_a, record_b)
        cached = self._answers.get(pair)
        if cached is None:
            cached = self._answers[pair] = self._vote(pair)
        return cached

    def confidence_batch(self, pairs: Sequence[Pair]) -> Dict[Pair, float]:
        """Confidences for many pairs, keyed by canonical pair."""
        return {canonical_pair(*pair): self.confidence(*pair)
                for pair in pairs}

    def majority_duplicate(self, record_a: int, record_b: int) -> bool:
        """Majority-vote verdict for a pair (``f_c > 0.5``)."""
        return self.confidence(record_a, record_b) > 0.5

    def prefetch(self, pairs: Iterable[Pair]) -> None:
        """Materialize answers for many pairs (e.g. the whole candidate set)."""
        self.confidence_batch(list(pairs))

    def prime(self, answers: Mapping[Pair, float]) -> None:
        """Warm the memo with answers already computed elsewhere.

        First write wins, exactly like :meth:`confidence` — and because
        answers are pair-deterministic, a primed value is the value the
        pool would have generated, so priming never changes any result,
        only skips regeneration (the sharded pivot engine primes the
        parent's file with the confidences its workers computed).
        """
        for raw, confidence in answers.items():
            self._answers.setdefault(canonical_pair(*raw), confidence)

    def majority_error_rate(self, pairs: Iterable[Pair]) -> float:
        """Fraction of pairs whose majority vote disagrees with the gold truth.

        This regenerates Table 3's "crowd error rate" column.
        """
        total = 0
        wrong = 0
        for a, b in pairs:
            total += 1
            if self.majority_duplicate(a, b) != self._gold.is_duplicate(a, b):
                wrong += 1
        return wrong / total if total else 0.0


class ScriptedAnswers(AnswerFile):
    """Explicitly scripted crowd answers.

    Serves hand-written per-pair confidences — the form the paper's worked
    examples (Figures 2-4 and 9, Appendix B) come in — and any fixed
    pair -> confidence table, such as a loaded answer file or Dawid-Skene
    posteriors.  Used by tests and pedagogic examples where the exact
    ``f_c`` of every edge matters.
    """

    def __init__(self, confidences: Mapping[Pair, float],
                 num_workers: int = 1,
                 default: Optional[float] = None):
        """Args:
        confidences: Mapping from record pair to crowd confidence.
        num_workers: Reported worker count (for cost accounting).
        default: Confidence served for unscripted pairs; ``None`` makes
            an unscripted query an error, which is usually what a test
            wants.
        """
        self.num_workers = num_workers
        self._answers = {}
        for raw, confidence in confidences.items():
            if not 0.0 <= confidence <= 1.0:
                raise ValueError(
                    f"confidence for {raw} must be in [0, 1], got {confidence}"
                )
            self._answers[canonical_pair(*raw)] = confidence
        self._default = default

    def _vote(self, pair: Pair) -> float:
        if self._default is None:
            raise KeyError(f"no scripted answer for pair {pair}")
        return self._default


def as_fallback(fallback: Optional[Fallback]) -> Optional[Callable[[Pair], float]]:
    """A fallback mapping or callable as a callable (``None`` stays)."""
    if fallback is None or callable(fallback):
        return fallback
    return fallback.__getitem__


def fallback_confidence(fallback: Callable[[Pair], float], pair: Pair) -> float:
    """The machine confidence ``fallback(pair)``, checked to lie in [0, 1]."""
    value = float(fallback(pair))
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"fallback confidence for {pair} must be in [0, 1], got {value}"
        )
    return value


class AnswerWrapper:
    """Base for answer sources that wrap another source.

    Forwards the answer-source contract — ``num_workers``,
    ``pair_deterministic``, ``confidence`` and ``prime`` — to the wrapped
    source; a wrapper overrides only what it changes.
    """

    def __init__(self, inner):
        self._inner = inner

    @property
    def num_workers(self) -> int:
        return self._inner.num_workers

    @property
    def pair_deterministic(self) -> bool:
        """Exactly the wrapped source's property."""
        return bool(getattr(self._inner, "pair_deterministic", False))

    def confidence(self, record_a: int, record_b: int) -> float:
        return self._inner.confidence(record_a, record_b)

    def prime(self, answers: Mapping[Pair, float]) -> None:
        """Warm the wrapped source's memo, when it has one."""
        prime = getattr(self._inner, "prime", None)
        if prime is not None:
            prime(answers)


class FallbackAnswers(AnswerWrapper):
    """A primary answer source with a machine-score degradation fallback.

    Serves the primary's answer when it has one; when the primary raises
    :class:`KeyError` (a :class:`ScriptedAnswers` without default, or any
    source refusing a pair), serves ``fallback(pair)`` instead and flags
    the pair as *degraded*.  This is the crowd-free counterpart of the
    platform's repost-budget fallback: the pipeline always terminates,
    and the caller can see exactly which answers were machine-sourced.
    """

    #: The degraded set is per process: a forked copy's fallbacks would
    #: never reach the parent's.
    pair_deterministic = False

    def __init__(self, primary, fallback: Fallback):
        """Args:
        primary: Any answer source with ``confidence(a, b)``.
        fallback: Pair -> machine confidence, as a mapping or callable.
        """
        super().__init__(primary)
        self._fallback = as_fallback(fallback)
        self._degraded: Set[Pair] = set()

    def confidence(self, record_a: int, record_b: int) -> float:
        try:
            return self._inner.confidence(record_a, record_b)
        except KeyError:
            pair = canonical_pair(record_a, record_b)
            value = fallback_confidence(self._fallback, pair)
            self._degraded.add(pair)
            return value

    def degraded_pairs(self) -> Set[Pair]:
        """Pairs served from the fallback so far (a copy)."""
        return set(self._degraded)

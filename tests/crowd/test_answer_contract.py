"""The answer-source contract, checked on every source and wrapper.

Every source in :mod:`repro.crowd` is an :class:`AnswerFile` (one memo,
one ``_vote`` hook per subclass) and every wrapper an
:class:`AnswerWrapper`; these tests pin the behaviour they all share, so
a subclass that re-implements part of the shell, or forgets to declare
itself non-pair-deterministic, fails here.
"""

import pytest

from repro.core.generation import require_pair_deterministic
from repro.crowd.adaptive import AdaptiveAnswerFile
from repro.crowd.cache import (
    AnswerFile,
    AnswerWrapper,
    FallbackAnswers,
    ScriptedAnswers,
)
from repro.crowd.latency import SimulatedLatencyAnswers
from repro.crowd.persistence import JournalingAnswerFile
from repro.crowd.platform import PlatformAnswerFile, PlatformSimulator
from repro.crowd.worker import DifficultyModel, WorkerPool
from repro.crowd.workforce import Workforce, WorkforceAnswerFile
from repro.datasets.schema import GoldStandard
from repro.experiments.chaos import _CountingAnswers

GOLD = GoldStandard({record: record // 2 for record in range(40)})
PAIRS = [(1, 0), (2, 3), (5, 4), (0, 2), (7, 6), (9, 11)]
CANONICAL = {(min(pair), max(pair)) for pair in PAIRS}
#: A pair no source below has answered before the ``prime`` check.
PRIMED_PAIR = (30, 31)


def _difficulty():
    return DifficultyModel(easy_error=0.2, hard_fraction=0.3, seed=4)


def _answer_file():
    return AnswerFile(GOLD, WorkerPool(_difficulty(), num_workers=3))


def _scripted():
    return ScriptedAnswers({pair: (sum(pair) % 5) / 4 for pair in PAIRS},
                           num_workers=3, default=0.25)


def _platform():
    platform = PlatformSimulator(
        Workforce(size=30, seed=5), GOLD, _difficulty(),
        pairs_per_hit=4, assignments_per_hit=3, concurrent_workers=10,
        seed=9,
    )
    return PlatformAnswerFile(platform)


SOURCES = {
    "answer-file": _answer_file,
    "scripted": _scripted,
    "adaptive": lambda: AdaptiveAnswerFile(
        GOLD, WorkerPool(_difficulty(), num_workers=3)),
    "workforce": lambda: WorkforceAnswerFile(
        GOLD, Workforce(size=30, seed=5), _difficulty(), panel_size=3),
    "platform": _platform,
}

#: Wrapper name -> (wrap an inner source, given a scratch directory).
WRAPPERS = {
    "journaling": lambda inner, tmp: JournalingAnswerFile(
        inner, tmp / "answers.wal"),
    "latency": lambda inner, tmp: SimulatedLatencyAnswers(inner, 0.0),
    "latency-fork": lambda inner, tmp: SimulatedLatencyAnswers(
        inner, 0.0).fork_source,
    "fallback": lambda inner, tmp: FallbackAnswers(inner, lambda pair: 0.5),
    "counting": lambda inner, tmp: _CountingAnswers(inner),
}


@pytest.fixture(params=sorted(SOURCES))
def source(request):
    return SOURCES[request.param]()


@pytest.fixture(params=sorted(WRAPPERS))
def wrapper_factory(request, tmp_path):
    made = []

    def wrap(inner):
        wrapper = WRAPPERS[request.param](inner, tmp_path)
        made.append(wrapper)
        return wrapper

    yield wrap
    for wrapper in made:
        close = getattr(wrapper, "close", None)
        if close is not None:
            close()


def _answers_in_both_orders_twice(answers):
    for a, b in PAIRS:
        first = answers.confidence(a, b)
        assert 0.0 <= first <= 1.0
        assert answers.confidence(b, a) == first
        assert answers.confidence(a, b) == first


class TestSources:
    def test_every_source_is_an_answer_file(self, source):
        assert isinstance(source, AnswerFile)

    def test_pair_order_and_repeat_agree(self, source):
        _answers_in_both_orders_twice(source)

    def test_len_after_prefetch(self, source):
        # The scripted table holds exactly PAIRS; every other source
        # starts empty.
        source.prefetch(PAIRS + [(b, a) for a, b in PAIRS])
        assert len(source) == len(CANONICAL)
        source.prefetch([PRIMED_PAIR, PRIMED_PAIR])
        assert len(source) == len(CANONICAL) + 1

    def test_majority_duplicate_is_confidence_above_half(self, source):
        for a, b in PAIRS:
            assert (source.majority_duplicate(a, b)
                    == (source.confidence(a, b) > 0.5))

    def test_confidence_batch_matches_confidence(self, source):
        batch = source.confidence_batch(PAIRS)
        assert set(batch) == CANONICAL
        for a, b in PAIRS:
            assert batch[min(a, b), max(a, b)] == source.confidence(a, b)


class TestWrappers:
    def test_every_wrapper_is_an_answer_wrapper(self, wrapper_factory):
        assert isinstance(wrapper_factory(_answer_file()), AnswerWrapper)

    def test_pair_order_and_repeat_agree(self, wrapper_factory):
        inner = _answer_file()
        wrapper = wrapper_factory(inner)
        _answers_in_both_orders_twice(wrapper)
        for a, b in PAIRS:
            assert wrapper.confidence(a, b) == inner.confidence(a, b)

    def test_forwards_num_workers(self, wrapper_factory):
        assert wrapper_factory(_answer_file()).num_workers == 3

    def test_prime_reaches_the_inner_memo(self, wrapper_factory):
        inner = _answer_file()
        wrapper = wrapper_factory(inner)
        wrapper.prime({PRIMED_PAIR: 0.125})
        assert len(inner) == 1
        assert inner.confidence(*PRIMED_PAIR) == 0.125


def _wrapped_forms(inner_factory, tmp_path):
    """A source, its journaled form and its latency-wrapped form."""
    return [
        inner_factory(),
        JournalingAnswerFile(inner_factory(), tmp_path / "answers.wal"),
        SimulatedLatencyAnswers(inner_factory(), 0.0),
    ]


class TestPairDeterminism:
    @pytest.mark.parametrize("name", ["answer-file", "scripted"])
    def test_accepted(self, name, tmp_path):
        for answers in _wrapped_forms(SOURCES[name], tmp_path):
            require_pair_deterministic(answers)

    @pytest.mark.parametrize("name", ["adaptive", "workforce", "platform",
                                      "fallback"])
    def test_rejected(self, name, tmp_path):
        factory = SOURCES.get(name) or (
            lambda: FallbackAnswers(_scripted(), lambda pair: 0.5))
        for answers in _wrapped_forms(factory, tmp_path):
            with pytest.raises(ValueError):
                require_pair_deterministic(answers)

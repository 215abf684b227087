"""Tests for repro.crowd.worker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.seeding import pair_seed, stable_rng, stable_seed
from repro.crowd.worker import DifficultyModel, WorkerPool


class TestDifficultyModel:
    def test_all_easy_when_no_hard_fraction(self):
        model = DifficultyModel(easy_error=0.07, hard_fraction=0.0)
        for a in range(5):
            for b in range(a + 1, 6):
                assert model.error_probability(a, b) == 0.07

    def test_deterministic_per_pair(self):
        model = DifficultyModel(easy_error=0.05, hard_fraction=0.5, seed=1)
        assert model.error_probability(3, 9) == model.error_probability(3, 9)

    def test_symmetric_in_pair_order(self):
        model = DifficultyModel(easy_error=0.05, hard_fraction=0.5, seed=1)
        assert model.error_probability(3, 9) == model.error_probability(9, 3)

    def test_hard_pairs_exist_at_full_hard_fraction(self):
        model = DifficultyModel(
            easy_error=0.01, hard_fraction=1.0,
            hard_error_low=0.4, hard_error_high=0.6,
        )
        error = model.error_probability(0, 1)
        assert 0.4 <= error <= 0.6

    def test_hard_fraction_roughly_respected(self):
        model = DifficultyModel(
            easy_error=0.01, hard_fraction=0.3,
            hard_error_low=0.4, hard_error_high=0.6, seed=5,
        )
        hard = sum(
            1 for a in range(100) for b in range(a + 1, 100)
            if model.error_probability(a, b) >= 0.4
        )
        total = 100 * 99 // 2
        assert 0.25 < hard / total < 0.35

    def test_validation(self):
        with pytest.raises(ValueError):
            DifficultyModel(easy_error=1.5)
        with pytest.raises(ValueError):
            DifficultyModel(hard_error_low=0.6, hard_error_high=0.4)

    def test_different_seeds_reassign_hardness(self):
        kwargs = dict(easy_error=0.01, hard_fraction=0.5,
                      hard_error_low=0.4, hard_error_high=0.6)
        model_a = DifficultyModel(seed=1, **kwargs)
        model_b = DifficultyModel(seed=2, **kwargs)
        profile_a = [model_a.error_probability(a, a + 1) for a in range(50)]
        profile_b = [model_b.error_probability(a, a + 1) for a in range(50)]
        assert profile_a != profile_b


class TestWorkerPool:
    def test_votes_in_range(self):
        pool = WorkerPool(DifficultyModel(easy_error=0.3), num_workers=5)
        for a in range(10):
            votes = pool.votes(a, a + 1, is_duplicate=True)
            assert 0 <= votes <= 5

    def test_votes_deterministic(self):
        pool = WorkerPool(DifficultyModel(easy_error=0.3, seed=2), num_workers=3)
        assert pool.votes(1, 2, True) == pool.votes(1, 2, True)

    def test_confidence_is_vote_fraction(self):
        pool = WorkerPool(DifficultyModel(easy_error=0.3, seed=2), num_workers=3)
        votes = pool.votes(1, 2, True)
        assert pool.confidence(1, 2, True) == votes / 3

    def test_zero_error_perfect_answers(self):
        pool = WorkerPool(DifficultyModel(easy_error=0.0), num_workers=3)
        for a in range(20):
            assert pool.confidence(a, a + 1, True) == 1.0
            assert pool.confidence(a, a + 1, False) == 0.0

    def test_error_rate_statistics(self):
        """With i.i.d. worker error p, the vote-level error frequency over
        many pairs should be near p."""
        p = 0.2
        pool = WorkerPool(DifficultyModel(easy_error=p, seed=7), num_workers=1)
        wrong = sum(
            1 for a in range(0, 4000, 2)
            if pool.confidence(a, a + 1, True) < 0.5
        )
        assert abs(wrong / 2000 - p) < 0.03

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(DifficultyModel(), num_workers=0)


def _literal_error_probability(model, a, b):
    """The per-pair difficulty as first written: one seeded RNG per pair."""
    rng = stable_rng(model.seed, "difficulty", min(a, b), max(a, b))
    if rng.random() < model.hard_fraction:
        return rng.uniform(model.hard_error_low, model.hard_error_high)
    return model.easy_error


def _literal_votes(pool, a, b, is_duplicate):
    error = _literal_error_probability(pool.difficulty, a, b)
    rng = stable_rng(pool.difficulty.seed, "votes", pool.num_workers,
                     min(a, b), max(a, b))
    return sum(is_duplicate != (rng.random() < error)
               for _ in range(pool.num_workers))


class TestPrefixedSeeds:
    """The cached-prefix seeds and the easy-only shortcut change no
    answer: both methods equal the literal ``stable_rng`` derivation."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32),
           hard_fraction=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
           num_workers=st.integers(1, 7),
           a=st.integers(0, 10 ** 7), b=st.integers(0, 10 ** 7),
           is_duplicate=st.booleans())
    def test_match_literal_derivation(self, seed, hard_fraction,
                                      num_workers, a, b, is_duplicate):
        model = DifficultyModel(easy_error=0.08,
                                hard_fraction=hard_fraction, seed=seed)
        pool = WorkerPool(difficulty=model, num_workers=num_workers)
        assert (model.error_probability(a, b)
                == _literal_error_probability(model, a, b))
        assert (pool.votes(a, b, is_duplicate)
                == _literal_votes(pool, a, b, is_duplicate))

    @given(prefix=st.lists(st.one_of(st.integers(), st.text()), max_size=4),
           a=st.integers(), b=st.integers())
    def test_pair_seed_is_stable_seed(self, prefix, a, b):
        assert pair_seed(tuple(prefix), a, b) == stable_seed(*prefix, a, b)

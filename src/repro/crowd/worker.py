"""Worker error models for the simulated crowd.

The paper's AMT measurements (Table 3) show that majority voting does not
eliminate errors, and that going from 3 to 5 workers helps only marginally on
the hard *Paper* dataset (23 % -> 21 %) while helping a lot on the easy
*Restaurant* dataset (0.8 % -> 0.2 %).  A model with i.i.d. per-worker errors
cannot produce that pattern — it implies rapid error decay with more voters.
What matches the data is *pair-correlated* difficulty: some record pairs are
intrinsically confusing (Chevrolet vs Chevron), and every worker who sees such
a pair is roughly coin-flipping.

:class:`DifficultyModel` therefore assigns each record pair a latent
per-worker error probability: a small "easy" error rate for most pairs, and a
near-0.5 error rate for a difficulty-dependent fraction of *hard* pairs.
Hardness is deterministic per pair (derived from the pair's stable seed), so
all algorithms see the same crowd behaviour — exactly like the paper's
replayed answer file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crowd.seeding import pair_seed


@dataclass(frozen=True)
class DifficultyModel:
    """Latent per-pair worker error probabilities.

    Attributes:
        easy_error: Per-worker error probability on ordinary pairs.
        hard_fraction: Fraction of pairs that are intrinsically confusing.
        hard_error_low: Lower bound of the per-worker error probability on
            hard pairs.
        hard_error_high: Upper bound (may exceed 0.5: on such pairs the
            *majority* is more likely wrong than right, which the paper
            observes on Paper-dataset pairs).
        seed: Model-level seed mixed into every pair's randomness.
    """

    easy_error: float = 0.05
    hard_fraction: float = 0.0
    hard_error_low: float = 0.35
    hard_error_high: float = 0.55
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("easy_error", "hard_fraction", "hard_error_low", "hard_error_high"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.hard_error_low > self.hard_error_high:
            raise ValueError("hard_error_low must be <= hard_error_high")

    def error_probability(self, record_a: int, record_b: int) -> float:
        """The per-worker error probability for one record pair.

        Deterministic in ``(seed, pair)``: replaying the same pair always
        yields the same difficulty.
        """
        if self.hard_fraction == 0.0:
            # rng.random() < 0.0 never holds: skip seeding the RNG.
            return self.easy_error
        rng = random.Random(pair_seed((self.seed, "difficulty"),
                                      min(record_a, record_b),
                                      max(record_a, record_b)))
        if rng.random() < self.hard_fraction:
            return rng.uniform(self.hard_error_low, self.hard_error_high)
        return self.easy_error


@dataclass(frozen=True)
class WorkerPool:
    """Simulates a pool of crowd workers voting on record pairs.

    Each of ``num_workers`` votes independently given the pair's latent
    error probability.  Votes for a pair are deterministic in
    ``(difficulty.seed, pair)``, so every algorithm replays identical votes.
    """

    difficulty: DifficultyModel
    num_workers: int = 3

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")

    def votes(self, record_a: int, record_b: int, is_duplicate: bool) -> int:
        """Number of workers (of ``num_workers``) voting "duplicate".

        Args:
            record_a: First record id.
            record_b: Second record id.
            is_duplicate: Ground truth for the pair (supplied by the gold
                standard, which only the simulator — never the algorithms —
                may see).
        """
        error = self.difficulty.error_probability(record_a, record_b)
        rng = random.Random(pair_seed(
            (self.difficulty.seed, "votes", self.num_workers),
            min(record_a, record_b), max(record_a, record_b)))
        duplicate_votes = 0
        for _ in range(self.num_workers):
            wrong = rng.random() < error
            voted_duplicate = is_duplicate != wrong
            if voted_duplicate:
                duplicate_votes += 1
        return duplicate_votes

    def confidence(self, record_a: int, record_b: int, is_duplicate: bool) -> float:
        """The crowd similarity ``f_c``: fraction of workers voting duplicate."""
        return self.votes(record_a, record_b, is_duplicate) / self.num_workers

"""A worker-level AMT model: named workers, reliability, qualification.

The paper's two crowd settings differ in *who* answers: the 5-worker
setting requires a qualification test, 100 approved HITs, and a >= 95%
approval rate (Section 6.1).  The :class:`WorkerPool` abstraction models the
*aggregate* effect of that; this module models the mechanism itself, so the
qualification policies can be studied directly:

- :class:`SimulatedWorker` — one worker with an individual reliability
  (per-answer correctness probability on non-confusing pairs) and an
  AMT-style track record (approved HITs, approval rate);
- :class:`Workforce` — a population of workers drawn from a Beta
  reliability distribution, with qualification filters;
- :class:`WorkforceAnswerFile` — an :class:`~repro.crowd.cache.AnswerFile`
  where each pair is judged by ``panel_size`` workers sampled from the
  (possibly filtered) workforce; pair difficulty still comes from a shared
  :class:`DifficultyModel`, so confusing pairs stay confusing for everyone.

Answers are deterministic in (workforce seed, pair), replayable like every
other answer source in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.crowd.cache import AnswerFile, Pair
from repro.crowd.seeding import stable_rng
from repro.crowd.worker import DifficultyModel
from repro.datasets.schema import GoldStandard, canonical_pair

#: Worker personas: honest workers follow their reliability; spammers
#: answer at chance regardless of the pair; adversarial workers invert the
#: truth as hard as the simulator's error cap allows.
HONEST = "honest"
SPAMMER = "spammer"
ADVERSARIAL = "adversarial"

PERSONAS = (HONEST, SPAMMER, ADVERSARIAL)


@dataclass(frozen=True)
class SimulatedWorker:
    """One crowd worker.

    Attributes:
        worker_id: Stable identifier.
        reliability: Probability of answering correctly on a pair with no
            intrinsic difficulty (clamped into [0, 1]).
        approved_hits: AMT track record: lifetime approved HITs.
        approval_rate: AMT track record: fraction of submitted work
            approved.
        persona: :data:`HONEST`, :data:`SPAMMER`, or :data:`ADVERSARIAL`.
    """

    worker_id: int
    reliability: float
    approved_hits: int
    approval_rate: float
    persona: str = HONEST

    def __post_init__(self) -> None:
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError(
                f"reliability must be in [0, 1], got {self.reliability}"
            )
        if not 0.0 <= self.approval_rate <= 1.0:
            raise ValueError(
                f"approval_rate must be in [0, 1], got {self.approval_rate}"
            )
        if self.persona not in PERSONAS:
            raise ValueError(
                f"persona must be one of {PERSONAS}, got {self.persona!r}"
            )

    def error_probability(self, pair_difficulty: float) -> float:
        """The worker's error probability on a pair.

        The pair's intrinsic difficulty dominates: a genuinely confusing
        pair (difficulty near 0.5) is confusing even for a reliable worker;
        on easy pairs the worker's own unreliability is what remains.
        Spammers answer at chance; adversarial workers are wrong as often
        as the simulator's 0.95 error cap allows.
        """
        if self.persona == SPAMMER:
            return 0.5
        if self.persona == ADVERSARIAL:
            return 0.95
        own_error = 1.0 - self.reliability
        return min(0.95, max(pair_difficulty, own_error))


class Workforce:
    """A population of simulated workers with qualification filtering."""

    def __init__(
        self,
        size: int = 200,
        reliability_alpha: float = 14.0,
        reliability_beta: float = 2.0,
        seed: int = 0,
        spam_fraction: float = 0.0,
        adversarial_fraction: float = 0.0,
    ):
        """Args:
        size: Number of workers in the population.
        reliability_alpha: Alpha of the Beta reliability distribution
            (defaults give mean reliability 0.875 with a long bad tail —
            the AMT regime reported in quality-control studies [29, 45]).
        reliability_beta: Beta of the distribution.
        seed: Population seed.
        spam_fraction: Fraction of workers answering at chance.
        adversarial_fraction: Fraction answering adversarially.

        Personas are assigned from a *separate* seed stream, so a
        population with ``spam_fraction=0`` is identical — same ids, same
        reliabilities — to one built without the argument.
        """
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        for name, value in (("spam_fraction", spam_fraction),
                            ("adversarial_fraction", adversarial_fraction)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if spam_fraction + adversarial_fraction > 1.0:
            raise ValueError(
                "spam_fraction + adversarial_fraction must be <= 1"
            )
        self.seed = seed
        self.spam_fraction = spam_fraction
        self.adversarial_fraction = adversarial_fraction
        rng = stable_rng(seed, "workforce")
        self._workers: List[SimulatedWorker] = []
        for worker_id in range(size):
            reliability = rng.betavariate(reliability_alpha, reliability_beta)
            # Track record correlates loosely with reliability.
            approved = int(rng.expovariate(1 / 150.0))
            approval = min(1.0, max(0.5, reliability + rng.uniform(-0.1, 0.1)))
            self._workers.append(SimulatedWorker(
                worker_id=worker_id,
                reliability=reliability,
                approved_hits=approved,
                approval_rate=approval,
            ))
        num_spam = int(round(size * spam_fraction))
        num_adversarial = int(round(size * adversarial_fraction))
        num_spam = min(num_spam, size)
        num_adversarial = min(num_adversarial, size - num_spam)
        if num_spam or num_adversarial:
            persona_rng = stable_rng(seed, "personas", num_spam,
                                     num_adversarial)
            flagged = persona_rng.sample(range(size),
                                         num_spam + num_adversarial)
            for position, index in enumerate(flagged):
                persona = SPAMMER if position < num_spam else ADVERSARIAL
                self._workers[index] = replace(self._workers[index],
                                               persona=persona)

    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self):
        return iter(self._workers)

    def workers(self) -> List[SimulatedWorker]:
        return list(self._workers)

    def qualified(
        self,
        min_approved_hits: int = 0,
        min_approval_rate: float = 0.0,
        passes_test: Optional[Callable[[SimulatedWorker], bool]] = None,
    ) -> "Workforce":
        """The sub-population passing AMT-style qualification filters.

        The paper's 5-worker setting used ``min_approved_hits=100`` and
        ``min_approval_rate=0.95`` plus a qualification test; model the
        test as any predicate over workers (default: none).

        Returns:
            A new :class:`Workforce` view over the qualifying workers.

        Raises:
            ValueError: If no worker qualifies.
        """
        kept = [
            worker for worker in self._workers
            if worker.approved_hits >= min_approved_hits
            and worker.approval_rate >= min_approval_rate
            and (passes_test is None or passes_test(worker))
        ]
        if not kept:
            raise ValueError("no worker passes the qualification filters")
        filtered = Workforce.__new__(Workforce)
        filtered.seed = self.seed
        filtered.spam_fraction = self.spam_fraction
        filtered.adversarial_fraction = self.adversarial_fraction
        filtered._workers = kept
        return filtered

    def mean_reliability(self) -> float:
        return sum(w.reliability for w in self._workers) / len(self._workers)

    def persona_counts(self) -> Dict[str, int]:
        """How many workers hold each persona (zero-filled)."""
        counts = {persona: 0 for persona in PERSONAS}
        for worker in self._workers:
            counts[worker.persona] += 1
        return counts


class WorkforceAnswerFile(AnswerFile):
    """Answer file backed by a worker population.

    Each pair is judged by ``panel_size`` workers sampled (deterministically
    per pair) from the workforce; the confidence is the fraction voting
    duplicate.  Tracks which workers judged which pair for audit-style
    inspection.
    """

    #: Priming would bypass the per-pair panels and votes this class audits.
    pair_deterministic = False

    def __init__(
        self,
        gold: GoldStandard,
        workforce: Workforce,
        difficulty: DifficultyModel,
        panel_size: int = 3,
    ):
        if panel_size < 1:
            raise ValueError(f"panel_size must be >= 1, got {panel_size}")
        if panel_size > len(workforce):
            raise ValueError(
                f"panel_size {panel_size} exceeds workforce size {len(workforce)}"
            )
        self._gold = gold
        self._workforce = workforce
        self._difficulty = difficulty
        self.num_workers = panel_size
        self._answers = {}
        self._panels: Dict[Pair, Tuple[int, ...]] = {}
        self._votes: Dict[Pair, Tuple[Tuple[int, bool], ...]] = {}

    def _vote(self, pair: Pair) -> float:
        rng = stable_rng(self._workforce.seed, "panel", pair[0], pair[1],
                         self.num_workers)
        panel = rng.sample(self._workforce.workers(), self.num_workers)
        truth = self._gold.is_duplicate(*pair)
        pair_difficulty = self._difficulty.error_probability(*pair)
        duplicate_votes = 0
        votes = []
        for worker in panel:
            wrong = rng.random() < worker.error_probability(pair_difficulty)
            voted_duplicate = truth != wrong
            votes.append((worker.worker_id, voted_duplicate))
            if voted_duplicate:
                duplicate_votes += 1
        self._panels[pair] = tuple(worker.worker_id for worker in panel)
        self._votes[pair] = tuple(votes)
        return duplicate_votes / self.num_workers

    def votes(self, record_a: int, record_b: int) -> Tuple[Tuple[int, bool], ...]:
        """Per-worker votes ``(worker_id, voted_duplicate)`` for an already
        answered pair — the raw material for truth inference."""
        return self._votes[canonical_pair(record_a, record_b)]

    def all_votes(self) -> Dict[Pair, Tuple[Tuple[int, bool], ...]]:
        """Every answered pair's per-worker votes (a copy)."""
        return dict(self._votes)

    def panel(self, record_a: int, record_b: int) -> Tuple[int, ...]:
        """The worker ids that judged an (already answered) pair."""
        return self._panels[canonical_pair(record_a, record_b)]

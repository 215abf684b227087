"""Adaptive worker assignment — the paper's stated future work.

Section 8: *"For future work, we plan to further improve the performance of
ACD by investigating techniques for adaptively assigning more crowd workers
to more difficult record pairs."*

:class:`AdaptiveAnswerFile` implements the natural escalation policy: every
pair starts with a small panel of workers; when the vote is *split* (the
majority margin is below a threshold), the pair is escalated to a larger
panel.  Difficult pairs — the ones whose latent error probability is close
to a coin flip — are exactly the ones that produce split votes, so they
organically receive more workers, while easy pairs stay cheap.

The class is an :class:`~repro.crowd.cache.AnswerFile` whose per-pair
vote escalates, so the whole algorithm stack runs on it unchanged; the
per-pair vote spend is tracked for the cost accounting of the extension
experiment (``benchmarks/test_ext_adaptive.py``).
"""

from __future__ import annotations

from typing import Dict

from repro.crowd.cache import AnswerFile, Pair
from repro.crowd.worker import WorkerPool
from repro.datasets.schema import GoldStandard, canonical_pair


class AdaptiveAnswerFile(AnswerFile):
    """Crowd answers with split-vote escalation.

    Args:
        gold: Ground truth (seen only by the simulator).
        workers: Base worker pool; its ``num_workers`` is the initial panel
            (and the reported ``num_workers``, used for HIT cost baselines).
        escalated_workers: Panel size after escalation (must be larger).
        margin: Escalate when ``|duplicate_votes - half| <= margin`` votes,
            i.e. the initial panel was nearly tied.  With the default
            3-worker panel and margin 1, any 2-1 vote escalates while 3-0
            votes stand.
    """

    #: Priming would bypass the per-pair vote spend this class audits.
    pair_deterministic = False

    def __init__(self, gold: GoldStandard, workers: WorkerPool,
                 escalated_workers: int = 7, margin: int = 1):
        if escalated_workers <= workers.num_workers:
            raise ValueError(
                "escalated_workers must exceed the base panel "
                f"({escalated_workers} <= {workers.num_workers})"
            )
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        super().__init__(gold, workers)
        self._escalated = WorkerPool(
            difficulty=workers.difficulty, num_workers=escalated_workers
        )
        self._margin = margin
        self._votes_spent: Dict[Pair, int] = {}

    def _is_split(self, duplicate_votes: int, panel: int) -> bool:
        # Split: the vote is not unanimous, and the duplicate and
        # non-duplicate counts differ by at most the margin.
        minority = min(duplicate_votes, panel - duplicate_votes)
        return minority > 0 and abs(2 * duplicate_votes - panel) <= self._margin

    def _vote(self, pair: Pair) -> float:
        truth = self._gold.is_duplicate(*pair)
        base_votes = self._workers.votes(pair[0], pair[1], truth)
        panel = self.num_workers
        if self._is_split(base_votes, panel):
            escalated_votes = self._escalated.votes(pair[0], pair[1], truth)
            self._votes_spent[pair] = panel + self._escalated.num_workers
            return escalated_votes / self._escalated.num_workers
        self._votes_spent[pair] = panel
        return base_votes / panel

    # ------------------------------------------------------------------
    # Extension-experiment measurements
    # ------------------------------------------------------------------

    def votes_spent(self, record_a: int, record_b: int) -> int:
        """Worker judgements consumed by a pair (after it was answered)."""
        return self._votes_spent[canonical_pair(record_a, record_b)]

    def total_votes_spent(self) -> int:
        return sum(self._votes_spent.values())

    def escalation_rate(self) -> float:
        """Fraction of answered pairs that were escalated."""
        if not self._votes_spent:
            return 0.0
        escalated = sum(
            1 for spent in self._votes_spent.values()
            if spent > self.num_workers
        )
        return escalated / len(self._votes_spent)

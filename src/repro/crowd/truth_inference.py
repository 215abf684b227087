"""Dawid-Skene truth inference over per-worker votes.

Majority voting treats every worker alike; the AMT quality-management
literature the paper cites ([29] Ipeirotis et al.) shows that jointly
estimating worker reliabilities and true labels recovers substantially
better answers from the same votes.  This module implements the binary
Dawid-Skene EM estimator:

- per worker ``w``: sensitivity ``α_w = P(votes dup | truly dup)`` and
  specificity ``β_w = P(votes non-dup | truly non-dup)``;
- per pair: posterior probability of being a duplicate;
- a class prior, re-estimated each iteration.

The posteriors are a fixed pair -> confidence table, so they plug straight
into the pipeline as ``ScriptedAnswers(result.posteriors, num_workers=...)``
(:class:`~repro.crowd.cache.ScriptedAnswers`), and ACD runs on inferred
confidences instead of raw majority fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.datasets.schema import canonical_pair

Pair = Tuple[int, int]
Votes = Mapping[Pair, Sequence[Tuple[int, bool]]]

_CLAMP = 1e-6


def _clamped(value: float) -> float:
    return min(1.0 - _CLAMP, max(_CLAMP, value))


@dataclass(frozen=True)
class WorkerEstimate:
    """One worker's inferred confusion parameters.

    Attributes:
        sensitivity: P(votes duplicate | pair is duplicate).
        specificity: P(votes non-duplicate | pair is non-duplicate).
        num_votes: Votes this worker contributed.
    """

    sensitivity: float
    specificity: float
    num_votes: int

    @property
    def accuracy(self) -> float:
        """Balanced accuracy — a single reliability score."""
        return (self.sensitivity + self.specificity) / 2.0


@dataclass(frozen=True)
class TruthInferenceResult:
    """Output of :func:`dawid_skene`.

    Attributes:
        posteriors: Pair -> posterior probability of being a duplicate.
        workers: Worker id -> inferred confusion parameters.
        prior: Inferred duplicate class prior.
        iterations: EM iterations performed.
    """

    posteriors: Dict[Pair, float]
    workers: Dict[int, WorkerEstimate]
    prior: float
    iterations: int


def dawid_skene(
    votes: Votes,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
    worker_pseudo_counts: Tuple[float, float] = (4.0, 1.0),
    prior_pseudo_counts: Tuple[float, float] = (1.0, 1.0),
) -> TruthInferenceResult:
    """Run binary Dawid-Skene EM with MAP (smoothed) parameter updates.

    Args:
        votes: Pair -> sequence of ``(worker_id, voted_duplicate)``.
        max_iterations: EM iteration cap.
        tolerance: Stop when the largest posterior change falls below this.
        worker_pseudo_counts: Beta pseudo-counts ``(correct, wrong)`` on
            each worker's sensitivity and specificity.  The default
            (4, 1) encodes "workers are probably decent" with strength 5;
            without it, EM on heavily class-imbalanced vote sets (e.g. a
            candidate set where only ~2% of pairs are true duplicates) can
            settle on a degenerate high-prior fixpoint that *underperforms*
            majority voting.
        prior_pseudo_counts: Beta pseudo-counts on the class prior.

    Returns:
        Posteriors, per-worker parameters, and the inferred prior.

    Raises:
        ValueError: On empty input, a pair with no votes, or non-positive
            pseudo-counts.
    """
    for name, (a, b) in (("worker_pseudo_counts", worker_pseudo_counts),
                         ("prior_pseudo_counts", prior_pseudo_counts)):
        if a <= 0 or b <= 0:
            raise ValueError(f"{name} must be positive, got {(a, b)}")
    if not votes:
        raise ValueError("cannot infer truth from zero pairs")
    normalized: Dict[Pair, Tuple[Tuple[int, bool], ...]] = {}
    for raw_pair, pair_votes in votes.items():
        pair = canonical_pair(*raw_pair)
        if not pair_votes:
            raise ValueError(f"pair {pair} has no votes")
        normalized[pair] = tuple(pair_votes)

    # Initialize posteriors with majority fractions.
    posteriors: Dict[Pair, float] = {}
    for pair, pair_votes in normalized.items():
        positives = sum(1 for _, vote in pair_votes if vote)
        posteriors[pair] = _clamped(positives / len(pair_votes))

    worker_ids = sorted({
        worker for pair_votes in normalized.values()
        for worker, _ in pair_votes
    })
    sensitivity = {worker: 0.8 for worker in worker_ids}
    specificity = {worker: 0.8 for worker in worker_ids}
    prior = 0.5

    iterations_run = 0
    for iteration in range(max_iterations):
        iterations_run = iteration + 1

        # M-step: worker confusion parameters and the class prior, from the
        # current soft labels.
        positive_weight = {worker: 0.0 for worker in worker_ids}
        positive_total = {worker: 0.0 for worker in worker_ids}
        negative_weight = {worker: 0.0 for worker in worker_ids}
        negative_total = {worker: 0.0 for worker in worker_ids}
        for pair, pair_votes in normalized.items():
            p_dup = posteriors[pair]
            for worker, vote in pair_votes:
                positive_total[worker] += p_dup
                negative_total[worker] += 1.0 - p_dup
                if vote:
                    positive_weight[worker] += p_dup
                else:
                    negative_weight[worker] += 1.0 - p_dup
        correct_pseudo, wrong_pseudo = worker_pseudo_counts
        for worker in worker_ids:
            sensitivity[worker] = _clamped(
                (positive_weight[worker] + correct_pseudo)
                / (positive_total[worker] + correct_pseudo + wrong_pseudo)
            )
            specificity[worker] = _clamped(
                (negative_weight[worker] + correct_pseudo)
                / (negative_total[worker] + correct_pseudo + wrong_pseudo)
            )
        prior_a, prior_b = prior_pseudo_counts
        prior = _clamped(
            (sum(posteriors.values()) + prior_a)
            / (len(posteriors) + prior_a + prior_b)
        )

        # E-step: new posteriors from the worker parameters.
        largest_change = 0.0
        for pair, pair_votes in normalized.items():
            likelihood_dup = prior
            likelihood_non = 1.0 - prior
            for worker, vote in pair_votes:
                if vote:
                    likelihood_dup *= sensitivity[worker]
                    likelihood_non *= 1.0 - specificity[worker]
                else:
                    likelihood_dup *= 1.0 - sensitivity[worker]
                    likelihood_non *= specificity[worker]
            total = likelihood_dup + likelihood_non
            updated = _clamped(likelihood_dup / total) if total > 0 else 0.5
            largest_change = max(largest_change,
                                 abs(updated - posteriors[pair]))
            posteriors[pair] = updated
        if largest_change < tolerance:
            break

    vote_counts = {worker: 0 for worker in worker_ids}
    for pair_votes in normalized.values():
        for worker, _ in pair_votes:
            vote_counts[worker] += 1
    workers = {
        worker: WorkerEstimate(
            sensitivity=sensitivity[worker],
            specificity=specificity[worker],
            num_votes=vote_counts[worker],
        )
        for worker in worker_ids
    }
    return TruthInferenceResult(
        posteriors=posteriors, workers=workers, prior=prior,
        iterations=iterations_run,
    )


"""Parameter sweeps: the ε experiment (Figure 5) and the T experiment
(Figure 10 / Appendix C)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.acd import run_acd
from repro.core.generation import crowd_pivot
from repro.crowd.oracle import CrowdOracle
from repro.crowd.stats import CrowdStats
from repro.eval.metrics import f1_score
from repro.experiments.runner import Instance

DEFAULT_EPSILONS = (0.0, 0.1, 0.2, 0.4, 0.8)
DEFAULT_THRESHOLD_DIVISORS = (2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class EpsilonPoint:
    """One ε point of Figure 5: PC-Pivot's iterations and pair cost."""

    epsilon: float
    iterations: float
    pairs_issued: float


@dataclass(frozen=True)
class EpsilonSweep:
    """Figure 5 data for one dataset: PC-Pivot sweep plus the sequential
    Crowd-Pivot reference line."""

    points: List[EpsilonPoint]
    crowd_pivot_iterations: float
    crowd_pivot_pairs: float


def epsilon_sweep(
    instance: Instance,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    repetitions: int = 5,
    base_seed: int = 100,
) -> EpsilonSweep:
    """Measure PC-Pivot (generation phase only) across ε values.

    Each ε point and the Crowd-Pivot reference are averaged over
    ``repetitions`` random permutations (the same seeds for every ε, so the
    curves differ only through ε).
    """
    points: List[EpsilonPoint] = []
    for epsilon in epsilons:
        iterations = 0.0
        pairs = 0.0
        for repetition in range(repetitions):
            result = run_acd(
                instance.record_ids, instance.candidates, instance.answers,
                epsilon=epsilon, seed=base_seed + repetition, refine=False,
                pairs_per_hit=instance.setting.pairs_per_hit,
            )
            iterations += result.stats.iterations
            pairs += result.stats.pairs_issued
        points.append(EpsilonPoint(
            epsilon=epsilon,
            iterations=iterations / repetitions,
            pairs_issued=pairs / repetitions,
        ))

    sequential_iterations = 0.0
    sequential_pairs = 0.0
    for repetition in range(repetitions):
        stats = CrowdStats(pairs_per_hit=instance.setting.pairs_per_hit,
                           num_workers=instance.setting.num_workers)
        oracle = CrowdOracle(instance.answers, stats=stats)
        crowd_pivot(instance.record_ids, instance.candidates, oracle,
                    seed=base_seed + repetition)
        sequential_iterations += stats.iterations
        sequential_pairs += stats.pairs_issued
    return EpsilonSweep(
        points=points,
        crowd_pivot_iterations=sequential_iterations / repetitions,
        crowd_pivot_pairs=sequential_pairs / repetitions,
    )


@dataclass(frozen=True)
class ThresholdPoint:
    """One T point of Figure 10: divisor x (T = N_m / x), with the full-ACD
    F1, refinement pair cost, and refinement iteration count."""

    divisor: float
    f1: float
    refinement_pairs: float
    refinement_iterations: float
    total_pairs: float


def threshold_sweep(
    instance: Instance,
    divisors: Sequence[float] = DEFAULT_THRESHOLD_DIVISORS,
    repetitions: int = 5,
    base_seed: int = 100,
) -> List[ThresholdPoint]:
    """Measure full ACD across PC-Refine budget divisors (Figure 10)."""
    points: List[ThresholdPoint] = []
    for divisor in divisors:
        f1 = 0.0
        refinement_pairs = 0.0
        refinement_iterations = 0.0
        total_pairs = 0.0
        for repetition in range(repetitions):
            result = run_acd(
                instance.record_ids, instance.candidates, instance.answers,
                threshold_divisor=divisor, seed=base_seed + repetition,
                pairs_per_hit=instance.setting.pairs_per_hit,
            )
            f1 += f1_score(result.clustering, instance.dataset.gold)
            refinement_pairs += result.refinement_stats["pairs_issued"]
            refinement_iterations += result.refinement_stats["iterations"]
            total_pairs += result.stats.pairs_issued
        points.append(ThresholdPoint(
            divisor=divisor,
            f1=f1 / repetitions,
            refinement_pairs=refinement_pairs / repetitions,
            refinement_iterations=refinement_iterations / repetitions,
            total_pairs=total_pairs / repetitions,
        ))
    return points

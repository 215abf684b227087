"""Experiment runner: prepare instances, run methods, collect measurements.

This is the layer the benchmarks and examples drive.  An *instance* bundles
a generated dataset, its pruned candidate set, and a shared crowd answer
file for one crowd setting — every method run on the instance replays the
same answers (the paper's file-``F`` protocol).  A *method run* produces a
:class:`MethodResult` with the three quantities the paper charts: F1,
crowdsourced pairs, and crowd iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.baselines import crowder_plus, gcer, transm, transnode
from repro.core.acd import run_acd
from repro.core.clustering import Clustering
from repro.crowd.cache import AnswerFile
from repro.crowd.oracle import CrowdOracle
from repro.crowd.stats import CrowdStats
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.datasets.schema import Dataset
from repro.eval.metrics import pairwise_scores
from repro.obs import maybe_span
from repro.experiments.configs import (
    CrowdSetting,
    PRUNING_THRESHOLD,
    crowd_setting,
    difficulty_model,
)
from repro.pruning.candidate import CandidateSet, build_candidate_set
from repro.runtime.pipeline import run_pipeline
from repro.similarity.composite import jaccard_similarity_function

ACD_METHOD = "ACD"
PC_PIVOT_METHOD = "PC-Pivot"
CROWD_PIVOT_METHOD = "Crowd-Pivot"
CROWDER_METHOD = "CrowdER+"
GCER_METHOD = "GCER"
TRANSM_METHOD = "TransM"
TRANSNODE_METHOD = "TransNode"

ALL_METHODS = (
    ACD_METHOD, PC_PIVOT_METHOD, CROWDER_METHOD,
    GCER_METHOD, TRANSM_METHOD, TRANSNODE_METHOD,
)

RANDOMIZED_METHODS = frozenset({ACD_METHOD, PC_PIVOT_METHOD, CROWD_PIVOT_METHOD})

#: Methods ``run_acd`` executes, the only ones ``pipeline=True`` applies to.
PIPELINE_METHODS = (ACD_METHOD, PC_PIVOT_METHOD)


@dataclass(frozen=True)
class Instance:
    """A prepared experiment instance (dataset x crowd setting)."""

    dataset: Dataset
    candidates: CandidateSet
    answers: AnswerFile
    setting: CrowdSetting

    @property
    def record_ids(self) -> List[int]:
        return self.dataset.record_ids


def prepare_instance(
    dataset_name: str,
    setting_name: str = "3w",
    scale: float = 1.0,
    seed: int = 0,
    threshold: float = PRUNING_THRESHOLD,
    parallel: int = 0,
    shards: int = 0,
    obs=None,
    candidates: Optional[CandidateSet] = None,
    supervisor_policy=None,
    fault_plan=None,
) -> Instance:
    """Generate a dataset, run the pruning phase, and open the answer file.

    Args:
        dataset_name: 'paper', 'restaurant', or 'product'.
        setting_name: '3w' or '5w'.
        scale: Dataset size multiplier (1.0 = Table 3 size).
        seed: Dataset generation seed.
        threshold: Pruning threshold τ (paper: 0.3).
        parallel: Worker processes (pair-scoring loop or sharded prefix
            join; <= 1 runs serially).
        shards: Blocking-key shards for the prefix join (0/1 = unsharded;
            output is identical for every value).
        obs: Optional :class:`~repro.obs.ObsContext`; traces the pruning
            phase (the dataset generation itself is untimed).
        candidates: Pre-built candidate set (e.g. restored from a
            ``pruning`` checkpoint); skips the pruning phase entirely.
        supervisor_policy: Fault-handling knobs for parallel pruning
            (see :class:`~repro.runtime.supervisor.SupervisorPolicy`).
        fault_plan: Deterministic process-fault injection for parallel
            pruning (chaos testing only).
    """
    setting = crowd_setting(setting_name)
    dataset = generate(dataset_name, scale=scale, seed=seed)
    if candidates is None:
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=threshold, parallel=parallel, shards=shards,
            obs=obs,
            supervisor_policy=supervisor_policy, fault_plan=fault_plan,
        )
    workers = WorkerPool(
        difficulty=difficulty_model(dataset_name),
        num_workers=setting.num_workers,
    )
    answers = AnswerFile(dataset.gold, workers)
    return Instance(
        dataset=dataset, candidates=candidates, answers=answers,
        setting=setting,
    )


@dataclass
class MethodResult:
    """One method's measurements on one instance."""

    method: str
    f1: float
    precision: float
    recall: float
    pairs_issued: float
    iterations: float
    hits: float
    num_clusters: float
    clustering: Optional[Clustering] = field(default=None, repr=False)

    def scaled_copy_without_clustering(self) -> "MethodResult":
        return replace(self, clustering=None)


def _result(method: str, instance: Instance, clustering: Clustering,
            stats: CrowdStats) -> MethodResult:
    scores = pairwise_scores(clustering, instance.dataset.gold)
    return MethodResult(
        method=method,
        f1=scores.f1,
        precision=scores.precision,
        recall=scores.recall,
        pairs_issued=float(stats.pairs_issued),
        iterations=float(stats.iterations),
        hits=float(stats.hits),
        num_clusters=float(len(clustering)),
        clustering=clustering,
    )


def _fresh_oracle(instance: Instance, obs=None) -> CrowdOracle:
    stats = CrowdStats(
        pairs_per_hit=instance.setting.pairs_per_hit,
        reward_cents_per_hit=instance.setting.reward_cents_per_hit,
        num_workers=instance.setting.num_workers,
    )
    return CrowdOracle(instance.answers, stats=stats, obs=obs)


def run_method(
    method: str,
    instance: Instance,
    seed: int = 0,
    gcer_budget: Optional[int] = None,
    epsilon: float = 0.1,
    threshold_divisor: float = 8.0,
    obs=None,
    checkpoints=None,
    resume: bool = False,
    pipeline: bool = False,
    pipeline_workers: int = 0,
) -> MethodResult:
    """Run one method on an instance and measure it.

    Args:
        method: One of :data:`ALL_METHODS` or 'Crowd-Pivot'.
        instance: The prepared instance.
        seed: Seed for randomized methods (pivot permutations).
        gcer_budget: Pair budget for GCER (required when method is GCER).
        epsilon: PC-Pivot's ε (ACD / PC-Pivot only).
        threshold_divisor: PC-Refine's ``x`` (ACD only).
        obs: Optional :class:`~repro.obs.ObsContext`.  ACD / PC-Pivot runs
            get the full phase-level trace from :func:`run_acd`; baseline
            methods run inside a single ``method`` span with their crowd
            batches traced through the oracle.
        checkpoints: Optional
            :class:`~repro.runtime.checkpoint.CheckpointStore` for
            phase-level crash safety (ACD / PC-Pivot only).
        resume: With ``checkpoints``, restore the generation phase from
            its checkpoint instead of re-running it when one exists.
        pipeline: Run ACD's cluster generation decomposed by connected
            component through
            :func:`~repro.runtime.pipeline.run_pipeline` instead of
            :func:`~repro.core.acd.run_acd`; refinement is the same
            global PC-Refine either way (ACD / PC-Pivot only — any other
            method rejects it).
        pipeline_workers: Worker processes for the pipeline pool
            (requires ``pipeline``).
    """
    ids = instance.record_ids
    if (pipeline or pipeline_workers) and method not in PIPELINE_METHODS:
        raise ValueError(
            f"pipeline applies only to {' and '.join(PIPELINE_METHODS)}, "
            f"not {method!r}"
        )
    if pipeline_workers and not pipeline:
        raise ValueError(
            "pipeline_workers requires pipeline=True: the global engines "
            "run in-process"
        )

    if method in (ACD_METHOD, PC_PIVOT_METHOD):
        options = dict(
            epsilon=epsilon, threshold_divisor=threshold_divisor,
            seed=seed, refine=(method == ACD_METHOD),
            pairs_per_hit=instance.setting.pairs_per_hit,
            obs=obs, checkpoints=checkpoints, resume=resume,
        )
        if pipeline:
            result = run_pipeline(
                instance.answers, record_ids=ids,
                candidates=instance.candidates, workers=pipeline_workers,
                **options,
            ).result
        else:
            result = run_acd(ids, instance.candidates, instance.answers,
                             **options)
        return _result(method, instance, result.clustering, result.stats)

    oracle = _fresh_oracle(instance, obs=obs)
    with maybe_span(obs, "method", method=method):
        if method == CROWD_PIVOT_METHOD:
            from repro.core.pivot import crowd_pivot
            clustering = crowd_pivot(ids, instance.candidates, oracle,
                                     seed=seed, obs=obs)
        elif method == CROWDER_METHOD:
            clustering = crowder_plus(ids, instance.candidates, oracle)
        elif method == TRANSM_METHOD:
            clustering = transm(ids, instance.candidates, oracle)
        elif method == TRANSNODE_METHOD:
            clustering = transnode(ids, instance.candidates, oracle)
        elif method == GCER_METHOD:
            if gcer_budget is None:
                raise ValueError("GCER needs gcer_budget (ACD's pair count)")
            clustering = gcer(ids, instance.candidates, oracle,
                              budget=gcer_budget)
        else:
            raise ValueError(f"unknown method {method!r}")
    return _result(method, instance, clustering, oracle.stats)


def average_results(results: Sequence[MethodResult]) -> MethodResult:
    """Mean of several runs of the same (randomized) method."""
    if not results:
        raise ValueError("cannot average zero results")
    method = results[0].method
    if any(result.method != method for result in results):
        raise ValueError("cannot average results of different methods")
    count = len(results)
    return MethodResult(
        method=method,
        f1=sum(r.f1 for r in results) / count,
        precision=sum(r.precision for r in results) / count,
        recall=sum(r.recall for r in results) / count,
        pairs_issued=sum(r.pairs_issued for r in results) / count,
        iterations=sum(r.iterations for r in results) / count,
        hits=sum(r.hits for r in results) / count,
        num_clusters=sum(r.num_clusters for r in results) / count,
    )


def run_comparison(
    instance: Instance,
    methods: Sequence[str] = ALL_METHODS,
    repetitions: int = 5,
    base_seed: int = 100,
    epsilon: float = 0.1,
    threshold_divisor: float = 8.0,
) -> Dict[str, MethodResult]:
    """Run the full method comparison of Section 6.3 on one instance.

    Randomized methods (ACD, PC-Pivot) are repeated ``repetitions`` times and
    averaged; GCER's budget is set to ACD's average pair count, as the paper
    prescribes.  ACD is always run (even if not requested) when GCER needs a
    budget.
    """
    results: Dict[str, MethodResult] = {}

    def run_randomized(method: str) -> MethodResult:
        runs = [
            run_method(
                method, instance, seed=base_seed + repetition,
                epsilon=epsilon, threshold_divisor=threshold_divisor,
            )
            for repetition in range(repetitions)
        ]
        return average_results(runs)

    needs_acd = ACD_METHOD in methods or GCER_METHOD in methods
    if needs_acd:
        results[ACD_METHOD] = run_randomized(ACD_METHOD)
    for method in methods:
        if method == ACD_METHOD or method in results:
            continue
        if method in RANDOMIZED_METHODS:
            results[method] = run_randomized(method)
        elif method == GCER_METHOD:
            budget = int(round(results[ACD_METHOD].pairs_issued))
            results[method] = run_method(
                method, instance, gcer_budget=budget
            )
        else:
            results[method] = run_method(method, instance)
    return {method: results[method] for method in methods if method in results}

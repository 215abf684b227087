"""PC-Refine (Algorithm 5): parallel crowd-based cluster refinement.

Like Crowd-Refine, but when no free (known positive benefit) operation
exists, it packs a set ``O^i`` of mutually *independent* operations — chosen
greedily by descending benefit-cost ratio, since maximizing the overall ratio
Ψ is NP-hard (Lemma 5) — up to a total crowdsourcing budget ``T``, resolves
all their unknown pairs in a single crowd batch, and applies every operation
whose confirmed benefit is positive.  ``T = N_m / x`` where
``N_m = min(|R|^2 / (2|C|), N_u)`` (Section 5.4; the paper picks x = 8).
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import Operation
from repro.core.refine import (
    BENEFIT_TOLERANCE,
    OperationCache,
    apply_free_operations,
    build_estimator,
    free_pass_seeds,
)
from repro.crowd.oracle import CrowdOracle
from repro.obs import maybe_span
from repro.pruning.candidate import CandidateSet

DEFAULT_THRESHOLD_DIVISOR = 8.0

Pair = Tuple[int, int]


@dataclass
class PCRefineDiagnostics:
    """Per-run measurements for the T experiments (Figure 10).

    Attributes:
        batch_sizes: Fresh pairs crowdsourced in each parallel round.
        operations_packed: Size of ``O^i`` per round.
        operations_applied: Confirmed-positive operations applied per round.
        free_operations_applied: Zero-cost operations applied in total.
        operation_evaluations: Benefit/cost derivations the run performed —
            cache builds + patches + refreshes (from-scratch evaluator
            walks on the :func:`repro.reference.pc_refine` oracle).  The
            refine benchmark compares the two.
        evaluation_cache: :class:`~repro.core.evaluation_cache.
            EvaluationStats` snapshot (``None`` on the reference oracle).
    """

    batch_sizes: List[int] = field(default_factory=list)
    operations_packed: List[int] = field(default_factory=list)
    operations_applied: List[int] = field(default_factory=list)
    free_operations_applied: int = 0
    operation_evaluations: int = 0
    evaluation_cache: Optional[Dict[str, float]] = None

    @property
    def rounds(self) -> int:
        return len(self.batch_sizes)

    def to_state(self) -> Dict[str, object]:
        """A JSON-safe snapshot (checkpoint payloads)."""
        return {
            "batch_sizes": list(self.batch_sizes),
            "operations_packed": list(self.operations_packed),
            "operations_applied": list(self.operations_applied),
            "free_operations_applied": self.free_operations_applied,
            "operation_evaluations": self.operation_evaluations,
            "evaluation_cache": (dict(self.evaluation_cache)
                                 if self.evaluation_cache is not None
                                 else None),
        }

    @classmethod
    def from_state(cls, state: Dict) -> "PCRefineDiagnostics":
        """Inverse of :meth:`to_state`.  The evaluation-cache snapshot is
        rebuilt in :meth:`~repro.core.evaluation_cache.EvaluationStats.
        as_dict` key order, so a snapshot that went through sorted-key
        JSON restores byte-identical (repr included)."""
        cache = state["evaluation_cache"]
        return cls(
            batch_sizes=[int(b) for b in state["batch_sizes"]],
            operations_packed=[int(p) for p in state["operations_packed"]],
            operations_applied=[int(a) for a in state["operations_applied"]],
            free_operations_applied=int(state["free_operations_applied"]),
            operation_evaluations=int(state["operation_evaluations"]),
            evaluation_cache=(_cache_key_order(cache)
                              if cache is not None else None),
        )


def _cache_key_order(cache: Dict) -> Dict:
    """An evaluation-cache snapshot in its canonical key order."""
    canonical = ("lookups", "hits", "refreshes", "evaluations", "patches",
                 "hit_rate")
    ordered = {key: cache[key] for key in canonical if key in cache}
    ordered.update((key, value) for key, value in cache.items()
                   if key not in ordered)
    return ordered


def refinement_budget(
    num_records: int,
    num_clusters: int,
    num_unknown_pairs: int,
    threshold_divisor: float = DEFAULT_THRESHOLD_DIVISOR,
) -> float:
    """The per-round crowdsourcing budget ``T`` of Section 5.4.

    ``|R|^2 / (2|C|)`` bounds the pairs needed to run all operations in one
    batch; ``N_u`` bounds what is still askable.  ``T`` is the smaller of the
    two divided by ``x`` (``threshold_divisor``).
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if threshold_divisor <= 0:
        raise ValueError(
            f"threshold_divisor must be > 0, got {threshold_divisor}"
        )
    one_batch_maximum = num_records * num_records / (2.0 * num_clusters)
    return min(one_batch_maximum, float(num_unknown_pairs)) / threshold_divisor


def _pack_independent_operations_fast(
    cache: OperationCache,
    evaluations: EvaluationCache,
    budget: float,
    ranking: str = "ratio",
    hard_budget: bool = False,
    obs=None,
) -> List[Operation]:
    """Greedy O^i construction (Algorithm 5 lines 9-14), lazily ordered:
    identical packing decisions to the oracle
    :func:`repro.reference.pack_independent_operations`.

    Scores come from the shared :class:`EvaluationCache` instead of fresh
    evaluator walks, and the full ``sort`` is replaced by a heapified
    candidate list popped in exactly the reference's sorted order
    ``(-key, repr(op))`` — the budget usually exhausts long before the
    tail, so most of the ordering work is never paid.
    """
    if ranking not in ("ratio", "benefit"):
        raise ValueError(f"ranking must be 'ratio' or 'benefit', got {ranking!r}")
    by_ratio = ranking == "ratio"
    scored: List[Tuple[float, str, int, Operation]] = []
    with maybe_span(obs, "refine.evaluate"):
        for operation in cache.operations():
            if by_ratio:
                ratio, cost = evaluations.ratio_and_cost(operation)
                if cost <= 0:
                    continue  # known benefit; handled by the free path
                key = ratio
            else:
                cost = evaluations.cost(operation)
                if cost <= 0:
                    continue
                key = evaluations.estimated_benefit(operation)
            if key > 0.0:
                scored.append((-key, repr(operation), cost, operation))
    with maybe_span(obs, "refine.pack"):
        heapq.heapify(scored)

        packed: List[Operation] = []
        touched: Set[int] = set()
        total_cost = 0
        while scored:
            if total_cost >= budget:
                break
            _, _, cost, operation = heapq.heappop(scored)
            if hard_budget and total_cost + cost > budget:
                continue
            if set(operation.touched_clusters) & touched:
                continue
            packed.append(operation)
            touched.update(operation.touched_clusters)
            total_cost += cost
    return packed


def _pc_refine_fast(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_records: int,
    threshold_divisor: float,
    num_buckets: int,
    diagnostics: Optional[PCRefineDiagnostics],
    ranking: str,
    max_refinement_pairs: Optional[int],
    obs,
) -> Clustering:
    """One :class:`OperationCache` + :class:`EvaluationCache` shared
    across rounds (free path included), free passes after the first
    seeded from the round's changes (:func:`~repro.core.refine.
    free_pass_seeds`), an incrementally maintained unknown-pair count,
    and the lazily ordered packer.  Byte-identical to
    :func:`repro.reference.pc_refine` — property-tested in
    ``tests/core/test_refine_engines.py``."""
    pairs_at_start = oracle.stats.pairs_issued
    estimator = build_estimator(candidates, oracle, num_buckets=num_buckets)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)

    # ``N_u``, seeded with one sweep and then maintained from the oracle's
    # answer log: every pair that transitions unknown -> known inside this
    # run's batches decrements it (the reference re-sweeps per round).
    num_unknown = sum(1 for pair in candidates.pairs
                      if not oracle.knows(*pair))
    answer_cursor = oracle.answer_epoch

    def finish() -> Clustering:
        if diagnostics is not None:
            stats = evaluations.stats
            diagnostics.operation_evaluations = (
                stats.evaluations + stats.patches + stats.refreshes)
            diagnostics.evaluation_cache = stats.as_dict()
        return clustering.canonicalize()

    round_index = 0
    seeds: Optional[List[Operation]] = None  # the first pass: everything
    while True:
        with maybe_span(obs, "refine.free"):
            freed = apply_free_operations(clustering, cache, evaluations,
                                          seeds=seeds)
        if diagnostics is not None:
            diagnostics.free_operations_applied += freed
        if obs is not None and freed:
            obs.metrics.counter(
                "refine_free_operations_total",
                help="Zero-cost refinement operations applied",
            ).inc(freed)

        spent = oracle.stats.pairs_issued - pairs_at_start
        if max_refinement_pairs is not None and spent >= max_refinement_pairs:
            return finish()

        budget = refinement_budget(
            num_records, max(1, len(clustering)), num_unknown,
            threshold_divisor=threshold_divisor,
        )
        if max_refinement_pairs is not None:
            budget = min(budget, float(max_refinement_pairs - spent))
        packed = _pack_independent_operations_fast(
            cache, evaluations, budget, ranking=ranking,
            hard_budget=max_refinement_pairs is not None, obs=obs,
        )
        if not packed:
            return finish()

        # One crowd batch resolves every packed operation's unknown pairs.
        with maybe_span(obs, "refine.crowd"):
            needed: Set[Pair] = set()
            for operation in packed:
                needed.update(evaluations.unknown_pairs(operation))
            answers = oracle.ask_batch(sorted(needed))
            for pair in oracle.answers_since(answer_cursor):
                if pair in candidates:
                    num_unknown -= 1
            answer_cursor = oracle.answer_epoch
            for pair, crowd_score in answers.items():
                if pair in candidates:
                    estimator.add_sample(
                        pair, candidates.machine_scores[pair], crowd_score
                    )

        with maybe_span(obs, "refine.apply"):
            applied = 0
            changed: Set[int] = set()
            for operation in packed:
                benefit = evaluations.exact_benefit(operation)
                if benefit is not None and benefit > BENEFIT_TOLERANCE:
                    changed |= cache.apply(operation)
                    applied += 1
            seeds = free_pass_seeds(cache, evaluations, changed)
        if diagnostics is not None:
            diagnostics.batch_sizes.append(len(needed))
            diagnostics.operations_packed.append(len(packed))
            diagnostics.operations_applied.append(applied)
        round_index += 1
        if obs is not None:
            obs.metrics.counter(
                "refine_rounds_total",
                help="PC-Refine parallel rounds executed",
            ).inc()
            obs.event(
                "refine.round",
                round=round_index,
                budget=budget,
                batch_pairs=len(needed),
                packed=len(packed),
                applied=applied,
                clusters=len(clustering),
                histogram_samples=len(estimator),
                histogram_buckets=estimator.num_buckets,
            )
        if applied == 0:
            return finish()


def pc_refine(
    clustering: Clustering,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    num_records: Optional[int] = None,
    threshold_divisor: float = DEFAULT_THRESHOLD_DIVISOR,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    diagnostics: Optional[PCRefineDiagnostics] = None,
    ranking: str = "ratio",
    max_refinement_pairs: Optional[int] = None,
    obs=None,
) -> Clustering:
    """Run PC-Refine; refines ``clustering`` in place and returns it.

    The returned clustering is *canonicalized*: cluster ids are
    renumbered ``0..n-1`` ascending by smallest member (see
    :meth:`~repro.core.clustering.Clustering.canonicalize`), so any two
    runs that produce the same partition also produce byte-identical
    ids.

    Args:
        clustering: Phase-2 output ``C`` (mutated).
        candidates: The candidate set ``S`` with machine scores.
        oracle: Crowd access carrying the phase-2 answer set ``A``.
        num_records: ``|R|`` for the budget formula; defaults to the number
            of records in the clustering.
        threshold_divisor: The ``x`` in ``T = N_m / x`` (paper: 8).
        num_buckets: Histogram granularity ``m`` (paper: 20).
        diagnostics: Optional sink for per-round measurements.
        ranking: Operation ranking — "ratio" (the paper's benefit-cost
            ratio) or "benefit" (cost-blind ablation).
        max_refinement_pairs: Optional hard cap on the pairs this phase may
            crowdsource (beyond the paper: a practical total-budget knob).
            With a cap in place the packer only admits operations whose
            costs still fit; free operations keep applying after the cap
            is exhausted.
        obs: Optional :class:`~repro.obs.ObsContext`; each parallel round
            emits a ``refine.round`` event (budget ``T``, packed batch,
            applied count, histogram state) and bumps the round / free
            counters, and its five stages run in spans:
            ``refine.free`` (zero-cost path), ``refine.evaluate``
            (benefit/cost scoring), ``refine.pack`` (greedy packing),
            ``refine.crowd`` (batch + histogram) and ``refine.apply``
            (confirmed application) — the breakdown ``bench_refine``
            reports.
    """
    if num_records is None:
        num_records = clustering.num_records
    if max_refinement_pairs is not None and max_refinement_pairs < 0:
        raise ValueError(
            f"max_refinement_pairs must be >= 0, got {max_refinement_pairs}"
        )
    return _pc_refine_fast(clustering, candidates, oracle, num_records,
                           threshold_divisor, num_buckets, diagnostics,
                           ranking, max_refinement_pairs, obs)

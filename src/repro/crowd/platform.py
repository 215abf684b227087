"""A discrete-event crowdsourcing platform simulator.

The other modules of this package model *aspects* of AMT — error rates
(:mod:`worker`), named workers (:mod:`workforce`), packing (:mod:`hits`),
timing (:mod:`latency`).  This module puts them together into one engine
with the actual platform mechanics:

- a batch of record pairs is packed into HITs, each requiring
  ``assignments_per_hit`` distinct workers;
- a finite pool of concurrent workers picks up available assignments
  (never the same HIT twice — the AMT constraint), works through them with
  per-worker speeds, and submits votes drawn from the worker's reliability
  and the pair's difficulty;
- the batch completes when its last assignment is submitted; the platform
  keeps the full audit trail: per-pair attributed votes, per-worker
  earnings, per-batch timeline.

A :class:`~repro.crowd.faults.FaultModel` makes the engine hostile:
assignments can be abandoned or time out (they requeue with exponential
backoff under a bounded repost budget), outage windows stall pickups and
submissions, replacement workers are recruited when a HIT runs out of
eligible pool workers, early quorum stops collecting votes once a HIT's
majorities are unbeatable, and HITs that exhaust their budget surface as
*degraded* pairs.  All fault randomness lives on a separate seed stream,
so a null fault model reproduces the fault-free engine byte for byte.

:class:`PlatformAnswerFile` is the answer file over the platform
(overriding ``confidence_batch``), so the entire algorithm
stack runs on it unchanged while the platform accumulates vote-level data
(ready for :func:`~repro.crowd.truth_inference.dawid_skene`), money, and
wall-clock time.  It also carries the degradation fallback (serve the
machine score, flagged, for pairs the crowd never answered) and exposes
fault counters for :class:`~repro.crowd.stats.CrowdStats`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.crowd.cache import (
    AnswerFile,
    Fallback,
    Pair,
    as_fallback,
    fallback_confidence,
)
from repro.crowd.faults import (
    ABANDONED,
    FaultEvent,
    FaultModel,
    UnansweredPairError,
)
from repro.crowd.seeding import stable_rng
from repro.crowd.stats import FAULT_COUNTERS
from repro.crowd.worker import DifficultyModel
from repro.crowd.workforce import SimulatedWorker, Workforce
from repro.datasets.schema import GoldStandard, canonical_pair


@dataclass(frozen=True)
class Assignment:
    """One worker's completed pass over one HIT.

    Attributes:
        hit_index: HIT index within its batch.
        worker_id: The worker who did it.
        started_at: Simulation time the worker began (seconds).
        submitted_at: Simulation time of submission.
        votes: ``(pair, voted_duplicate)`` per pair in the HIT.
    """

    hit_index: int
    worker_id: int
    started_at: float
    submitted_at: float
    votes: Tuple[Tuple[Pair, bool], ...]


@dataclass
class BatchReceipt:
    """Everything one posted batch produced.

    Attributes:
        batch_index: Sequential batch number on this platform.
        pairs: The pairs posted (canonical, sorted).
        confidences: Pair -> duplicate-vote fraction (over the votes
            actually collected; absent for unanswered pairs).
        assignments: The full assignment audit trail.
        posted_at: Simulation time the batch was posted.
        completed_at: Simulation time the last assignment landed.
        cost_cents: Worker payments for this batch.
        fault_events: Assignment failures, in observation order.
        degraded_pairs: Pairs whose HIT gave up (repost budget exhausted or
            pool starved) before collecting the full vote count.
        unanswered_pairs: The degraded subset that collected zero votes.
        reposts: Assignment slots requeued after a failure.
        quorum_stops: HITs closed early because every majority was
            mathematically unbeatable.
        recruited_workers: Replacement workers pulled in beyond the
            original pool.
    """

    batch_index: int
    pairs: Tuple[Pair, ...]
    confidences: Dict[Pair, float]
    assignments: List[Assignment]
    posted_at: float
    completed_at: float
    cost_cents: float
    fault_events: Tuple[FaultEvent, ...] = ()
    degraded_pairs: Tuple[Pair, ...] = ()
    unanswered_pairs: Tuple[Pair, ...] = ()
    reposts: int = 0
    quorum_stops: int = 0
    recruited_workers: int = 0

    @property
    def duration_seconds(self) -> float:
        return self.completed_at - self.posted_at

    def timeline(self) -> List[Tuple[float, str]]:
        """The batch's event timeline: ``(time, description)`` sorted."""
        events: List[Tuple[float, str]] = [
            (self.posted_at, f"batch {self.batch_index} posted "
                             f"({len(self.pairs)} pairs)"),
        ]
        for assignment in self.assignments:
            events.append((
                assignment.submitted_at,
                f"hit {assignment.hit_index} submitted by "
                f"worker {assignment.worker_id}",
            ))
        for fault in self.fault_events:
            events.append((
                fault.at,
                f"hit {fault.hit_index} {fault.kind} by "
                f"worker {fault.worker_id} (requeued)",
            ))
        events.append((self.completed_at,
                       f"batch {self.batch_index} collected"))
        return sorted(events, key=lambda event: event[0])


class PlatformSimulator:
    """The discrete-event engine.

    Args:
        workforce: The worker population; ``concurrent_workers`` of them
            are active at any time (chosen per batch, deterministically).
        gold: Ground truth (used only to synthesize votes).
        difficulty: Shared pair-difficulty model.
        pairs_per_hit: HIT packing factor.
        assignments_per_hit: Distinct workers required per HIT.
        concurrent_workers: Active worker pool size.
        mean_seconds_per_hit: Mean assignment duration (lognormal, scaled
            by a per-worker speed factor).
        reward_cents_per_hit: Payment per assignment.
        posting_overhead_seconds: Fixed time to post a batch and collect
            its results.
        seed: Engine seed (mixed with the workforce seed).
        fault_model: Injected failures (``None`` = the null model; the
            engine is then byte-identical to the fault-free simulator).
    """

    def __init__(
        self,
        workforce: Workforce,
        gold: GoldStandard,
        difficulty: DifficultyModel,
        pairs_per_hit: int = 20,
        assignments_per_hit: int = 3,
        concurrent_workers: int = 10,
        mean_seconds_per_hit: float = 90.0,
        reward_cents_per_hit: float = 2.0,
        posting_overhead_seconds: float = 120.0,
        seed: int = 0,
        fault_model: Optional[FaultModel] = None,
    ):
        if assignments_per_hit < 1:
            raise ValueError("assignments_per_hit must be >= 1")
        if concurrent_workers < assignments_per_hit:
            raise ValueError(
                "need at least assignments_per_hit concurrent workers "
                f"({concurrent_workers} < {assignments_per_hit})"
            )
        if concurrent_workers > len(workforce):
            raise ValueError(
                f"concurrent_workers {concurrent_workers} exceeds the "
                f"workforce size {len(workforce)}"
            )
        if pairs_per_hit < 1:
            raise ValueError("pairs_per_hit must be >= 1")
        self._workforce = workforce
        self._gold = gold
        self._difficulty = difficulty
        self.pairs_per_hit = pairs_per_hit
        self.assignments_per_hit = assignments_per_hit
        self.concurrent_workers = concurrent_workers
        self.mean_seconds_per_hit = mean_seconds_per_hit
        self.reward_cents_per_hit = reward_cents_per_hit
        self.posting_overhead_seconds = posting_overhead_seconds
        self.seed = seed
        self.fault_model = (fault_model if fault_model is not None
                            else FaultModel.none())

        self.clock_seconds = 0.0
        self.receipts: List[BatchReceipt] = []
        self._batch_offset = 0
        self._earnings: Dict[int, float] = {}
        self._worker_speed: Dict[int, float] = {}
        speed_rng = stable_rng(seed, "speeds", workforce.seed)
        for worker in workforce:
            # Per-worker pace: faster and slower workers, lognormal-ish.
            self._worker_speed[worker.worker_id] = speed_rng.uniform(0.6, 1.6)

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------

    def skip_batches(self, count: int) -> None:
        """Advance the batch counter without posting (crash-safe resume).

        A resumed run replays its first ``count`` batches from a journal
        instead of re-posting them; skipping keeps the per-batch seed
        stream aligned, so the run's *fresh* batches draw the same votes
        they would have drawn uninterrupted.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._batch_offset += count

    def post_batch(self, pairs: Iterable[Pair]) -> BatchReceipt:
        """Post one batch and simulate it to completion.

        Returns the batch receipt; the platform clock advances to the
        batch's completion (plus posting overhead).  Under a non-null
        fault model, failed assignments are requeued with backoff; pairs
        of HITs that exhaust their repost budget are reported in
        ``degraded_pairs`` / ``unanswered_pairs`` instead of raising.
        """
        canonical = sorted({canonical_pair(*pair) for pair in pairs})
        batch_index = self._batch_offset + len(self.receipts)
        posted_at = self.clock_seconds
        if not canonical:
            receipt = BatchReceipt(
                batch_index=batch_index, pairs=(), confidences={},
                assignments=[], posted_at=posted_at, completed_at=posted_at,
                cost_cents=0.0,
            )
            self.receipts.append(receipt)
            return receipt

        fault = self.fault_model
        faulty = not fault.is_null
        # Fault decisions draw from their own stream: the vote/timing
        # stream below is untouched, so a null model replays byte-for-byte.
        fault_rng = (stable_rng(self.seed, "faults", batch_index,
                                len(canonical)) if faulty else None)

        rng = stable_rng(self.seed, "batch", batch_index, len(canonical))
        hits: List[List[Pair]] = [
            canonical[start:start + self.pairs_per_hit]
            for start in range(0, len(canonical), self.pairs_per_hit)
        ]
        num_hits = len(hits)
        remaining = {index: self.assignments_per_hit
                     for index in range(num_hits)}
        done_by: Dict[int, set] = {index: set() for index in range(num_hits)}
        available_at = {index: posted_at for index in range(num_hits)}
        reposts = {index: 0 for index in range(num_hits)}
        collected = {index: 0 for index in range(num_hits)}
        given_up: Set[int] = set()
        duplicate_votes: Dict[Pair, int] = {pair: 0 for pair in canonical}
        fault_events: List[FaultEvent] = []
        quorum_stops = 0
        recruited = 0

        pool: List[SimulatedWorker] = rng.sample(
            self._workforce.workers(), self.concurrent_workers
        )
        pool_ids = {worker.worker_id for worker in pool}
        # Event queue: (free_at_time, tiebreak, worker).
        queue: List[Tuple[float, int, SimulatedWorker]] = [
            (posted_at, index, worker) for index, worker in enumerate(pool)
        ]
        heapq.heapify(queue)
        next_tiebreak = len(pool)

        mu = math.log(self.mean_seconds_per_hit) - 0.35 ** 2 / 2.0
        assignments: List[Assignment] = []
        completed_at = posted_at
        while queue:
            free_at, tiebreak, worker = heapq.heappop(queue)
            started_at = (fault.delay_past_outage(free_at) if faulty
                          else free_at)
            # First HIT still needing assignments this worker hasn't done
            # and whose backoff (if any) has elapsed.
            chosen: Optional[int] = None
            wait_until: Optional[float] = None
            for index in range(num_hits):
                if (remaining[index] > 0
                        and worker.worker_id not in done_by[index]):
                    if available_at[index] <= started_at:
                        chosen = index
                        break
                    if wait_until is None or available_at[index] < wait_until:
                        wait_until = available_at[index]
            if chosen is None:
                if wait_until is not None:
                    # Every open HIT is backing off: wait for the earliest.
                    heapq.heappush(queue, (wait_until, tiebreak, worker))
                continue  # worker leaves; nothing left for them
            duration = (rng.lognormvariate(mu, 0.35)
                        * self._worker_speed[worker.worker_id])
            failure = (fault.assignment_failure(fault_rng, duration)
                       if faulty else None)
            if failure is not None:
                kind, elapsed = failure
                failed_at = started_at + elapsed
                fault_events.append(FaultEvent(
                    batch_index=batch_index, hit_index=chosen,
                    worker_id=worker.worker_id, kind=kind, at=failed_at,
                ))
                done_by[chosen].add(worker.worker_id)
                completed_at = max(completed_at, failed_at)
                heapq.heappush(queue, (failed_at, tiebreak, worker))
                reposts[chosen] += 1
                if reposts[chosen] > fault.max_reposts:
                    given_up.add(chosen)
                    remaining[chosen] = 0
                    if all(count == 0 for count in remaining.values()):
                        break
                    continue
                available_at[chosen] = (
                    failed_at + fault.backoff_seconds(reposts[chosen])
                )
                if not pool_ids - done_by[chosen]:
                    # No pool worker may retake this HIT: recruit a
                    # replacement from the wider workforce (stable order).
                    replacement = next(
                        (candidate for candidate in self._workforce.workers()
                         if candidate.worker_id not in pool_ids), None)
                    if replacement is None:
                        given_up.add(chosen)
                        remaining[chosen] = 0
                        if all(count == 0 for count in remaining.values()):
                            break
                    else:
                        pool_ids.add(replacement.worker_id)
                        recruited += 1
                        heapq.heappush(queue, (available_at[chosen],
                                               next_tiebreak, replacement))
                        next_tiebreak += 1
                continue
            submitted_at = started_at + duration
            if faulty:
                submitted_at = fault.delay_past_outage(submitted_at)
            votes = []
            for pair in hits[chosen]:
                truth = self._gold.is_duplicate(*pair)
                error = worker.error_probability(
                    self._difficulty.error_probability(*pair)
                )
                wrong = rng.random() < error
                voted_duplicate = truth != wrong
                if voted_duplicate:
                    duplicate_votes[pair] += 1
                votes.append((pair, voted_duplicate))
            assignments.append(Assignment(
                hit_index=chosen, worker_id=worker.worker_id,
                started_at=started_at, submitted_at=submitted_at,
                votes=tuple(votes),
            ))
            remaining[chosen] -= 1
            collected[chosen] += 1
            done_by[chosen].add(worker.worker_id)
            self._earnings[worker.worker_id] = (
                self._earnings.get(worker.worker_id, 0.0)
                + self.reward_cents_per_hit
            )
            completed_at = max(completed_at, submitted_at)
            heapq.heappush(queue, (submitted_at, tiebreak, worker))
            if (faulty and fault.early_quorum and remaining[chosen] > 0
                    and self._hit_decided(hits[chosen], duplicate_votes,
                                          collected[chosen])):
                quorum_stops += 1
                remaining[chosen] = 0
            if all(count == 0 for count in remaining.values()):
                break

        starved = [index for index in range(num_hits) if remaining[index] > 0]
        if starved:
            if not faulty:
                raise RuntimeError(
                    "batch starved: not enough distinct workers for the "
                    "required assignments"
                )
            for index in starved:
                given_up.add(index)
                remaining[index] = 0

        confidences: Dict[Pair, float] = {}
        degraded: List[Pair] = []
        unanswered: List[Pair] = []
        for index, hit_pairs in enumerate(hits):
            if collected[index] == 0:
                unanswered.extend(hit_pairs)
                degraded.extend(hit_pairs)
                continue
            if (index in given_up
                    and collected[index] < self.assignments_per_hit):
                degraded.extend(hit_pairs)
            for pair in hit_pairs:
                confidences[pair] = duplicate_votes[pair] / collected[index]
        cost = len(assignments) * self.reward_cents_per_hit
        completed_at += self.posting_overhead_seconds
        receipt = BatchReceipt(
            batch_index=batch_index, pairs=tuple(canonical),
            confidences=confidences, assignments=assignments,
            posted_at=posted_at, completed_at=completed_at,
            cost_cents=cost,
            fault_events=tuple(fault_events),
            degraded_pairs=tuple(sorted(degraded)),
            unanswered_pairs=tuple(sorted(unanswered)),
            reposts=sum(reposts.values()),
            quorum_stops=quorum_stops,
            recruited_workers=recruited,
        )
        self.receipts.append(receipt)
        self.clock_seconds = completed_at
        return receipt

    def _hit_decided(self, hit_pairs: Sequence[Pair],
                     duplicate_votes: Mapping[Pair, int],
                     collected: int) -> bool:
        """Is every pair's majority verdict already unbeatable?

        With ``planned = assignments_per_hit`` votes intended, a pair is
        decided when its duplicate votes already exceed ``planned / 2``
        (duplicate majority secured) or cannot reach it even if every
        outstanding vote says duplicate (non-duplicate secured).  Stopping
        early never flips the verdict the full collection would reach.
        """
        planned = self.assignments_per_hit
        for pair in hit_pairs:
            dup = duplicate_votes[pair]
            if 2 * dup > planned:
                continue
            if 2 * (dup + planned - collected) <= planned:
                continue
            return False
        return True

    # ------------------------------------------------------------------
    # Audit queries
    # ------------------------------------------------------------------

    def total_cost_cents(self) -> float:
        return sum(receipt.cost_cents for receipt in self.receipts)

    def fault_events(self) -> List[FaultEvent]:
        """Every assignment failure across all batches, in order."""
        return [event for receipt in self.receipts
                for event in receipt.fault_events]

    def degraded_pairs(self) -> Set[Pair]:
        """Pairs that ever came back degraded (a copy)."""
        return {pair for receipt in self.receipts
                for pair in receipt.degraded_pairs}

    def earnings(self) -> Dict[int, float]:
        """Per-worker lifetime earnings in cents (a copy)."""
        return dict(self._earnings)

    def all_votes(self) -> Dict[Pair, List[Tuple[int, bool]]]:
        """Every pair's attributed votes across all batches — ready for
        :func:`~repro.crowd.truth_inference.dawid_skene`."""
        votes: Dict[Pair, List[Tuple[int, bool]]] = {}
        for receipt in self.receipts:
            for assignment in receipt.assignments:
                for pair, vote in assignment.votes:
                    votes.setdefault(pair, []).append(
                        (assignment.worker_id, vote)
                    )
        return votes


class PlatformAnswerFile(AnswerFile):
    """Answer file over a :class:`PlatformSimulator`.

    Overrides ``confidence_batch``, so a
    :class:`~repro.crowd.oracle.CrowdOracle` posts each fresh batch to the
    platform as one batch of HITs; single-pair ``confidence`` calls become
    one-pair batches.  Previously answered pairs are served from memory
    (the platform is never asked twice).

    Args:
        platform: The backing simulator.
        fallback: Degradation policy for pairs the crowd never answered
            (repost budget exhausted with zero votes): a mapping or
            callable from pair to machine confidence.  Without one, an
            unanswered pair raises
            :class:`~repro.crowd.faults.UnansweredPairError`.
    """

    #: Votes depend on each batch's position on the platform, not on the
    #: pair alone.
    pair_deterministic = False

    def __init__(self, platform: PlatformSimulator,
                 fallback: Optional[Fallback] = None):
        self._platform = platform
        self.num_workers = platform.assignments_per_hit
        self._answers = {}
        self._fallback = as_fallback(fallback)
        self._degraded: Set[Pair] = set()
        self._pending_faults: Dict[str, int] = dict.fromkeys(
            FAULT_COUNTERS, 0)

    @property
    def platform(self) -> PlatformSimulator:
        """The backing simulator (for audit queries)."""
        return self._platform

    def skip_batches(self, count: int) -> None:
        """Fast-forward the platform's batch counter (crash-safe resume);
        see :meth:`PlatformSimulator.skip_batches`."""
        self._platform.skip_batches(count)

    def _vote(self, pair: Pair) -> float:
        return self.confidence_batch([pair])[pair]

    def confidence_batch(self, pairs: Sequence[Pair]) -> Dict[Pair, float]:
        requested = [canonical_pair(*pair) for pair in pairs]
        fresh = [pair for pair in requested if pair not in self._answers]
        if fresh:
            receipt = self._platform.post_batch(fresh)
            self._answers.update(receipt.confidences)
            self._degraded.update(receipt.degraded_pairs)
            for pair in receipt.unanswered_pairs:
                self._answers[pair] = self._fallback_confidence(pair)
            self._pending_faults["retries"] += receipt.reposts
            for event in receipt.fault_events:
                key = ("abandonments" if event.kind == ABANDONED
                       else "timeouts")
                self._pending_faults[key] += 1
            self._pending_faults["degraded_pairs"] += len(
                receipt.degraded_pairs)
            self._pending_faults["quorum_stops"] += receipt.quorum_stops
        return {pair: self._answers[pair] for pair in requested}

    def _fallback_confidence(self, pair: Pair) -> float:
        if self._fallback is None:
            raise UnansweredPairError(pair)
        try:
            return fallback_confidence(self._fallback, pair)
        except KeyError:
            raise UnansweredPairError(pair) from None

    def degraded_pairs(self) -> Set[Pair]:
        """Pairs served degraded (partial votes or machine fallback)."""
        return set(self._degraded)

    def drain_fault_counters(self) -> Dict[str, int]:
        """Fault counters accumulated since the last drain (then reset).

        :class:`~repro.crowd.oracle.CrowdOracle` calls this after every
        batch and folds the counts into its
        :class:`~repro.crowd.stats.CrowdStats`.
        """
        counters = {key: value for key, value in
                    self._pending_faults.items() if value}
        self._pending_faults = dict.fromkeys(FAULT_COUNTERS, 0)
        return counters

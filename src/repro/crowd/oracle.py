"""The crowd oracle: the only interface algorithms use to reach the crowd.

A :class:`CrowdOracle` wraps a shared :class:`~repro.crowd.cache.AnswerFile`
(so every method replays identical answers) and a per-run
:class:`~repro.crowd.stats.CrowdStats` (so each method's costs are accounted
separately).  Batched queries model crowd iterations: one ``ask_batch`` call
that issues at least one *new* pair counts as one crowd iteration.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.crowd.cache import AnswerFile
from repro.crowd.stats import CrowdStats
from repro.datasets.schema import canonical_pair

Pair = Tuple[int, int]


class CrowdOracle:
    """Per-run view onto the shared crowd answers, with cost accounting.

    The oracle also exposes the set ``A`` of already-crowdsourced pairs and
    their confidences, which the refinement phase needs (Algorithm 4 takes
    ``A`` as input).
    """

    def __init__(self, answers: AnswerFile, stats: Optional[CrowdStats] = None,
                 obs=None):
        """Args:
        answers: The shared crowd answer source ``F``.
        stats: Per-run cost counters (fresh ones when ``None``).
        obs: Optional :class:`~repro.obs.ObsContext`; when attached,
            every crowd iteration emits a ``crowd.batch`` trace event and
            updates the crowd counters in the metrics registry.  ``None``
            (the default) observes nothing and costs nothing.
        """
        self._answers = answers
        self.stats = stats if stats is not None else CrowdStats(
            num_workers=answers.num_workers
        )
        self._known: Dict[Pair, float] = {}
        # Append-only log of pairs as they transitioned unknown -> known.
        # Incremental consumers keep a cursor into it (``answers_since``)
        # instead of re-scanning the whole of ``A`` for deltas.
        self._answer_log: List[Pair] = []
        self._obs = obs

    @property
    def num_workers(self) -> int:
        return self._answers.num_workers

    @property
    def source(self):
        """The underlying answer source this oracle crowdsources through."""
        return self._answers

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def ask(self, record_a: int, record_b: int) -> float:
        """Crowdsource a single pair (its own one-pair batch if new).

        Returns the crowd confidence ``f_c`` in [0, 1].
        """
        return self.ask_batch([(record_a, record_b)])[canonical_pair(record_a, record_b)]

    def ask_batch(self, pairs: Iterable[Pair]) -> Dict[Pair, float]:
        """Crowdsource a batch of pairs in one crowd iteration.

        Pairs already answered in this run are served from ``A`` for free;
        the batch costs one iteration iff it contains at least one new pair.

        When the answer source implements ``confidence_batch(pairs)`` (a
        live crowd client posting whole HIT batches at once), the fresh
        pairs are delivered in a single call; otherwise each fresh pair is
        resolved through ``confidence(a, b)``.

        Returns:
            Mapping from canonical pair to crowd confidence, covering every
            requested pair (new and previously known).
        """
        requested: List[Pair] = [canonical_pair(a, b) for a, b in pairs]
        fresh: Set[Pair] = {pair for pair in requested if pair not in self._known}
        if fresh:
            batch_resolver = getattr(self._answers, "confidence_batch", None)
            if batch_resolver is not None:
                resolved = batch_resolver(sorted(fresh))
                for pair in fresh:
                    self._known[pair] = resolved[pair]
            else:
                for pair in fresh:
                    self._known[pair] = self._answers.confidence(*pair)
            self._answer_log.extend(sorted(fresh))
            self._drain_fault_counters()
        self.stats.record_batch(len(fresh))
        if self._obs is not None and fresh:
            self._observe_batch(len(fresh))
        return {pair: self._known[pair] for pair in requested}

    def _observe_batch(self, fresh_pairs: int) -> None:
        """Mirror one paid crowd iteration into the attached ObsContext.

        The span/metric layer wraps the existing accounting — the numbers
        are read *from* :class:`CrowdStats` after ``record_batch``, never
        computed twice — so the rollup in a manifest always equals the
        stats snapshot.
        """
        metrics = self._obs.metrics
        metrics.counter(
            "crowd_pairs_issued_total",
            help="Unique record pairs sent to the crowd",
        ).inc(fresh_pairs)
        metrics.counter(
            "crowd_iterations_total",
            help="Crowd iterations (HIT batches posted and awaited)",
        ).inc()
        hits = metrics.counter("crowd_hits_total", help="HITs posted")
        hits.inc(self.stats.hits - hits.value)
        votes = metrics.counter(
            "crowd_votes_total", help="Worker judgements collected",
        )
        votes.inc(self.stats.votes - votes.value)
        metrics.histogram(
            "crowd_batch_pairs", help="Fresh pairs per crowd iteration",
        ).observe(fresh_pairs)
        self._obs.event(
            "crowd.batch",
            pairs=fresh_pairs,
            iteration=self.stats.iterations,
            pairs_issued_total=self.stats.pairs_issued,
            hits_total=self.stats.hits,
        )

    def _drain_fault_counters(self) -> None:
        """Fold the answer source's crowd-side failures into the stats.

        Fault-injecting sources (a platform with a
        :class:`~repro.crowd.faults.FaultModel`, or a journaling wrapper
        replaying one) expose ``drain_fault_counters()``; plain sources
        don't, and cost nothing here.
        """
        drain = getattr(self._answers, "drain_fault_counters", None)
        if drain is None:
            return
        counters = drain()
        if counters:
            self.stats.record_faults(**counters)

    def degraded_pairs(self) -> frozenset:
        """Pairs the answer source served degraded (empty for fault-free
        sources)."""
        source = getattr(self._answers, "degraded_pairs", None)
        if source is None:
            return frozenset()
        return frozenset(source())

    # ------------------------------------------------------------------
    # The known-answer set A
    # ------------------------------------------------------------------

    def knows(self, record_a: int, record_b: int) -> bool:
        """True iff the pair has already been crowdsourced in this run."""
        return canonical_pair(record_a, record_b) in self._known

    def known_confidence(self, record_a: int, record_b: int) -> Optional[float]:
        """The confidence for a pair if already crowdsourced, else ``None``.

        Never triggers crowdsourcing — safe to call when only *checking*
        whether a benefit is computable without cost.
        """
        return self._known.get(canonical_pair(record_a, record_b))

    @property
    def known_map(self) -> Mapping[Pair, float]:
        """A read-only live view of ``A`` keyed by canonical pair — one
        ``get`` per pair for hot loops that already hold canonical pairs."""
        return MappingProxyType(self._known)

    def known_pairs(self) -> Dict[Pair, float]:
        """A copy of the answered-pair set ``A`` with confidences."""
        return dict(self._known)

    def known_in_order(self) -> List[Tuple[Pair, float]]:
        """``A`` as (pair, confidence) in the order pairs became known —
        the checkpointable form: replaying it through :meth:`seed_known`
        reproduces both ``A`` and the answer log exactly."""
        return [(pair, self._known[pair]) for pair in self._answer_log]

    def seed_known(self, answers: Dict[Pair, float]) -> None:
        """Pre-populate ``A`` without cost (hand-off between phases:
        the refinement phase starts with the generation phase's answers)."""
        for (a, b), confidence in answers.items():
            pair = canonical_pair(a, b)
            if pair not in self._known:
                self._answer_log.append(pair)
            self._known[pair] = confidence

    @property
    def answer_epoch(self) -> int:
        """Length of the answer log; grows by one per newly known pair.

        ``A`` is append-only within a run (answers are cached, never
        revised), so a cursor taken at epoch ``e`` plus
        :meth:`answers_since` fully reconstructs every later transition.
        """
        return len(self._answer_log)

    def answers_since(self, cursor: int) -> List[Pair]:
        """The pairs that became known after ``cursor`` (a prior
        :attr:`answer_epoch` value), in arrival order."""
        return self._answer_log[cursor:]

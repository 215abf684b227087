"""The pruning phase: build the candidate set ``S``.

Phase 1 of ACD (Section 3): score record pairs with a machine similarity
``f`` and keep pairs with ``f > τ`` (paper: Jaccard, τ = 0.3).  The result is
a :class:`CandidateSet` carrying both the surviving pairs and their machine
scores — the scores feed the refinement phase's histogram estimator and
several baselines' pair orderings.

Paths
-----
``build_candidate_set`` produces ``S`` one of two ways, chosen by the input
alone (:func:`_prefix_join_eligible`):

* the length- and prefix-filtered set-similarity join
  (:func:`repro.pruning.shard.sharded_prefix_filtered_candidates`) for
  set-overlap metrics whose blocking domain matches, for which it provably
  produces the same :class:`CandidateSet` as scoring every blocked pair;
  ``shards`` > 1 partitions it by blocking key (and, with ``parallel``,
  across worker processes) without changing a byte of the output;
* otherwise the enumerate-and-score loop: token blocking / all pairs /
  caller-supplied pairs, each pair scored once, in this process.  It is
  the only path for edit-distance and q-gram-under-blocking metrics and
  for external ``candidate_pairs``.

The test oracles :func:`repro.reference.candidate_set` (the scoring loop
on every input) and :func:`repro.reference.prefix_filtered_candidates` (the
join one record at a time over Python frozensets) pin both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datasets.schema import Record, canonical_pair
from repro.obs import maybe_span
from repro.pruning.blocking import all_pairs, token_blocking_pairs
from repro.pruning.shard import _sharded_join
from repro.runtime.supervisor import RuntimeReport
from repro.similarity.composite import SET_METRIC_FUNCTIONS, SimilarityFunction

Pair = Tuple[int, int]

DEFAULT_THRESHOLD = 0.3


@dataclass(frozen=True)
class CandidateSet:
    """The pruning phase's output: pairs with machine score above τ.

    Attributes:
        pairs: Canonical pairs, sorted for determinism.
        machine_scores: Machine similarity ``f`` for every pair in ``pairs``.
        threshold: The τ used to build this set.
        runtime: Telemetry of the worker pool that built it (all zeros
            when pruning ran in this process, and for a set restored or
            built by hand); not part of equality.
    """

    pairs: Tuple[Pair, ...]
    machine_scores: Dict[Pair, float]
    threshold: float
    runtime: RuntimeReport = field(default_factory=RuntimeReport,
                                   compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return canonical_pair(*pair) in self.machine_scores

    def score(self, record_a: int, record_b: int) -> float:
        """Machine score of a pair; 0.0 if the pair was pruned.

        The paper defines ``f_c = 0`` for pruned pairs; returning 0 for the
        machine score mirrors that convention for estimation purposes.
        """
        return self.machine_scores.get(canonical_pair(record_a, record_b), 0.0)

    def sorted_by_score(self, descending: bool = True) -> List[Pair]:
        """Pairs ordered by machine score (TransM issues pairs this way)."""
        return sorted(
            self.pairs,
            key=lambda pair: (self.machine_scores[pair], pair),
            reverse=descending,
        )


def _prefix_join_eligible(
    similarity: SimilarityFunction,
    candidate_pairs: Optional[Iterable[Pair]],
    use_token_blocking: bool,
) -> bool:
    """Whether the prefix join provably reproduces the scoring loop's
    output (and so is the path :func:`build_candidate_set` takes).

    Caller-supplied pairs restrict scoring arbitrarily — never joinable.
    With token blocking on, the join is equivalent only when the metric
    compares *word-token* sets (the blocking domain); with blocking off the
    join matches all-pairs on any set domain once empty-set pairs are added.
    """
    if candidate_pairs is not None or similarity.set_metric is None:
        return False
    if use_token_blocking:
        return similarity.set_domain == "word"
    return True


def build_candidate_set(
    records: Sequence[Record],
    similarity: SimilarityFunction,
    threshold: float = DEFAULT_THRESHOLD,
    candidate_pairs: Optional[Iterable[Pair]] = None,
    use_token_blocking: bool = True,
    parallel: int = 0,
    shards: int = 0,
    obs=None,
    supervisor_policy=None,
    fault_plan=None,
) -> CandidateSet:
    """Run the pruning phase.

    Args:
        records: The record set ``R``.
        similarity: Machine similarity function ``f``.
        threshold: τ; pairs with ``f > τ`` survive.
        candidate_pairs: Optionally restrict scoring to these pairs
            (e.g. from a custom blocker).  When ``None``, uses token
            blocking (exact for token-overlap metrics) or all pairs.
        use_token_blocking: Whether to use the token-blocking pre-filter when
            ``candidate_pairs`` is not given.  Disable for similarity metrics
            that can score > τ with zero shared word tokens (e.g. q-gram or
            edit-distance metrics).
        parallel: Worker processes of the prefix join's shards (needs
            ``shards`` > 1 to matter); the scoring loop always runs in
            this process.
        shards: Blocking-key shards for the prefix join (0/1 = unsharded).
            Any value yields byte-identical output; > 1 is a scale knob.
        obs: Optional :class:`~repro.obs.ObsContext`; the phase runs inside
            a ``pruning`` span, with its ``blocking`` and ``scoring``
            stages in child spans, and reports record / survivor gauges.
        supervisor_policy: Optional
            :class:`~repro.runtime.supervisor.SupervisorPolicy` tuning the
            fault handling of the sharded join's worker pool.
        fault_plan: Optional
            :class:`~repro.runtime.faults.ProcessFaultPlan` injecting
            deterministic process faults into the worker pool (chaos
            testing only; output stays byte-identical).

    Returns:
        The :class:`CandidateSet` ``S``.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    eligible = _prefix_join_eligible(similarity, candidate_pairs,
                                     use_token_blocking)
    if isinstance(shards, str):
        from repro.runtime.autoshard import resolve_auto_shards

        shards = resolve_auto_shards(records=len(records),
                                     requested=shards, processes=parallel,
                                     obs=obs)
        if shards > 1 and not eligible:
            # The heuristic never forces sharding onto the scoring loop.
            shards = 0
    if shards < 0:
        raise ValueError(f"shards must be >= 0, got {shards}")
    if shards > 1 and not eligible:
        raise ValueError(
            "shards > 1 applies only to the prefix join; this input runs "
            f"the scoring loop (similarity={similarity.name!r})"
        )

    with maybe_span(obs, "pruning",
                    engine="prefix" if eligible else "reference",
                    records=len(records), threshold=threshold,
                    shards=max(shards, 1) if eligible else 0) as span:
        if eligible:
            surviving, scores, runtime = _sharded_join(
                records,
                set_of=similarity.set_of,
                set_function=SET_METRIC_FUNCTIONS[similarity.set_metric],
                metric=similarity.set_metric,
                threshold=threshold,
                num_shards=max(shards, 1),
                processes=parallel,
                include_empty_pairs=not use_token_blocking,
                obs=obs,
                supervisor_policy=supervisor_policy,
                fault_plan=fault_plan,
            )
        else:
            surviving, scores = _run_reference(
                records, similarity, threshold, candidate_pairs,
                use_token_blocking, obs,
            )
            runtime = RuntimeReport()
        # Seed the memo so later phases' reads of these pairs stay warm.
        similarity.seed_cache(scores)
        candidates = CandidateSet(pairs=tuple(surviving),
                                  machine_scores=scores, threshold=threshold,
                                  runtime=runtime)
        if obs is not None:
            span.set_attr("candidate_pairs", len(candidates))
            obs.metrics.gauge(
                "pruning_records", help="Records entering the pruning phase"
            ).set(len(records))
            obs.metrics.gauge(
                "pruning_candidate_pairs",
                help="Pairs surviving the machine-similarity threshold",
            ).set(len(candidates))
    return candidates


def _run_reference(
    records: Sequence[Record],
    similarity: SimilarityFunction,
    threshold: float,
    candidate_pairs: Optional[Iterable[Pair]],
    use_token_blocking: bool,
    obs=None,
) -> Tuple[List[Pair], Dict[Pair, float]]:
    by_id = {record.record_id: record for record in records}
    # Caller-supplied pair streams may repeat pairs (in either order); the
    # internal blockers already emit each pair exactly once.
    needs_dedupe = candidate_pairs is not None
    if candidate_pairs is None:
        if use_token_blocking:
            candidate_pairs = token_blocking_pairs(records)
        else:
            candidate_pairs = all_pairs(records)

    # Materialize the pair stream so blocking and scoring time apart.
    with maybe_span(obs, "blocking"):
        unique = _canonical_unique(candidate_pairs, needs_dedupe)
    with maybe_span(obs, "scoring"):
        scores: Dict[Pair, float] = {}
        for pair in unique:
            score = similarity(by_id[pair[0]], by_id[pair[1]])
            if score > threshold:
                scores[pair] = score
        surviving = sorted(scores)
    return surviving, scores


def _canonical_unique(pairs: Iterable[Pair], needs_dedupe: bool) -> List[Pair]:
    """Canonicalize and (when necessary) deduplicate a pair stream,
    preserving first-seen order."""
    if not needs_dedupe:
        return list(pairs)
    seen: Set[Pair] = set()
    unique: List[Pair] = []
    for raw_pair in pairs:
        pair = canonical_pair(*raw_pair)
        if pair not in seen:
            seen.add(pair)
            unique.append(pair)
    return unique

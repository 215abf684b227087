"""The component-decomposed executor: ACD over one supervised pool.

PC-Pivot only ever asks pivot-incident pairs, so cluster generation
splits exactly along the connected components of ``G = (V_R, E_S)``
(Lemmas 2 and 4).  :func:`run_pipeline` is the one executor that
exploits this: it runs pruning and PC-Pivot as ``(phase, component)``
tasks over **one** :class:`~repro.runtime.supervisor.SupervisedPool`,
streaming work downstream as its inputs seal, then refines with the
global PC-Refine loop:

- **Streamed pruning → pivot.**  Pruning shards are submitted first;
  each finished shard's surviving edges feed an incremental union-find
  (:class:`~repro.pruning.components.IncrementalComponents`).  A pair is
  generated only from a prefix token present in *both* records'
  prefixes, so the shards that can still touch a record are exactly the
  shards of its prefix tokens
  (:func:`~repro.pruning.shard.record_shard_touch_masks`); once every
  shard in a component's combined mask is done, the component is
  *sealed* — no future edge can reach it or merge it — and it
  dispatches to PC-Pivot immediately while the remaining pruning shards
  still run.  Sealed components are grouped into pivot tasks, and a task
  runs its components in lockstep
  (:func:`repro.core.pivot_shard._run_components`): one crowd batch per
  round for the whole group, so a worker waits out its deepest
  component's rounds rather than the sum over its components.  With the
  ``record_ids`` + ``candidates`` entry (pruning already done) every
  component dispatches at once.
- **Generation → refinement is a barrier, and refinement is global.**
  PC-Refine (Algorithm 5) is one loop over all clusters: one
  equi-depth histogram, one budget ``T = N_m / x`` per round, one
  benefit-cost ranking across every cluster.  The parent therefore
  drains the pool, merges the generation clustering, and runs
  :func:`~repro.core.pc_refine.pc_refine` on it with the caller's
  oracle — the same call :func:`~repro.core.acd.run_acd` makes, so the
  two executors refine identically from the same generation state.
- **Workers resolve generation pairs; the parent owns the oracle.**
  Pivot workers resolve pairs against forked copies of the caller's
  pair-deterministic answer source and return plain round logs; the
  parent replays *merged rounds* through the caller's oracle
  (:func:`repro.core.pivot_shard._merge_component_runs`).  The replay
  is the authoritative accounting — journal-compatible, stats-exact,
  event-exact — and refinement asks the same oracle directly.

Determinism contract: the generation clustering (cluster ids included)
equals the global :func:`~repro.core.pc_pivot.pc_pivot`'s for the same
permutation; generation crowd rounds are the deepest component's and
its crowd pairs the sum over components.  The final clustering, stats,
diagnostics, and non-runtime event stream are byte-identical for every
``{pruning shards, workers, fault plan}`` and for either entry shape.
Per-component round logs are pure functions of ``(component,
permutation, epsilon, answer source)`` — task grouping, scheduling,
sealing order, and faults cannot perturb them — and the merge consumes
the logs in canonical component order.  The crowd phases run through the same
:class:`~repro.core.acd.CrowdPhases` driver as
:func:`~repro.core.acd.run_acd` — same spans, checkpoints, restore
paths and result assembly — so the ``generation`` and ``refinement``
checkpoints of :mod:`repro.runtime.checkpoint` are interchangeable
between the two executors, and a run resumed from the same
``generation`` checkpoint refines identically under either.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import pivot_shard
from repro.core.acd import ACDResult, CrowdPhases
from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS
from repro.core.pc_pivot import DEFAULT_EPSILON, PCPivotDiagnostics
from repro.core.pc_refine import (
    DEFAULT_THRESHOLD_DIVISOR,
    PCRefineDiagnostics,
    pc_refine,
)
from repro.core.permutation import Permutation
from repro.obs import ObsContext, maybe_span
from repro.perf.timing import StageTimings
from repro.pruning.candidate import (
    DEFAULT_THRESHOLD,
    CandidateSet,
    _assemble,
    _prefix_join_eligible,
    _report_pruning,
    build_candidate_set,
)
from repro.pruning.components import IncrementalComponents, connected_components
from repro.pruning.parallel import fork_available, notify_parallel_fallback
from repro.pruning.shard import (
    DEFAULT_PAIR_BLOCK_SIZE,
    _build_plan,
    _join_shard,
    record_shard_touch_masks,
)
from repro.runtime.autoshard import resolve_auto_shards
from repro.runtime.checkpoint import (
    CheckpointStore,
    candidate_state,
    restore_candidates,
)
from repro.runtime.faults import ProcessFaultPlan
from repro.runtime.supervisor import (
    RuntimeReport,
    SupervisedPool,
    SupervisorPolicy,
)

Pair = Tuple[int, int]

#: Worker state captured at fork time.  Shared structures (join plan,
#: permutation, forked answer source) ship once; per-task payloads carry
#: only the component-local slice.
_PIPELINE_STATE: Dict[str, object] = {}


@dataclass
class PipelineResult:
    """Everything a pipelined run produces.

    Attributes:
        candidates: The pruning phase's candidate set (computed by the
            streamed join, restored from a checkpoint, or passed in).
        result: The :class:`~repro.core.acd.ACDResult`.
        report: Aggregated fault-handling telemetry of the shared pool.
    """

    candidates: CandidateSet
    result: ACDResult
    report: RuntimeReport


def _execute_task(payload: Tuple) -> Any:
    """Dispatch one ``(phase, ...)`` task against the published state.

    Pure: reads :data:`_PIPELINE_STATE` (the fork snapshot) and the
    payload only, so the parent's inline/degraded paths compute
    byte-identical results.
    """
    state = _PIPELINE_STATE
    kind = payload[0]
    if kind == "prune":
        return _join_shard(
            state["plan"], payload[1], state["num_shards"],
            state["metric"], state["threshold"], state["pair_block_size"],
        )
    if kind == "pivot":
        # One task = one *group* of sealed components, run in lockstep:
        # one crowd batch per round for the whole group (and a lone
        # small component costs more in pickling and pipe traffic than
        # in pivot rounds).
        return pivot_shard._run_components(
            payload[1], state["permutation"], state["epsilon"],
            state["answers"],
        )
    raise ValueError(f"unknown pipeline task kind {kind!r}")


def run_pipeline(
    answers,
    *,
    records: Optional[Sequence] = None,
    similarity=None,
    record_ids: Optional[Sequence[int]] = None,
    candidates: Optional[CandidateSet] = None,
    threshold: float = DEFAULT_THRESHOLD,
    pruning_shards: Union[int, str] = "auto",
    workers: int = 0,
    epsilon: float = DEFAULT_EPSILON,
    threshold_divisor: float = DEFAULT_THRESHOLD_DIVISOR,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    seed: Optional[int] = None,
    permutation: Optional[Permutation] = None,
    refine: bool = True,
    pairs_per_hit: int = 20,
    ranking: str = "ratio",
    obs: Optional[ObsContext] = None,
    checkpoints: Optional[CheckpointStore] = None,
    resume: bool = False,
    supervisor_policy: Optional[SupervisorPolicy] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
    timings: Optional[StageTimings] = None,
) -> PipelineResult:
    """Run ACD as a component-streaming pipeline over one worker pool.

    Two entry shapes:

    - ``records`` + ``similarity`` — the full pipeline: pruning shards
      stream candidate edges into the sealing accumulator and sealed
      components dispatch to pivot workers while pruning still runs.
      Requires a token-blocked prefix-join-eligible similarity; otherwise
      pruning runs the (byte-identical) full
      :func:`~repro.pruning.candidate.build_candidate_set` first and only
      the crowd phases pipeline.
    - ``record_ids`` + ``candidates`` — pruning already done (the
      ``run_method(..., pipeline=True)`` path): every component
      dispatches immediately.

    Args largely mirror :func:`~repro.core.acd.run_acd`; the pipelined
    extras are ``pruning_shards`` (streamed join shard count, or
    ``"auto"`` for the heuristic of
    :mod:`repro.runtime.autoshard`), ``workers`` (shared pool processes;
    ``<= 1`` runs inline), and ``timings`` (records the
    ``pipeline_bytes_shipped_total`` / ``pipeline_bytes_per_task``
    dispatch-overhead meters, and is forwarded to
    :func:`~repro.core.pc_refine.pc_refine` for its ``refine.*``
    stages).  The ``workers`` serve pruning and generation only: the
    pool closes once generation drains, refinement runs the global
    PC-Refine loop in this process, and a run resumed from a
    ``generation`` checkpoint forks no pool.  ``checkpoints`` /
    ``resume`` (all three phases), ``obs``, a
    :class:`~repro.crowd.persistence.JournalingAnswerFile` around
    ``answers``, and chaos ``fault_plan`` compose exactly as in
    :func:`~repro.core.acd.run_acd`: both drive the crowd phases through
    one :class:`~repro.core.acd.CrowdPhases`.

    Returns:
        A :class:`PipelineResult` (see the module docstring for what is
        identical to the global engines and what follows component
        accounting).
    """
    if (records is None) == (record_ids is None and candidates is None):
        raise ValueError(
            "pass either records+similarity (full pipeline) or "
            "record_ids+candidates (pre-pruned pipeline)"
        )
    if records is not None and similarity is None:
        raise ValueError("records requires a similarity function")
    if records is None and (record_ids is None or candidates is None):
        raise ValueError("pre-pruned mode needs both record_ids and candidates")
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    pivot_shard.require_pair_deterministic(answers)

    ids = ([record.record_id for record in records]
           if records is not None else list(record_ids))
    # Pre-pruned entry has no pruning phase to shard.
    num_shards = (resolve_auto_shards(records=len(ids),
                                      requested=pruning_shards, obs=obs)
                  if records is not None else 0)
    if permutation is None:
        permutation = Permutation.random(ids, seed=seed)

    phases = CrowdPhases(
        answers, epsilon=epsilon, threshold_divisor=threshold_divisor,
        num_buckets=num_buckets, seed=seed, refine=refine,
        pairs_per_hit=pairs_per_hit, ranking=ranking,
        max_refinement_pairs=None, obs=obs, checkpoints=checkpoints,
        resume=resume,
    )
    restored_pruning = (checkpoints.load("pruning")
                        if checkpoints is not None and resume else None)
    if candidates is None and restored_pruning is not None:
        candidates = restore_candidates(restored_pruning)

    stream_pruning = (
        candidates is None
        and phases.runs_generation
        and _prefix_join_eligible(similarity, None, True)
    )
    if candidates is None and not stream_pruning:
        # A restored crowd phase has nothing to overlap pruning with, and
        # streaming needs the token-blocked prefix join; for other
        # similarities only the crowd phases pipeline (pruning runs the
        # byte-identical full join or scoring loop first).
        if phases.runs_generation and obs is not None:
            obs.event("pipeline.serial_pruning", reason="not-prefix-eligible")
        candidates = build_candidate_set(
            records, similarity, threshold=threshold, shards=num_shards,
            parallel=workers,
            timings=timings, obs=obs,
            supervisor_policy=supervisor_policy, fault_plan=fault_plan,
        )
        if checkpoints is not None:
            checkpoints.save("pruning", candidate_state(candidates))

    if workers > 1 and phases.runs_generation and not fork_available():
        notify_parallel_fallback(obs, requested=workers,
                                 context="run_pipeline")

    oracle = phases.oracle
    source = oracle.source
    pool: Optional[SupervisedPool] = None
    component_logs: Dict[int, list] = {}
    #: Pivot task index -> first member of each component it carries.
    pivot_of: Dict[int, List[int]] = {}

    with maybe_span(obs, "pipeline", workers=workers,
                    pruning_shards=num_shards, records=len(ids)):
        try:
            components: List[Tuple[int, ...]] = []
            if phases.runs_generation:
                # Publish the fork-time state *before* spawning workers:
                # everything here (and, in the streamed path, the join
                # plan published inside _streamed_pruning_phase before
                # the factory runs) is inherited by fork, never pickled.
                _PIPELINE_STATE.update(
                    permutation=permutation, epsilon=epsilon,
                    answers=getattr(source, "fork_source", source),
                    threshold=(candidates.threshold
                               if candidates is not None else threshold),
                )

                def pool_factory() -> SupervisedPool:
                    nonlocal pool
                    pool = SupervisedPool(_execute_task, workers,
                                          policy=supervisor_policy, obs=obs,
                                          fault_plan=fault_plan,
                                          label="pipeline")
                    return pool

                if candidates is None:
                    candidates, components = _streamed_pruning_phase(
                        pool_factory, records, similarity, threshold,
                        num_shards, ids, pivot_of,
                        component_logs, obs, checkpoints,
                    )
                else:
                    components = _dispatch_all_components(
                        pool_factory(), ids, candidates, pivot_of, obs)

            def generate(diagnostics: PCPivotDiagnostics) -> Clustering:
                """The generation barrier: drain and close the pool, then
                replay merged rounds through the caller's oracle."""
                while pivot_of:
                    index, value = pool.next_result()
                    for key, logs in zip(pivot_of.pop(index), value):
                        component_logs[key] = logs
                pool.close()
                # The fork-time state (join plan included) has no reader
                # left; free it before refinement allocates.
                _PIPELINE_STATE.clear()
                component_rounds = {
                    index: component_logs[members[0]]
                    for index, members in enumerate(components)
                    if len(members) > 1 and members[0] in component_logs
                }
                return pivot_shard._merge_component_runs(
                    ids, components, component_rounds, permutation,
                    oracle, epsilon, diagnostics, obs, source,
                )

            def refine_step(clustering: Clustering,
                            diagnostics: PCRefineDiagnostics) -> Clustering:
                return pc_refine(clustering, candidates, oracle,
                                 num_records=len(ids),
                                 threshold_divisor=threshold_divisor,
                                 num_buckets=num_buckets,
                                 diagnostics=diagnostics, ranking=ranking,
                                 obs=obs, timings=timings)

            result = phases.run(ids, candidates, generate, refine_step)
        finally:
            if pool is not None:
                pool.close()
            _PIPELINE_STATE.clear()

    if timings is not None and pool is not None:
        timings.set_meter("pipeline_bytes_shipped_total",
                          float(pool.bytes_shipped))
        timings.set_meter(
            "pipeline_bytes_per_task",
            round(pool.bytes_shipped / pool.report.tasks, 2)
            if pool.report.tasks else 0.0,
        )

    phases.finish(result, pipeline=True, pipeline_workers=workers,
                  pruning_shards=num_shards)
    report = pool.report if pool is not None else RuntimeReport()
    return PipelineResult(candidates=candidates, result=result,
                          report=report)


def _prune_wave_width() -> int:
    """In-flight prune-shard cap: one per CPU this process may use.

    Prune shards are pure compute; running more of them than there are
    CPUs just time-slices them to a synchronized finish, which starves
    the sealing rule of staggered completions.  Capping at the CPU
    count keeps the compute pipeline full while leaving the remaining
    workers free to wait out sealed components' crowd rounds.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class _PivotBatcher:
    """Group sealed components into dispatch-sized pivot tasks.

    Streaming at component granularity is correct but wasteful: most
    components are two or three records, and the pickle + pipe round
    trip per task dwarfs their pivot work.  The batcher buffers sealed
    components and flushes a group task whenever the buffered vertex
    count reaches ``budget`` — about 64 tasks over the whole record
    set — so early-sealed groups still
    dispatch while pruning runs, without drowning the pool in
    micro-tasks.
    """

    def __init__(self, pool: SupervisedPool, budget: int,
                 pivot_of: Dict[int, List[int]]):
        self._pool = pool
        self._budget = max(1, budget)
        self._pivot_of = pivot_of
        self._buffer: List[Tuple[Tuple[int, ...], Tuple[Pair, ...]]] = []
        self._vertices = 0
        self.dispatched = 0

    def add(self, members: Tuple[int, ...],
            edges: Tuple[Pair, ...]) -> None:
        self._buffer.append((members, edges))
        self._vertices += len(members)
        self.dispatched += 1
        if self._vertices >= self._budget:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        task = self._pool.submit(("pivot", self._buffer))
        self._pivot_of[task] = [members[0]
                                for members, _ in self._buffer]
        self._buffer = []
        self._vertices = 0


def _collect_one(pool: SupervisedPool, prune_of: Dict[int, int],
                 shard_queue: deque, batcher: _PivotBatcher,
                 pivot_of: Dict[int, List[int]],
                 merged: Dict[Pair, float],
                 tracker: IncrementalComponents,
                 sealed_components: List[Tuple[int, ...]],
                 component_logs: Dict[int, list], obs) -> None:
    """Handle one pool completion, refilling the prune wave first.

    On a pruning completion the *next* shard is submitted before any
    merge/seal bookkeeping runs: the parent's per-shard work (edge
    merge, union-find, component slicing, payload pickling) is a
    nontrivial serial chunk, and submitting first keeps a worker
    crunching the next shard underneath it instead of idling until the
    bookkeeping finishes.
    """
    index, value = pool.next_result()
    if index in prune_of:
        shard = prune_of.pop(index)
        if shard_queue:
            refill = shard_queue.popleft()
            prune_of[pool.submit(("prune", refill))] = refill
        # Shards re-emit pairs whose tokens hash to several shards; the
        # union-find only needs each edge once (the merge dict is the
        # dedup set — a pair seen before cannot change any component).
        for pair, score in value.items():
            if pair not in merged:
                merged[pair] = score
                tracker.add_edge(*pair)
        sealed = tracker.finish_shard(shard)
        before = batcher.dispatched
        for members, edges in sealed:
            sealed_components.append(members)
            if len(members) > 1:
                batcher.add(members, edges)
        if obs is not None:
            obs.event("pipeline.seal", shard=shard, sealed=len(sealed),
                      dispatched=batcher.dispatched - before,
                      queue_depth=pool.outstanding)
        return
    for key, logs in zip(pivot_of.pop(index), value):
        component_logs[key] = logs


def _streamed_pruning_phase(
    pool_factory, records, similarity, threshold: float,
    num_shards: int, ids: Sequence[int],
    pivot_of: Dict[int, List[int]], component_logs: Dict[int, list],
    obs, checkpoints,
) -> Tuple[CandidateSet, List[Tuple[int, ...]]]:
    """Phase A: run pruning shards, streaming sealed components to pivot.

    Byte-identical to the full
    :func:`~repro.pruning.candidate.build_candidate_set` prefix path:
    same join plan, same per-shard survivors, same sorted merge, same
    ``pruning`` span and gauges.  Pivot tasks dispatched here are
    collected later by :func:`run_pipeline`'s generation barrier — only
    the pruning tasks gate this phase's exit.
    """
    metric = similarity.set_metric
    with maybe_span(obs, "pruning", engine="prefix", records=len(records),
                    threshold=threshold, shards=num_shards) as span:
        # Token blocking never pairs empty-set records: their ids go unused.
        plan, _ = _build_plan(records, similarity.set_of, metric, threshold)
        touch = record_shard_touch_masks(plan, metric, threshold, num_shards)
        tracker = IncrementalComponents(ids, touch, num_shards)
        _PIPELINE_STATE.update(
            plan=plan, num_shards=num_shards, metric=metric,
            pair_block_size=DEFAULT_PAIR_BLOCK_SIZE,
        )
        # Fork *after* the join plan is published: workers inherit it
        # through copy-on-write memory instead of a per-worker pickle.
        pool = pool_factory()

        merged: Dict[Pair, float] = {}
        # Wave dispatch: keep at most one prune shard in flight per
        # actually-available CPU.  Flooding every worker with a prune
        # shard makes the OS time-slice them to a simultaneous finish —
        # no component seals until the very end and the overlap window
        # collapses.  Staggered completions seal components while later
        # shards still run, so their crowd rounds (the latency-bound
        # part of pivot) hide under the remaining pruning compute.
        wave = _prune_wave_width()
        shard_queue = deque(range(num_shards))
        prune_of: Dict[int, int] = {}
        for _ in range(min(wave, num_shards)):
            shard = shard_queue.popleft()
            prune_of[pool.submit(("prune", shard))] = shard
        batcher = _PivotBatcher(pool, len(ids) // 64, pivot_of)
        sealed_components: List[Tuple[int, ...]] = []
        while prune_of:
            _collect_one(pool, prune_of, shard_queue, batcher, pivot_of,
                         merged, tracker, sealed_components,
                         component_logs, obs)
        batcher.flush()
        assert tracker.all_sealed
        # Every edge-touched component sealed exactly once, members
        # ascending; untouched records are trivial singletons.  Sorting
        # by smallest member yields the same canonical list
        # connected_components would compute — without the extra label
        # pass over the full candidate graph.
        touched = tracker.touched
        sealed_components.extend(
            (record_id,) for record_id in ids if record_id not in touched)
        sealed_components.sort(key=lambda members: members[0])

        surviving = sorted(merged)
        scores = {pair: merged[pair] for pair in surviving}
        candidates = _assemble(similarity, surviving, scores, threshold)
        _report_pruning(obs, span, len(records), candidates)
    if checkpoints is not None:
        checkpoints.save("pruning", candidate_state(candidates))
    return candidates, sealed_components


def _dispatch_all_components(
    pool: SupervisedPool, ids: Sequence[int], candidates: CandidateSet,
    pivot_of: Dict[int, List[int]], obs,
) -> List[Tuple[int, ...]]:
    """Pre-pruned entry: every component is already sealed — dispatch all."""
    components = connected_components(ids, candidates.pairs)
    edges_of: Dict[int, List[Pair]] = {}
    comp_of: Dict[int, int] = {}
    for index, members in enumerate(components):
        if len(members) > 1:
            for vertex in members:
                comp_of[vertex] = index
            edges_of[index] = []
    for pair in candidates.pairs:
        edges_of[comp_of[pair[0]]].append(pair)
    batcher = _PivotBatcher(pool, len(ids) // 64, pivot_of)
    for index, members in enumerate(components):
        if len(members) > 1:
            batcher.add(members, tuple(edges_of.get(index, ())))
    batcher.flush()
    if obs is not None:
        obs.event("pipeline.seal", shard=None, sealed=len(components),
                  dispatched=batcher.dispatched,
                  queue_depth=pool.outstanding)
    return components

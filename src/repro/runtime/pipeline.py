"""The component-decomposed executor: ACD over one supervised pool.

PC-Pivot only ever asks pivot-incident pairs, so cluster generation
splits exactly along the connected components of ``G = (V_R, E_S)``
(Lemmas 2 and 4), and refinement splits along the components of the
candidate graph plus the clusters' own links.  :func:`run_pipeline` is
the one executor that exploits this: it runs pruning, PC-Pivot, and
PC-Refine as ``(phase, component)`` tasks over **one**
:class:`~repro.runtime.supervisor.SupervisedPool`, streaming work
downstream as its inputs seal:

- **Streamed pruning → pivot.**  Pruning shards are submitted first;
  each finished shard's surviving edges feed an incremental union-find
  (:class:`~repro.pruning.components.IncrementalComponents`).  A pair is
  generated only from a prefix token present in *both* records'
  prefixes, so the shards that can still touch a record are exactly the
  shards of its prefix tokens
  (:func:`~repro.pruning.shard.record_shard_touch_masks`); once every
  shard in a component's combined mask is done, the component is
  *sealed* — no future edge can reach it or merge it — and its
  per-component fast PC-Pivot task
  (:func:`repro.core.pivot_shard._run_component`) dispatches immediately
  while the remaining pruning shards still run.  With the
  ``record_ids`` + ``candidates`` entry (pruning already done) every
  component dispatches at once.
- **Pivot → refine is a true barrier — by data dependency.**  Refine
  workers need the *global* frozen histogram (built from all candidate
  pairs plus the complete phase-2 answer set), the single budget ``T``
  (global cluster and unknown-pair counts), and the merged clustering's
  cluster ids (packing tie-breaks depend on them) — all functions of
  every pivot component.  What the pipeline overlaps is inside the
  phase: all refine components run concurrently on the already-forked
  pool (no re-fork, no re-publish), with the late coordination state
  shipped to live workers by ``state`` broadcasts.
- **One oracle multiplexer.**  Workers resolve pairs against forked
  copies of the caller's pair-deterministic answer source and return
  plain round logs; the parent replays *merged rounds* through the
  caller's oracle (:func:`repro.core.pivot_shard._merge_component_runs`,
  :func:`repro.core.refine_shard._replay_component_runs`).  The replay
  is the authoritative accounting — journal-compatible, stats-exact,
  event-exact.

Determinism contract: the generation clustering (cluster ids included)
equals the global :func:`~repro.core.pc_pivot.pc_pivot`'s for the same
permutation; crowd rounds are the deepest component's and crowd pairs
the sum over components.  The final clustering, stats, diagnostics, and
non-runtime event stream are byte-identical for every ``{pruning
shards, workers, fault plan}`` and for either entry shape.
Per-component round logs are pure functions of ``(component,
permutation, epsilon | frozen budget + estimator, answer source)`` —
scheduling, sealing order, and faults cannot perturb them — and both
merges consume the logs in canonical component order.  The crowd
phases run through the same :class:`~repro.core.acd.CrowdPhases` driver
as :func:`~repro.core.acd.run_acd` — same spans, checkpoints, restore
paths and result assembly — so the ``generation`` and ``refinement``
checkpoints of :mod:`repro.runtime.checkpoint` are interchangeable
between the two executors.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import pivot_shard, refine_shard
from repro.core.acd import ACDResult, CrowdPhases
from repro.core.clustering import Clustering
from repro.core.estimator import DEFAULT_NUM_BUCKETS
from repro.core.pc_pivot import DEFAULT_EPSILON, PCPivotDiagnostics
from repro.core.pc_refine import DEFAULT_THRESHOLD_DIVISOR, PCRefineDiagnostics
from repro.core.permutation import Permutation
from repro.crowd.oracle import CrowdOracle
from repro.obs import ObsContext, maybe_span
from repro.perf.timing import StageTimings
from repro.pruning.candidate import (
    DEFAULT_THRESHOLD,
    CandidateSet,
    _prefix_join_eligible,
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
from repro.similarity.composite import SET_METRIC_FUNCTIONS
from repro.similarity.kernels import numpy_available, resolve_kernel_backend

Pair = Tuple[int, int]

#: Worker state captured at fork time, extended at runtime by ``state``
#: broadcasts.  Shared structures (join plan, permutation, forked answer
#: source, frozen estimator) ship once; per-task payloads carry only the
#: component-local slice.
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

    Pure: reads :data:`_PIPELINE_STATE` (fork snapshot plus any
    broadcasts) and the payload only, so the parent's inline/degraded
    paths compute byte-identical results.
    """
    state = _PIPELINE_STATE
    kind = payload[0]
    if kind == "prune":
        return _join_shard(
            state["plan"], payload[1], state["num_shards"],
            state["metric"], state["threshold"], state["kernel"],
            state["set_function"], state["pair_block_size"],
        )
    if kind == "pivot":
        # One task = one *group* of sealed components, run back-to-back
        # to amortize dispatch (a lone small component costs more in
        # pickling and pipe traffic than in pivot rounds).
        return [
            pivot_shard._run_component(
                members, edges, state["permutation"],
                state["epsilon"], state["answers"],
            )
            for members, edges in payload[1]
        ]
    if kind == "refine":
        return [
            refine_shard._run_component(
                entries, pairs, scores, known,
                state["refine_next_id"], state["threshold"],
                state["refine_budget"], state["ranking"],
                state["refine_estimator"], state["answers"],
            )
            for entries, pairs, scores, known in payload[1]
        ]
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
    kernel_backend: str = "auto",
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
      Requires a prefix-join-eligible similarity and numpy; otherwise
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
    dispatch-overhead meters).  ``checkpoints`` / ``resume`` (all three
    phases), ``obs``, a
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
        and numpy_available()
        and _prefix_join_eligible(similarity, None, True)
    )
    if candidates is None and not stream_pruning:
        # A restored crowd phase has nothing to overlap pruning with, and
        # streaming needs the vectorized token-blocked prefix join; for
        # other similarity/platform configurations only the crowd phases
        # pipeline (pruning runs the byte-identical full join first).
        if phases.runs_generation and obs is not None:
            obs.event("pipeline.serial_pruning",
                      reason=("no-numpy" if not numpy_available()
                              else "not-prefix-eligible"))
        candidates = build_candidate_set(
            records, similarity, threshold=threshold,
            shards=num_shards if numpy_available() else 0,
            kernel_backend=kernel_backend, parallel=workers,
            timings=timings, obs=obs,
            supervisor_policy=supervisor_policy, fault_plan=fault_plan,
        )
        if checkpoints is not None:
            checkpoints.save("pruning", candidate_state(candidates))

    if workers > 1 and not fork_available():
        notify_parallel_fallback(obs, requested=workers,
                                 context="run_pipeline")

    oracle = phases.oracle
    source = oracle.source
    fork_source = getattr(source, "fork_source", source)
    need_tasks = phases.runs_generation or phases.runs_refinement
    pool: Optional[SupervisedPool] = None
    component_logs: Dict[int, list] = {}
    #: Pivot task index -> first member of each component it carries.
    pivot_of: Dict[int, List[int]] = {}

    with maybe_span(obs, "pipeline", workers=workers,
                    pruning_shards=num_shards, records=len(ids)):
        try:
            if need_tasks:
                # Publish the fork-time state *before* spawning workers:
                # everything here (and, in the streamed path, the join
                # plan published inside _streamed_pruning_phase before
                # the factory runs) is inherited by fork, never pickled.
                _PIPELINE_STATE.update(
                    permutation=permutation, epsilon=epsilon,
                    ranking=ranking, answers=fork_source,
                    threshold=(candidates.threshold
                               if candidates is not None else threshold),
                )

            def pool_factory() -> SupervisedPool:
                nonlocal pool
                pool = SupervisedPool(_execute_task, workers,
                                      policy=supervisor_policy, obs=obs,
                                      fault_plan=fault_plan,
                                      label="pipeline",
                                      state=_PIPELINE_STATE)
                return pool

            components: List[Tuple[int, ...]] = []
            prepared = None
            if phases.runs_generation:
                if candidates is None:
                    candidates, components = _streamed_pruning_phase(
                        pool_factory, records, similarity, threshold,
                        num_shards, kernel_backend, ids, pivot_of,
                        component_logs, obs, checkpoints,
                    )
                else:
                    components = _dispatch_all_components(
                        pool_factory(), ids, candidates, pivot_of, obs)
                if refine:
                    # The clustering-independent half of the refine
                    # partition needs only the candidate set, so it runs
                    # while the tail pivot tasks still wait out their
                    # crowd rounds.
                    prepared = refine_shard.prepare_refine_partition(
                        components, candidates)
            elif need_tasks:
                pool_factory()

            def generate(diagnostics: PCPivotDiagnostics) -> Clustering:
                """The generation barrier: drain the pool, then replay
                merged rounds through the caller's oracle."""
                while pivot_of:
                    index, value = pool.next_result()
                    for key, logs in zip(pivot_of.pop(index), value):
                        component_logs[key] = logs
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
                return _refine_phase(
                    pool, clustering, candidates, oracle, len(ids),
                    threshold_divisor, num_buckets, diagnostics, ranking,
                    obs, source, prepared,
                )

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
    num_shards: int, kernel_backend: str, ids: Sequence[int],
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
    resolved_backend = resolve_kernel_backend(kernel_backend)
    metric = similarity.set_metric
    set_function = SET_METRIC_FUNCTIONS[metric]
    with maybe_span(obs, "pruning", engine="prefix", records=len(records),
                    threshold=threshold, kernel_backend=resolved_backend,
                    shards=num_shards) as span:
        sets = {record.record_id: similarity.set_of(record)
                for record in records}
        nonempty = [record_id for record_id, s in sets.items() if s]
        plan = _build_plan(sets, nonempty, metric, threshold)
        touch = record_shard_touch_masks(plan, metric, threshold, num_shards)
        tracker = IncrementalComponents(ids, touch, num_shards)
        _PIPELINE_STATE.update(
            plan=plan, num_shards=num_shards, metric=metric,
            kernel=resolved_backend, set_function=set_function,
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
        similarity.seed_cache(scores)
        candidates = CandidateSet(pairs=tuple(surviving),
                                  machine_scores=scores,
                                  threshold=threshold)
        if obs is not None:
            span.set_attr("candidate_pairs", len(surviving))
            obs.metrics.gauge(
                "pruning_records", help="Records entering the pruning phase"
            ).set(len(records))
            obs.metrics.gauge(
                "pruning_candidate_pairs",
                help="Pairs surviving the machine-similarity threshold",
            ).set(len(surviving))
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


def _refine_phase(
    pool: SupervisedPool, clustering: Clustering, candidates: CandidateSet,
    oracle: CrowdOracle, num_records: int, threshold_divisor: float,
    num_buckets: int, diagnostics: PCRefineDiagnostics, ranking: str,
    obs, source, prepared=None,
) -> Clustering:
    """Phase C: per-component refinement on the shared, already-forked pool.

    The coordination state that only exists now — the merged
    clustering's id counter, the frozen budget ``T``, and the global
    histogram — is broadcast to the live workers (fork carried
    everything else), then every multi-vertex component runs
    concurrently and the parent replays the merged rounds.
    """
    if prepared is None:
        # Restore paths arrive here without the pre-drain index pass.
        components, multi, multi_components, estimator, budget = (
            refine_shard.build_refine_partition(
                clustering, candidates, oracle, num_records,
                threshold_divisor, num_buckets,
            ))
    else:
        components, multi, multi_components, estimator, budget = (
            refine_shard.finish_refine_partition(
                prepared, clustering, candidates, oracle, num_records,
                threshold_divisor, num_buckets,
            ))
    pool.broadcast("refine_next_id", clustering.next_id)
    pool.broadcast("refine_budget", budget)
    pool.broadcast("refine_estimator", estimator)
    # LPT-pack the components into dispatch-sized group tasks (the same
    # granularity reasoning as _PivotBatcher; refinement is a barrier,
    # so packing can balance globally instead of streaming).
    num_groups = min(len(multi_components), 64)
    sized = sorted(
        ((len(entries) + len(pairs), pos)
         for pos, (entries, pairs, _, _) in enumerate(multi_components)),
        key=lambda item: (-item[0], item[1]),
    )
    bins: List[List[int]] = [[] for _ in range(num_groups)]
    heap = [(0, group) for group in range(num_groups)]
    for size, pos in sized:
        load, group = heapq.heappop(heap)
        bins[group].append(pos)
        heapq.heappush(heap, (load + size, group))
    task_of: Dict[int, List[int]] = {}
    for positions in bins:
        if positions:
            task_of[pool.submit(
                ("refine", [multi_components[pos] for pos in positions])
            )] = positions
    if obs is not None:
        obs.event("pipeline.refine_dispatch",
                  components=len(multi_components), tasks=len(task_of),
                  queue_depth=pool.outstanding)
    component_runs: Dict[int, tuple] = {}
    while task_of:
        index, value = pool.next_result()
        for pos, run in zip(task_of.pop(index), value):
            component_runs[multi[pos]] = run
    refine_shard._replay_component_runs(
        clustering, components, component_runs, oracle, candidates,
        estimator, budget, diagnostics, obs, source,
    )
    refine_shard.aggregate_refine_diagnostics(diagnostics, component_runs)
    return clustering.canonicalize()

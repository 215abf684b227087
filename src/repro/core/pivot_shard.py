"""Component-decomposed PC-Pivot: the one cluster-generation executor.

Cluster generation decomposes exactly along connected components of the
candidate graph: every pair Crowd-Pivot issues is pivot-incident, so
work in one component never touches another's vertices, and running
PC-Pivot per component (with the global permutation restricted to the
component) produces precisely the clusters the whole-graph run would —
Lemma 2/4 applied component-wise.  :func:`repro.core.pc_pivot.pc_pivot`
and :func:`repro.core.acd.run_acd` generate clusters this way:

1. **Lockstep rounds** — :class:`_Lockstep` runs the PC-Pivot loop over
   a group of components, each on its own
   :class:`~repro.pruning.graph.EagerCandidateGraph`.  Each round, every
   still-live component plans its own pivots; the union of their
   pivot-incident pairs is **one** batch, and each component forms its
   clusters from its own pairs.  Each component's round log (chosen
   ``k``, predicted waste, issued pairs, clusters, fresh confidences) is
   exactly the log that component would produce run alone.
2. **Inline** (``workers <= 1``) — :func:`generate_inline` runs every
   component in one lockstep group.  Its rounds *are* the merged rounds
   (round ``r`` = every component's local round ``r``), so it asks each
   round's batch of the caller's oracle as it runs: the answer source —
   any source, stateful ones included — sees each batch exactly once,
   and stats, fault counters, journal batches and events are recorded as
   the round happens.
3. **On a pool** — :func:`start_components` cuts the components into
   pivot tasks of about ``len(ids) // 64`` vertices each, on one
   :class:`~repro.runtime.supervisor.SupervisedPool` whose workers run
   :func:`_run_components` against forked copies of a
   *pair-deterministic* source and record nothing.  The pool runs only
   generation: pruning has finished before it forks.
   :func:`merge_component_runs` then primes the parent's answer source
   with the workers' confidences and replays the same merged rounds
   through the caller's oracle — the one place a pool run's results are
   recorded.

Either way one crowd batch, one diagnostics entry, and one
``pivot.round`` event per merged round, so ``CrowdStats.iterations``
reports the parallel crowd latency (the deepest component's round
count).

Determinism contract: the **clustering (including cluster IDs) equals
the whole-graph PC-Pivot** (:func:`repro.reference.pc_pivot`) for the
same permutation and answers.  A cluster's pivot is always its
minimum-rank member and the whole-graph loop emits clusters in strictly
ascending pivot rank, so sorting all clusters by pivot rank reproduces
its cluster IDs byte for byte.  Round *accounting* follows the merged
component-local rounds — the maximum and the sum over components of what
a stand-alone PC-Pivot on each component would report — whereas the
whole-graph Equation-4 rounds couple components through the global
permutation prefix.  A component's round log is a pure function of
``(component, permutation, epsilon, answer source)``: task grouping,
scheduling and process faults change only wall clock,
never a log, and the merge consumes the logs in canonical component
order.  The per-component ε waste bound holds round by round, hence so
does the global one (a sum of per-component bounds, every issued pair
being fresh).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.clustering import Clustering
from repro.core.partial_pivot import (
    PartialPivotResult,
    form_clusters,
    pivot_incident_pairs,
)
from repro.core.permutation import Permutation
from repro.core.pivot_engine import LiveVertexOrder, choose_pivots
from repro.crowd.oracle import CrowdOracle
from repro.obs import maybe_span
from repro.pruning.candidate import CandidateSet
from repro.pruning.components import _label_components
from repro.pruning.graph import EagerCandidateGraph
from repro.pruning.parallel import fork_available, notify_parallel_fallback
from repro.runtime.supervisor import RuntimeReport, SupervisedPool

Pair = Tuple[int, int]

#: One worker round: (k, predicted_waste, issued_pairs, live_before,
#: remaining, clusters, fresh_answers).  Plain tuples so the pipe can
#: pickle them cheaply.
_RoundLog = Tuple[int, int, Tuple[Pair, ...], int, int,
                  Tuple[Tuple[int, ...], ...],
                  Tuple[Tuple[int, int, float], ...]]

#: A component as the runner takes it: (vertices, edges).
_Group = Tuple[Tuple[int, ...], Tuple[Pair, ...]]

#: Worker state captured at fork time.  Shared structures (permutation,
#: forked answer source) ship once; per-task payloads carry only their
#: components.
_FORK_STATE: Dict[str, object] = {}


def require_pair_deterministic(source) -> None:
    """Reject answer sources a worker pool cannot safely fork.

    Worker processes resolve pairs through forked copies of the source;
    unless every copy maps a pair to the same confidence regardless of
    query order (``pair_deterministic``), placement could change
    answers.  Stateful sources (fallback tracking, platform simulators
    with cross-batch RNG) run inline (``workers <= 1``).
    """
    if not getattr(source, "pair_deterministic", False):
        raise ValueError(
            f"a generation worker pool requires a pair-deterministic "
            f"answer source; {type(source).__name__} does not declare "
            "pair_deterministic — run with workers <= 1"
        )


def _fork_view(source):
    """The view of ``source`` pool workers resolve pairs through: never
    a journaling wrapper itself (the parent's replay journals), see
    :attr:`repro.crowd.persistence.JournalingAnswerFile.fork_source`."""
    return getattr(source, "fork_source", source)


def _finish_round(obs, diagnostics, round_index, k, result, epsilon,
                  live_before, remaining) -> None:
    """Per-round bookkeeping, shared with the :mod:`repro.reference`
    oracle so both emit identical diagnostics and event streams."""
    if diagnostics is not None:
        diagnostics.ks.append(k)
        diagnostics.predicted_waste.append(result.predicted_waste)
        diagnostics.issued_per_round.append(len(result.issued_pairs))
    if obs is not None:
        obs.metrics.counter(
            "pivot_rounds_total",
            help="PC-Pivot parallel rounds executed",
        ).inc()
        if k == 1 and epsilon > 0 and live_before > 1:
            obs.event(
                "pivot.waste_bound_binding",
                round=round_index,
                epsilon=epsilon,
                live_records=live_before,
            )
        obs.event(
            "pivot.round",
            round=round_index,
            k=k,
            predicted_waste=result.predicted_waste,
            issued_pairs=len(result.issued_pairs),
            clusters=len(result.clusters),
            remaining_records=remaining,
        )


def _resolve(answers, pairs: List[Pair]) -> Dict[Pair, float]:
    """One lockstep round's confidences, straight from the source."""
    batch = getattr(answers, "confidence_batch", None)
    if batch is not None:
        return batch(pairs)
    return {pair: answers.confidence(*pair) for pair in pairs}


class _Lockstep:
    """The PC-Pivot loop over a group of ``(vertices, edges)`` components
    in lockstep: one batch per round for all of them.

    Each round, :meth:`plan` lets every still-live component choose its
    own pivots and returns the union of their pivot-incident pairs;
    :meth:`settle` then forms each component's clusters from its own
    pairs' confidences.  Components share no edge, so batching their
    rounds together changes no component's pivots, pairs or clusters —
    only how many crowd round trips the group waits out.

    Attributes:
        logs: One round log per component, in ``groups`` order.
    """

    def __init__(self, groups: Sequence[_Group], permutation: Permutation,
                 epsilon: float):
        self._epsilon = epsilon
        self.logs: List[List[_RoundLog]] = []
        self._live = []
        for vertices, edges in groups:
            # Rank-sort the component instead of filtering the global
            # permutation (LiveVertexOrder's constructor is O(records);
            # per-component that would be quadratic in the record count).
            order = LiveVertexOrder.from_ranked(
                sorted(vertices, key=permutation.rank))
            graph = EagerCandidateGraph(vertices, edges)
            self.logs.append([])
            if not graph.is_empty():
                self._live.append((graph, order, self.logs[-1]))
        self._planned: List[Tuple] = []

    @property
    def live(self) -> bool:
        """Does any component still have live vertices?"""
        return bool(self._live)

    def plan(self) -> Tuple[int, List[Pair]]:
        """Plan the next round: its summed pivot count and its batch."""
        self._planned = []
        batch: List[Pair] = []
        for graph, order, _ in self._live:
            ordered = order.live()
            k, estimates = choose_pivots(graph, ordered, self._epsilon)
            pivots = ordered[:k]
            pairs = pivot_incident_pairs(graph, pivots)
            self._planned.append((k, sum(estimates), len(ordered), pivots,
                                  pairs))
            batch.extend(pairs)
        return sum(planned[0] for planned in self._planned), batch

    def settle(self, confidences: Dict[Pair, float]) -> List[_RoundLog]:
        """Form the planned round's clusters; returns the round's log of
        every component that was live in it."""
        logs = []
        for (graph, order, rounds), (k, waste, live_before, pivots, pairs) \
                in zip(self._live, self._planned):
            clusters = form_clusters(graph, pivots, pairs, confidences)
            for cluster in clusters:
                order.discard(cluster)
            # Every issued pair is fresh: each pivot leaves the graph in
            # its own round, and no two components share a pair.
            fresh = tuple((a, b, confidences[(a, b)]) for a, b in pairs)
            rounds.append((k, waste, tuple(pairs), live_before, len(graph),
                           tuple(tuple(sorted(c)) for c in clusters),
                           fresh))
            logs.append(rounds[-1])
        self._live = [run for run in self._live if not run[0].is_empty()]
        return logs


def _run_components(
    groups: Sequence[_Group],
    permutation: Permutation,
    epsilon: float,
    answers,
) -> List[List[_RoundLog]]:
    """A pool task: run :class:`_Lockstep` over ``groups`` against the
    worker's forked answer source.

    Nothing is recorded here; the parent replays the returned logs
    through the caller's oracle (:func:`merge_component_runs`).

    Returns:
        One round log per component, in ``groups`` order.
    """
    lockstep = _Lockstep(groups, permutation, epsilon)
    while lockstep.live:
        _, batch = lockstep.plan()
        # Components share no pair, so the sorted union is the round's
        # canonical batch — the one the oracle posts.
        lockstep.settle(_resolve(answers, sorted(batch)) if batch else {})
    return lockstep.logs


def _execute_task(groups: Sequence[_Group]) -> List[List[_RoundLog]]:
    """One pool task: :func:`_run_components` over a group of components.

    Pure: reads :data:`_FORK_STATE` (the fork snapshot) and the payload
    only, so the pool's degraded in-parent path computes byte-identical
    results.
    """
    state = _FORK_STATE
    return _run_components(groups, state["permutation"], state["epsilon"],
                           state["answers"])


def _pivot_tasks(groups: Sequence[_Group],
                 budget: int) -> List[List[_Group]]:
    """Cut the groups, in order, into pivot tasks of about ``budget``
    vertices each: a task closes once its vertex count reaches the
    budget.  Most components are two or three records, and the pickle +
    pipe round trip of a task dwarfs their pivot work."""
    tasks: List[List[_Group]] = []
    task: List[_Group] = []
    vertices = 0
    for group in groups:
        task.append(group)
        vertices += len(group[0])
        if vertices >= budget:
            tasks.append(task)
            task, vertices = [], 0
    if task:
        tasks.append(task)
    return tasks


class ComponentRun:
    """One generation's component work, in flight as pivot tasks on a
    :class:`~repro.runtime.supervisor.SupervisedPool`.

    Attributes:
        components: Every component of the candidate graph (singletons
            included), members ascending, sorted by smallest member.
        pool: The pool the pivot tasks run on.
    """

    def __init__(self, pool: SupervisedPool,
                 components: List[Tuple[int, ...]],
                 tasks: List[List[_Group]]):
        self.pool = pool
        self.components = components
        #: Pool task indices, in submission (= component) order.
        self._tasks = [pool.submit(task) for task in tasks]

    @property
    def report(self) -> RuntimeReport:
        """The pool's fault-handling telemetry."""
        return self.pool.report

    def wait(self) -> Dict[int, List[_RoundLog]]:
        """Drain and close the pool; component index -> round logs for
        every multi-vertex component."""
        results: Dict[int, List[List[_RoundLog]]] = {}
        while len(results) < len(self._tasks):
            task, logs = self.pool.next_result()
            results[task] = logs
        self.close()
        # Tasks carry the multi-vertex components in component order.
        multi = [index for index, members in enumerate(self.components)
                 if len(members) > 1]
        return dict(zip(multi, (rounds for task in self._tasks
                                for rounds in results[task])))

    def close(self) -> None:
        """Shut the pool down and free the fork state (idempotent)."""
        self.pool.close()
        _FORK_STATE.clear()


def uses_pool(workers: int, obs=None) -> bool:
    """Will ``workers`` fork a pool?  Warns when fork is unavailable."""
    if workers <= 1:
        return False
    if fork_available():
        return True
    notify_parallel_fallback(obs, requested=workers, context="run_acd")
    return False


def _component_groups(
    ids: Sequence[int], candidates: CandidateSet,
) -> Tuple[List[Tuple[int, ...]], List[_Group]]:
    """Every component of the candidate graph, and the multi-vertex ones
    with their edges (in ``candidates.pairs`` order), both sorted by
    smallest member."""
    pairs = candidates.pairs
    components, edge_component = _label_components(ids, pairs)
    if not pairs:
        return components, []
    # A stable sort by component keeps each component's edges in pair
    # order; only multi-vertex components have edges, so the runs of
    # equal labels are exactly those components, ascending.
    order = np.argsort(edge_component, kind="stable")
    labels = edge_component[order]
    ordered = [pairs[index] for index in order.tolist()]
    starts = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist()]
    ends = [*starts[1:], len(ordered)]
    return components, [(components[label], tuple(ordered[i:j]))
                        for label, i, j in zip(labels[starts].tolist(),
                                               starts, ends)]


def start_components(
    ids: Sequence[int], candidates: CandidateSet, permutation: Permutation,
    epsilon: float, source, *, workers: int, supervisor_policy=None,
    fault_plan=None, obs=None,
) -> ComponentRun:
    """Start generation over every component of the candidate graph as
    grouped pivot tasks on a new pool of ``workers`` processes.

    The permutation and the forked answer source are published before
    the fork: workers inherit them through copy-on-write memory, and each
    task ships only its components.
    """
    require_pair_deterministic(source)
    components, groups = _component_groups(ids, candidates)
    _FORK_STATE.update(permutation=permutation, epsilon=epsilon,
                       answers=_fork_view(source))
    tasks = _pivot_tasks(groups, len(ids) // 64)
    run = ComponentRun(SupervisedPool(
        _execute_task, workers, policy=supervisor_policy, obs=obs,
        fault_plan=fault_plan, label="pipeline"), components, tasks)
    if obs is not None:
        obs.event("pipeline.dispatch", components=len(components),
                  dispatched=len(groups), tasks=len(tasks))
    return run


def _record_round(oracle: CrowdOracle, round_index: int, k: int,
                  pairs: List[Pair], settle, epsilon: float, diagnostics,
                  obs) -> List[Tuple[int, ...]]:
    """Ask one merged round's batch through the caller's oracle and
    record it: one crowd batch, one diagnostics entry, one
    ``pivot.round`` event.

    ``settle`` maps the round's confidences to the round's per-component
    logs.  Returns the round's clusters.
    """
    with maybe_span(obs, "pivot.partial", k=k) as span:
        logs = settle(oracle.ask_batch(pairs))
        clusters = [members for log in logs for members in log[5]]
        waste = sum(log[1] for log in logs)
        if obs is not None:
            span.set_attr("issued_pairs", len(pairs))
            span.set_attr("clusters", len(clusters))
            span.set_attr("predicted_waste", waste)
    if diagnostics is not None or obs is not None:
        result = PartialPivotResult(
            clusters=tuple(frozenset(c) for c in clusters),
            issued_pairs=tuple(pairs),
            predicted_waste=waste,
        )
        _finish_round(obs, diagnostics, round_index, k, result, epsilon,
                      sum(log[3] for log in logs),
                      sum(log[4] for log in logs))
    return clusters


def generate_inline(
    ids: Sequence[int],
    candidates: CandidateSet,
    permutation: Permutation,
    oracle: CrowdOracle,
    epsilon: float,
    diagnostics,
    obs,
) -> Clustering:
    """Run every component in this process as one lockstep group.

    Its rounds *are* the merged rounds, so each is asked of the caller's
    oracle as it runs: the answer source sees exactly the batches the run
    records, each once — any source works, stateful ones included.
    """
    components, groups = _component_groups(ids, candidates)
    lockstep = _Lockstep(groups, permutation, epsilon)
    clusters: List[Tuple[int, ...]] = []
    round_index = 0
    while lockstep.live:
        round_index += 1
        k, batch = lockstep.plan()
        clusters.extend(_record_round(oracle, round_index, k, batch,
                                      lockstep.settle, epsilon, diagnostics,
                                      obs))
    return _merge_clusters(ids, components, clusters, permutation)


def merge_component_runs(
    ids: Sequence[int],
    components: Sequence[Tuple[int, ...]],
    component_rounds: Dict[int, List[_RoundLog]],
    permutation: Permutation,
    oracle: CrowdOracle,
    epsilon: float,
    diagnostics,
    obs,
) -> Clustering:
    """Replay a pool's round logs through the caller's oracle and merge.

    The replay *is* the authoritative accounting: priming the source
    with the workers' confidences makes ``oracle.ask_batch`` a cheap memo
    lookup while still flowing through the known-answer set,
    ``CrowdStats``, fault-counter draining, journaling, and the
    ``crowd.batch`` event.  Rounds are merged across components (round
    ``r`` = every component's local round ``r``): one crowd batch and one
    diagnostics/obs round each — the same rounds :func:`generate_inline`
    asks — so the iteration count reports the parallel crowd latency
    instead of a per-component sum.
    """
    for index, members in enumerate(components):
        if len(members) > 1 and index not in component_rounds:
            raise RuntimeError(
                f"component {index} ({len(members)} vertices) produced "
                "no component run"
            )
    prime = getattr(oracle.source, "prime", None)
    if prime is not None:
        prime({(a, b): confidence
               for rounds in component_rounds.values()
               for log in rounds for a, b, confidence in log[6]})

    by_round: List[List[_RoundLog]] = []
    for rounds in component_rounds.values():
        for depth, log in enumerate(rounds):
            if depth == len(by_round):
                by_round.append([])
            by_round[depth].append(log)

    clusters: List[Tuple[int, ...]] = []
    for round_index, logs in enumerate(by_round, 1):
        pairs = [pair for log in logs for pair in log[2]]
        clusters.extend(_record_round(
            oracle, round_index, sum(log[0] for log in logs), pairs,
            lambda _confidences, logs=logs: logs, epsilon, diagnostics,
            obs))
    return _merge_clusters(ids, components, clusters, permutation)


def _merge_clusters(
    ids: Sequence[int],
    components: Sequence[Tuple[int, ...]],
    clusters: List[Tuple[int, ...]],
    permutation: Permutation,
) -> Clustering:
    """The generation clustering: every component's clusters, with cluster
    ids in the whole-graph loop's order."""
    rank = permutation.rank
    keyed_clusters = [(min(map(rank, members)), members)
                      for members in clusters]
    # Singleton components never issue a pair: they contribute their
    # vertex as a rank-keyed singleton cluster straight to the merge.
    keyed_clusters.extend((rank(members[0]), members)
                          for members in components if len(members) == 1)
    # A cluster's pivot is its minimum-rank member, and the whole-graph
    # loop emits clusters in strictly ascending pivot rank — sorting by
    # pivot rank therefore reproduces its cluster IDs exactly.  Pivot
    # ranks are unique across the disjoint clusters, so the bare tuple
    # sort never compares the member tuples.
    keyed_clusters.sort()
    clustering = Clustering()
    seen: set = set()
    for _, members in keyed_clusters:
        overlap = seen.intersection(members)
        if overlap:
            raise RuntimeError(
                f"component merge produced overlapping clusters: "
                f"records {sorted(overlap)} appear twice"
            )
        seen.update(members)
        clustering.add_cluster(members)
    if len(seen) != len(set(ids)):
        raise RuntimeError(
            f"component merge lost records: {len(seen)} clustered, "
            f"{len(set(ids))} expected"
        )
    return clustering

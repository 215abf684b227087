"""Cluster generation (Section 4): Crowd-Pivot, Partial-Pivot, PC-Pivot.

The three algorithms are one loop: choose pivots in permutation order,
ask the crowd every candidate edge incident to them, and form clusters.

- :func:`crowd_pivot` (Algorithm 1) takes one pivot per crowd iteration,
  the live record of smallest permutation rank, and clusters it with
  every neighbor the crowd marks duplicate (``f_c > 0.5``): a
  5-approximation of the Λ' minimum in expectation (Lemma 1).
- A Partial-Pivot round (Algorithm 2) takes the first ``k`` live records
  as simultaneous pivots.  :func:`pivot_incident_pairs` is its one crowd
  batch; :func:`form_clusters` replays sequential cluster formation on
  the answers.  Lemma 2: the clusters equal Crowd-Pivot's for the same
  permutation and answers; batching costs only *wasted pairs*, which
  Equation 3 bounds before any crowdsourcing (:func:`waste_estimates`).
- :func:`pc_pivot` (Algorithm 3) runs rounds whose ``k`` is the largest
  prefix with predicted waste within an ``ε`` fraction of the pairs
  issued (Equation 4, :func:`choose_pivots`), so at most that fraction of
  issued pairs is wasted (Lemma 4).

**Decomposition.**  Every issued pair is pivot-incident, so work in one
connected component of the candidate graph never touches another's
vertices: running the loop per component, with the global permutation
restricted to it, forms exactly the whole-graph loop's clusters.
PC-Pivot runs that way.  :class:`_Lockstep` advances a group of
components together; each plans its own pivots, and the union of their
pairs is one crowd batch.  Round ``r`` is every component's local round
``r``, so ``CrowdStats.iterations`` is the deepest component's round
count.  :func:`pc_pivot` runs all components in this process and asks
each merged round of the caller's oracle as it runs, so any answer source
works, stateful ones included.  :func:`pc_pivot_on_pool` runs them as
grouped tasks on one supervised worker pool (:func:`generation_pool`),
against forked copies of a pair-deterministic source, and
:func:`merge_component_runs` replays the same merged rounds through the
caller's oracle, the one place a pool run is recorded.  Either way each
merged round is one crowd batch, one diagnostics entry and one
``pivot.round`` event.

**Determinism contract.**  The clustering, cluster ids included, equals
the whole-graph loop's (:func:`repro.reference.pc_pivot`) for the same
permutation and answers: a cluster's pivot is its minimum-rank member,
and the whole-graph loop emits clusters in ascending pivot rank, so
sorting by pivot rank reproduces its ids.  A component's round log is a
pure function of ``(component, permutation, ε, answer source)``; task
grouping, scheduling and process faults change only wall clock, and the
merge reads the logs in canonical component order.  Round *accounting*
differs: the whole-graph Equation-4 rounds couple components through the
global permutation prefix, so the oracle reports more rounds on
many-component data.  The ε bound holds per component and round, hence
globally.  The literal readings (a minimum-rank scan per pivot, a re-sort
and an unfused Equation-3/4 scan per round) are the oracles in
:mod:`repro.reference`; ``tests/core/test_pivot_engines.py`` checks that
both produce byte-identical clusterings, diagnostics and event streams.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

import numpy as np

from repro.core.clustering import Clustering
from repro.core.permutation import Permutation
from repro.crowd.oracle import CrowdOracle
from repro.obs import maybe_span
from repro.pruning.candidate import CandidateSet
from repro.pruning.components import _label_components
from repro.pruning.graph import CandidateGraph
from repro.runtime.supervisor import SupervisedPool

Pair = Tuple[int, int]

DEFAULT_EPSILON = 0.1

#: One component's round: (k, predicted_waste, issued_pairs, live_before,
#: remaining, clusters, fresh_answers).  Plain tuples so the pipe can
#: pickle them cheaply.
_RoundLog = Tuple[int, int, Tuple[Pair, ...], int, int,
                  Tuple[Tuple[int, ...], ...],
                  Tuple[Tuple[int, int, float], ...]]

#: A component as the lockstep loop takes it: (vertices, edges).
_Group = Tuple[Tuple[int, ...], Tuple[Pair, ...]]


@dataclass
class PCPivotDiagnostics:
    """Per-run diagnostics of PC-Pivot (used by the ε experiments).

    Attributes:
        ks: The pivot count chosen in each round.
        predicted_waste: Equation-3 waste bound summed per round.
        issued_per_round: Number of candidate pairs issued per round.
    """

    ks: List[int] = field(default_factory=list)
    predicted_waste: List[int] = field(default_factory=list)
    issued_per_round: List[int] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.ks)

    @property
    def total_predicted_waste(self) -> int:
        return sum(self.predicted_waste)

    def to_state(self) -> Dict[str, List[int]]:
        """A JSON-safe snapshot (checkpoint payloads)."""
        return asdict(self)

    @classmethod
    def from_state(cls, state: Dict) -> "PCPivotDiagnostics":
        """Inverse of :meth:`to_state`."""
        return cls(**{name: [int(value) for value in state[name]]
                      for name in ("ks", "predicted_waste",
                                   "issued_per_round")})


@dataclass(frozen=True)
class PartialPivotResult:
    """One Partial-Pivot round, as the whole-graph oracle
    :func:`repro.reference.partial_pivot` returns it.

    Attributes:
        clusters: The clusters formed this round, in pivot order.
        issued_pairs: The candidate pairs sent to the crowd this round.
        predicted_waste: The Equation-3 upper bound ``sum w_j`` computed
            before crowdsourcing.
    """

    clusters: Tuple[FrozenSet[int], ...]
    issued_pairs: Tuple[Pair, ...]
    predicted_waste: int


class LiveVertexOrder:
    """Live vertices in permutation order, with lazy-deletion compaction.

    Built once from the permutation (an O(n) filter — the permutation *is*
    the sorted order), then kept current by :meth:`discard` as clusters
    remove vertices.  :meth:`live` compacts the tombstoned entries out and
    returns the remaining vertices in ascending permutation rank, so a
    round's ordered view costs O(live) rather than a sort; :meth:`first`
    serves the sequential access pattern (next live pivot) in amortized
    O(1) by advancing a head cursor.
    """

    def __init__(self, permutation: Permutation, vertices: Iterable[int]):
        alive = set(vertices)
        self._order: List[int] = [v for v in permutation if v in alive]
        if len(self._order) != len(alive):
            missing = alive - set(self._order)
            raise ValueError(
                f"vertices missing from the permutation: {sorted(missing)}"
            )
        self._dead: Set[int] = set()
        self._head = 0

    @classmethod
    def from_ranked(cls, ordered: Iterable[int]) -> "LiveVertexOrder":
        """Build from vertices already sorted by ascending permutation
        rank, skipping the O(n) permutation filter of the constructor —
        per component, that filter would be quadratic in the record
        count, while a component sorts by rank in O(c log c)."""
        self = cls.__new__(cls)
        self._order = list(ordered)
        self._dead = set()
        self._head = 0
        return self

    def __len__(self) -> int:
        return len(self._order) - self._head - len(self._dead)

    def discard(self, vertices: Iterable[int]) -> None:
        """Tombstone vertices (clustered this round); O(1) each."""
        self._dead.update(vertices)

    def live(self) -> List[int]:
        """The live vertices in permutation order (compacting in place).

        The returned list is the internal buffer — callers must treat it
        as read-only and must not hold it across a :meth:`discard`.
        """
        if self._head or self._dead:
            dead = self._dead
            self._order = [v for v in self._order[self._head:]
                           if v not in dead]
            self._head = 0
            dead.clear()
        return self._order

    def first(self) -> Optional[int]:
        """The live vertex with the smallest rank; ``None`` when empty."""
        order, dead = self._order, self._dead
        head = self._head
        while head < len(order) and order[head] in dead:
            dead.discard(order[head])
            head += 1
        self._head = head
        return order[head] if head < len(order) else None


# ---------------------------------------------------------------------------
# One round: Equations 3-4, the crowd batch, cluster formation
# ---------------------------------------------------------------------------


def waste_estimates(graph: CandidateGraph, pivots: List[int]) -> List[int]:
    """Equation 3: the per-pivot wasted-pair bounds ``w_j``.

    For pivot ``r_j``: if ``r_j`` is adjacent to an earlier pivot, every edge
    from ``r_j`` to a non-pivot may be wasted (``r_j`` may get absorbed);
    otherwise only edges to vertices that some earlier pivot can steal
    (common neighbors) may be wasted.

    Args:
        graph: The current candidate graph ``G_i``.
        pivots: The chosen pivots ``r_1 ... r_k`` in permutation order.

    Returns:
        ``[w_1, ..., w_k]`` (``w_1`` is always 0).
    """
    earlier_pivots: Set[int] = set()
    pivot_neighborhood: Set[int] = set()  # union of N(r_x) over earlier pivots
    estimates: List[int] = []
    for pivot in pivots:
        neighbors = graph.neighbors(pivot)
        if pivot in pivot_neighborhood:
            # r_j can be clustered by an earlier pivot; all its non-pivot
            # edges are then wasted.
            waste = sum(1 for n in neighbors if n not in earlier_pivots)
        else:
            # r_j survives as a pivot, but earlier pivots may steal its
            # common neighbors.
            waste = sum(1 for n in neighbors if n in pivot_neighborhood)
        estimates.append(waste)
        earlier_pivots.add(pivot)
        pivot_neighborhood.update(neighbors)
    return estimates


def choose_pivots(graph: CandidateGraph, ordered: List[int],
                  epsilon: float) -> Tuple[int, List[int]]:
    """Fused Equation-4 scan: the largest admissible ``k`` and the
    Equation-3 waste estimates of the chosen prefix.

    Single pass over ``ordered`` (the live vertices in permutation order):
    each vertex's waste bound ``w_j`` and its fresh-edge contribution to
    ``|P_j|`` come from one ``neighbors()`` call, where the oracle
    (:func:`repro.reference.choose_k` + :func:`waste_estimates`) walks the
    neighborhood three times.  The scan stops once ``sum w_j`` exceeds
    ``epsilon`` times the *total* live edge count: ``|P_j|`` can never
    grow past that, and ``sum w_j`` never shrinks, so no longer prefix can
    satisfy Equation 4.

    Returns:
        ``(k, estimates)`` with ``len(estimates) == k``; ``(0, [])`` on an
        empty vertex list.  ``sum(estimates)`` is exactly the oracle's
        ``predicted_waste`` for the same prefix.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not ordered:
        return 0, []

    best_k = 1
    cumulative_waste = 0
    issued_edges = 0
    waste_ceiling = epsilon * graph.num_edges()
    earlier_pivots: Set[int] = set()
    pivot_neighborhood: Set[int] = set()
    estimates: List[int] = []
    for j, pivot in enumerate(ordered, start=1):
        neighbors = graph.neighbors(pivot)
        fresh = 0
        common = 0
        for neighbor in neighbors:
            if neighbor not in earlier_pivots:
                fresh += 1
            if neighbor in pivot_neighborhood:
                common += 1
        # Equation 3: an absorbable pivot may waste every non-pivot edge;
        # a surviving pivot only the edges earlier pivots can steal.
        waste = fresh if pivot in pivot_neighborhood else common
        estimates.append(waste)
        cumulative_waste += waste
        issued_edges += fresh
        if cumulative_waste <= epsilon * issued_edges:
            best_k = j
        elif cumulative_waste > waste_ceiling:
            break
        earlier_pivots.add(pivot)
        pivot_neighborhood.update(neighbors)
    return best_k, estimates[:best_k]


def pivot_incident_pairs(graph: CandidateGraph,
                         pivots: List[int]) -> List[Pair]:
    """The first half of a round: every candidate edge incident to a
    pivot, canonical and sorted — the round's one crowd batch."""
    issued: Set[Pair] = set()
    for pivot in pivots:
        for neighbor in graph.neighbors(pivot):
            issued.add((pivot, neighbor) if pivot < neighbor
                       else (neighbor, pivot))
    return sorted(issued)


def form_clusters(
    graph: CandidateGraph,
    pivots: List[int],
    pairs: List[Pair],
    answers: Mapping[Pair, float],
) -> Tuple[FrozenSet[int], ...]:
    """The second half of a round: replay sequential Crowd-Pivot cluster
    formation on the answered subgraph, removing clustered vertices from
    ``graph``.

    Args:
        graph: ``G_i``; it becomes ``G_{i+1}`` on return.
        pivots: The round's pivots in permutation order.
        pairs: The round's :func:`pivot_incident_pairs`.
        answers: Crowd confidences covering at least ``pairs`` (it may
            hold other rounds' or other components' pairs too).

    Returns:
        The clusters formed, in pivot order.
    """
    # H_i: all live vertices, edges restricted to crowd-confirmed duplicates.
    confirmed: Dict[int, Set[int]] = {}
    for pair in pairs:
        if answers[pair] > 0.5:
            a, b = pair
            confirmed.setdefault(a, set()).add(b)
            confirmed.setdefault(b, set()).add(a)

    removed: Set[int] = set()
    clusters: List[FrozenSet[int]] = []
    for pivot in pivots:
        if pivot in removed:
            continue
        cluster = {pivot}
        for neighbor in confirmed.get(pivot, ()):
            if neighbor not in removed:
                cluster.add(neighbor)
        clusters.append(frozenset(cluster))
        removed.update(cluster)
    graph.remove_vertices(removed)
    return tuple(clusters)


def _finish_round(obs, diagnostics, round_index, k, predicted_waste,
                  issued_pairs, clusters, epsilon, live_before,
                  remaining) -> None:
    """Per-round bookkeeping, shared with the :mod:`repro.reference`
    oracle so both emit identical diagnostics and event streams."""
    if diagnostics is not None:
        diagnostics.ks.append(k)
        diagnostics.predicted_waste.append(predicted_waste)
        diagnostics.issued_per_round.append(issued_pairs)
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
            predicted_waste=predicted_waste,
            issued_pairs=issued_pairs,
            clusters=clusters,
            remaining_records=remaining,
        )


# ---------------------------------------------------------------------------
# Crowd-Pivot (Algorithm 1)
# ---------------------------------------------------------------------------


def crowd_pivot(
    record_ids,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    permutation: Optional[Permutation] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    obs=None,
) -> Clustering:
    """Run Crowd-Pivot over the whole candidate graph, one pivot per crowd
    iteration.

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: The candidate set ``S`` from the pruning phase.
        oracle: Crowd access; each pivot's incident edges are issued as one
            batch, so crowd iterations == number of pivots with >= 1 fresh
            incident pair.
        permutation: Explicit pivot order ``M``; when ``None``, a random one
            is drawn (from ``rng``/``seed``).
        seed: Seed for the random permutation (ignored if ``permutation``).
        rng: Alternative RNG for the permutation.
        obs: Optional :class:`~repro.obs.ObsContext`; each pivot emits a
            ``pivot.pivot`` event (pivot id, incident edges, cluster
            size) and bumps the round counter.

    Returns:
        The clustering ``C``.
    """
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, rng=rng, seed=seed)
    graph = CandidateGraph(ids, candidates.pairs)
    order = LiveVertexOrder(permutation, graph.vertices)
    clustering = Clustering()

    while not graph.is_empty():
        pivots = [order.first()]
        pairs = pivot_incident_pairs(graph, pivots)
        (cluster,) = form_clusters(graph, pivots, pairs,
                                   oracle.ask_batch(pairs))
        clustering.add_cluster(cluster)
        order.discard(cluster)
        if obs is not None:
            obs.metrics.counter(
                "pivot_rounds_total",
                help="Sequential Crowd-Pivot iterations executed",
            ).inc()
            obs.event(
                "pivot.pivot",
                pivot=pivots[0],
                incident_edges=len(pairs),
                cluster_size=len(cluster),
                remaining_records=len(graph),
            )

    return clustering


# ---------------------------------------------------------------------------
# PC-Pivot (Algorithm 3), per component in lockstep
# ---------------------------------------------------------------------------


class _Lockstep:
    """The PC-Pivot loop over a group of ``(vertices, edges)`` components
    in lockstep: one batch per round for all of them.

    Each round, :meth:`plan` lets every still-live component choose its
    own pivots and returns the union of their pivot-incident pairs;
    :meth:`settle` then forms each component's clusters from its own
    pairs' confidences.  Components share no edge, so batching their
    rounds changes no component's pivots, pairs or clusters — only how
    many crowd round trips the group waits out.

    Attributes:
        logs: One round log per component, in ``groups`` order.
    """

    def __init__(self, groups: Sequence[_Group], permutation: Permutation,
                 epsilon: float):
        self._epsilon = epsilon
        self.logs: List[List[_RoundLog]] = []
        self._live = []
        for vertices, edges in groups:
            order = LiveVertexOrder.from_ranked(
                sorted(vertices, key=permutation.rank))
            graph = CandidateGraph(vertices, edges)
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
    _finish_round(obs, diagnostics, round_index, k, waste, len(pairs),
                  len(clusters), epsilon, sum(log[3] for log in logs),
                  sum(log[4] for log in logs))
    return clusters


def pc_pivot(
    record_ids,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    epsilon: float = DEFAULT_EPSILON,
    permutation: Optional[Permutation] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    diagnostics: Optional[PCPivotDiagnostics] = None,
    obs=None,
) -> Clustering:
    """Run PC-Pivot per component, every component in this process in
    one lockstep group, asking each merged round of ``oracle`` as it runs.

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: The candidate set ``S``.
        oracle: Crowd access (one batch per merged round).
        epsilon: The wasted-pair budget ε of Equation 4 (paper default 0.1).
        permutation: Explicit permutation ``M``; random when ``None``.
        seed: Seed for the random permutation (ignored if ``permutation``).
        rng: Alternative RNG for the permutation.
        diagnostics: Optional sink for per-round measurements.
        obs: Optional :class:`~repro.obs.ObsContext`; each merged round
            emits a ``pivot.round`` event (chosen ``k``, predicted waste,
            issued pairs, clusters formed) and bumps the round counter.
            Rounds forced down to ``k=1`` under a positive ε additionally
            emit a ``pivot.waste_bound_binding`` warning event — the
            waste bound is binding and the round runs sequentially.

    Returns:
        The clustering ``C`` (identical per permutation to Crowd-Pivot's).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, rng=rng, seed=seed)
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


# ---------------------------------------------------------------------------
# PC-Pivot on a worker pool
# ---------------------------------------------------------------------------


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


def _run_components(
    groups: Sequence[_Group],
    permutation: Permutation,
    epsilon: float,
    answers,
) -> List[List[_RoundLog]]:
    """A pool task: run :class:`_Lockstep` over ``groups`` against the
    worker's forked answer source, recording nothing.

    Returns:
        One round log per component, in ``groups`` order.
    """
    lockstep = _Lockstep(groups, permutation, epsilon)
    batch_resolver = getattr(answers, "confidence_batch", None)
    while lockstep.live:
        _, batch = lockstep.plan()
        # Components share no pair, so the sorted union is the round's
        # canonical batch — the one the oracle posts.
        batch.sort()
        if batch_resolver is not None:
            confidences = batch_resolver(batch) if batch else {}
        else:
            confidences = {pair: answers.confidence(*pair) for pair in batch}
        lockstep.settle(confidences)
    return lockstep.logs


@contextmanager
def generation_pool(
    source, permutation: Permutation, epsilon: float, *, workers: int,
    obs=None, supervisor_policy=None, fault_plan=None,
) -> Iterator[SupervisedPool]:
    """Fork the generation pool's ``workers`` processes, and close them
    on exit.

    Its worker function closes over the permutation, ε and the forked
    answer source (never a journaling wrapper:
    :attr:`repro.crowd.persistence.JournalingAnswerFile.fork_source`,
    since the parent's replay journals), so workers inherit them through
    copy-on-write memory.  Nothing else a task needs is shared: each
    ships its components, so the pool can be forked before the candidate
    set exists.  :func:`~repro.core.acd.run_acd` opens it before pruning,
    and its workers inherit that lean heap rather than the one the
    pruning join leaves behind.
    """
    require_pair_deterministic(source)
    answers = getattr(source, "fork_source", source)

    def run_task(groups: Sequence[_Group]) -> List[List[_RoundLog]]:
        return _run_components(groups, permutation, epsilon, answers)

    pool = SupervisedPool(run_task, workers, policy=supervisor_policy,
                          obs=obs, fault_plan=fault_plan, label="pipeline")
    try:
        yield pool
    finally:
        pool.close()


def pc_pivot_on_pool(
    pool: SupervisedPool, ids: Sequence[int], candidates: CandidateSet,
    oracle: CrowdOracle, epsilon: float, permutation: Permutation,
    diagnostics, obs,
) -> Clustering:
    """Run PC-Pivot's components as pivot tasks on ``pool`` (a
    :func:`generation_pool` over the same permutation, ε and source),
    then replay their rounds through ``oracle``
    (:func:`merge_component_runs`).

    Components are cut, in order, into tasks of about ``len(ids) // 64``
    vertices: most are two or three records, and a task's pickle and pipe
    round trip dwarfs their pivot work.
    """
    components, groups = _component_groups(ids, candidates)
    budget = len(ids) // 64
    tasks: List[List[_Group]] = [[]]
    vertices = 0
    for group in groups:
        if vertices >= budget and tasks[-1]:
            tasks.append([])
            vertices = 0
        tasks[-1].append(group)
        vertices += len(group[0])
    if not tasks[-1]:
        tasks.pop()
    submitted = [pool.submit(task) for task in tasks]
    if obs is not None:
        obs.event("pipeline.dispatch", components=len(components),
                  dispatched=len(groups), tasks=len(tasks))
    results: Dict[int, List[List[_RoundLog]]] = {}
    while len(results) < len(submitted):
        task, logs = pool.next_result()
        results[task] = logs
    # Tasks carry the multi-vertex components in component order.
    multi = [index for index, members in enumerate(components)
             if len(members) > 1]
    component_rounds = dict(zip(multi, (rounds for task in submitted
                                        for rounds in results[task])))
    return merge_component_runs(ids, components, component_rounds,
                                permutation, oracle, epsilon, diagnostics,
                                obs)


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
    ``crowd.batch`` event — the same merged rounds :func:`pc_pivot` asks.
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
    # Pivot ranks are unique across the disjoint clusters, so the bare
    # tuple sort never compares the member tuples.
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

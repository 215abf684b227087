"""Partial-Pivot (Algorithm 2) and the wasted-pair bound (Equation 3).

Partial-Pivot batches one crowd iteration: it takes the ``k`` un-clustered
records with the smallest permutation ranks as simultaneous pivots, issues
*all* their incident candidate edges in one batch, and then replays the
sequential Crowd-Pivot cluster formation on the answered subgraph.  Lemma 2:
given the same permutation and the same crowd answers, the clusters produced
are identical to sequential Crowd-Pivot's — parallelism costs only *wasted
pairs* (edges the sequential algorithm would never have asked), and Equation
3 bounds those ahead of time, before any crowdsourcing.

A round has two halves around its crowd batch:
:func:`pivot_incident_pairs` (what to ask) and :func:`form_clusters`
(the clusters the answers imply).  The lockstep rounds of
:mod:`repro.core.pivot_shard` run the first half for every live
component, ask the union in one batch, then run the second half per
component; the whole-graph round around one ``ask_batch`` is the test
oracle :func:`repro.reference.partial_pivot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

from repro.pruning.graph import CandidateGraph

Pair = Tuple[int, int]


@dataclass(frozen=True)
class PartialPivotResult:
    """Output of one Partial-Pivot invocation.

    Attributes:
        clusters: The clusters formed this round, in pivot order.
        issued_pairs: The candidate pairs sent to the crowd this round.
        predicted_waste: The Equation-3 upper bound ``sum w_j`` computed
            before crowdsourcing.
    """

    clusters: Tuple[FrozenSet[int], ...]
    issued_pairs: Tuple[Pair, ...]
    predicted_waste: int


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

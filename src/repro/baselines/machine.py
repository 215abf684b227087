"""Machine-only baselines: no crowd at all.

These are the classic correlation-clustering algorithms the paper builds on:
Pivot (Ailon et al. [5]) run directly on machine similarity scores, and the
BOEM local-move postprocessing (Gionis et al. [22] / Goder-Filkov [23]) the
paper rules out for crowd settings but which is the natural machine-side
refiner.  They serve as the no-crowd reference point in the experiments and
examples.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Set, Tuple

from repro.core.clustering import Clustering
from repro.core.generation import LiveVertexOrder
from repro.core.permutation import Permutation
from repro.pruning.candidate import CandidateSet
from repro.pruning.graph import CandidateGraph

Pair = Tuple[int, int]


def machine_pivot(
    record_ids,
    candidates: CandidateSet,
    threshold: float = 0.5,
    permutation: Optional[Permutation] = None,
    seed: Optional[int] = None,
) -> Clustering:
    """Pivot on machine scores: a neighbor joins the pivot's cluster iff its
    machine similarity exceeds ``threshold`` (no crowd involved).

    Args:
        record_ids: The record set ``R`` (ids).
        candidates: The candidate set with machine scores.
        threshold: Same-entity decision threshold on ``f``.
        permutation: Explicit pivot order; random from ``seed`` otherwise.
    """
    ids = list(record_ids)
    if permutation is None:
        permutation = Permutation.random(ids, seed=seed)
    graph = CandidateGraph(ids, candidates.pairs)
    order = LiveVertexOrder(permutation, graph.vertices)
    clustering = Clustering()
    while not graph.is_empty():
        pivot = order.first()
        cluster = {pivot}
        for neighbor in graph.neighbors(pivot):
            if candidates.score(pivot, neighbor) > threshold:
                cluster.add(neighbor)
        clustering.add_cluster(cluster)
        graph.remove_vertices(cluster)
        order.discard(cluster)
    return clustering


def boem(
    clustering: Clustering,
    record_ids,
    score: Callable[[int, int], float],
    max_rounds: int = 50,
) -> Clustering:
    """Best-One-Element-Move postprocessing.

    Repeatedly moves the single record whose relocation (to another cluster
    or to a fresh singleton) most decreases the Λ objective, until no move
    helps.  Requires a complete score lookup — which is exactly why the paper
    deems it unusable with a crowd (Section 5.1): computing move deltas needs
    the scores of *all* pairs involving the candidate records.

    Args:
        clustering: Starting partition (mutated in place).
        record_ids: The record set ``R`` (ids).
        score: Complete pair score lookup (machine scores, or full crowd
            answers in an ablation).
        max_rounds: Safety cap on improvement rounds.

    Returns:
        The locally-optimal clustering.
    """
    ids = list(record_ids)

    def move_delta(record_id: int, target_members: Set[int]) -> float:
        """Λ change if ``record_id`` moved into the given target cluster
        (empty set = new singleton)."""
        current = clustering.members(clustering.cluster_of(record_id))
        current.discard(record_id)
        # Leaving the current cluster: pairs flip from together to apart.
        delta = sum(
            score(record_id, other) - (1.0 - score(record_id, other))
            for other in current
        )
        # Joining the target: pairs flip from apart to together.
        delta += sum(
            (1.0 - score(record_id, other)) - score(record_id, other)
            for other in target_members
        )
        return delta

    for _ in range(max_rounds):
        best_delta = -1e-9
        best_move: Optional[Tuple[int, Optional[int]]] = None
        cluster_ids = clustering.cluster_ids
        for record_id in ids:
            home = clustering.cluster_of(record_id)
            if clustering.size(home) > 1:
                delta = move_delta(record_id, set())
                if delta < best_delta:
                    best_delta = delta
                    best_move = (record_id, None)
            for cluster_id in cluster_ids:
                if cluster_id == home:
                    continue
                delta = move_delta(record_id, clustering.members(cluster_id))
                if delta < best_delta:
                    best_delta = delta
                    best_move = (record_id, cluster_id)
        if best_move is None:
            break
        record_id, target = best_move
        if clustering.size(clustering.cluster_of(record_id)) > 1:
            clustering.split(record_id)
        if target is not None:
            clustering.merge(clustering.cluster_of(record_id), target)
    return clustering

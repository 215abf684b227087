"""Crowd-Pivot (Algorithm 1): the sequential crowd-based Pivot algorithm.

Per iteration: pick the un-clustered record with the smallest permutation
rank as the pivot, crowdsource all candidate edges incident to it (one crowd
iteration), and form a cluster of the pivot plus every neighbor the crowd
marks duplicate (``f_c > 0.5``).  A 5-approximation of the Λ' minimum in
expectation (Lemma 1, via Ailon et al.).

The loop walks a permutation-ordered live list with a lazily advancing
head cursor over an eagerly cleaned graph.  The literal per-iteration
minimum-rank scan is the test oracle :func:`repro.reference.crowd_pivot`;
the two are byte-identical.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.clustering import Clustering
from repro.core.permutation import Permutation
from repro.core.pivot_engine import LiveVertexOrder
from repro.crowd.oracle import CrowdOracle
from repro.pruning.candidate import CandidateSet
from repro.pruning.graph import EagerCandidateGraph


def crowd_pivot(
    record_ids,
    candidates: CandidateSet,
    oracle: CrowdOracle,
    permutation: Optional[Permutation] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    obs=None,
) -> Clustering:
    """Run Crowd-Pivot over the candidate graph.

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
    graph = EagerCandidateGraph(ids, candidates.pairs)
    order = LiveVertexOrder(permutation, graph.vertices)
    clustering = Clustering()

    while not graph.is_empty():
        pivot = order.first()
        neighbors = graph.neighbors(pivot)
        answers = oracle.ask_batch((pivot, n) for n in neighbors)
        cluster = {pivot}
        for neighbor in neighbors:
            key = (pivot, neighbor) if pivot < neighbor else (neighbor, pivot)
            if answers[key] > 0.5:
                cluster.add(neighbor)
        clustering.add_cluster(cluster)
        graph.remove_vertices(cluster)
        order.discard(cluster)
        if obs is not None:
            obs.metrics.counter(
                "pivot_rounds_total",
                help="Sequential Crowd-Pivot iterations executed",
            ).inc()
            obs.event(
                "pivot.pivot",
                pivot=pivot,
                incident_edges=len(neighbors),
                cluster_size=len(cluster),
                remaining_records=len(graph),
            )

    return clustering

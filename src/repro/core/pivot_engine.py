"""Incremental machinery for the cluster-generation phase (Algorithms 2-3).

The permutation order over the record set is materialized once; clustered
vertices are lazily deleted and the order compacts itself on access
(:class:`LiveVertexOrder`), so each round's ordered live-vertex view costs
O(live) instead of O(n log n).  The Equation-4 prefix scan
(:func:`choose_pivots`) fuses the waste estimates with the fresh-edge count
in a single pass and stops early once the accumulated waste bound provably
exceeds what any longer prefix could justify.  The chosen pivots and their
waste bound are handed to ``partial_pivot`` instead of being recomputed
there.

The literal reading of the paper — every round copies the live-vertex set,
sorts it by permutation rank, and re-derives the Equation-3 waste estimates
from scratch — is the test oracle in :mod:`repro.reference`.  Both produce
byte-identical clusterings, issued-pair sequences, diagnostics, and
observability event streams — property-tested in
``tests/core/test_pivot_engines.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.core.permutation import Permutation
from repro.pruning.graph import CandidateGraph

class LiveVertexOrder:
    """Live vertices in permutation order, with lazy-deletion compaction.

    Built once from the permutation (an O(n) filter — the permutation *is*
    the sorted order), then kept current by :meth:`discard` as clusters
    remove vertices.  :meth:`live` compacts the tombstoned entries out and
    returns the remaining vertices in ascending permutation rank;
    :meth:`first` serves the sequential Crowd-Pivot access pattern (next
    live pivot) in amortized O(1) by advancing a head cursor.
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
        rank, skipping the O(n) permutation filter of the constructor.

        Component execution runs thousands of component-sized loops
        against one global permutation; filtering the full permutation
        per component would be quadratic in the record count, while the
        caller can rank-sort each component in O(c log c).
        """
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


def choose_pivots(graph: CandidateGraph, ordered: List[int],
                  epsilon: float) -> Tuple[int, List[int]]:
    """Fused Equation-4 scan: the largest admissible ``k`` and the
    Equation-3 waste estimates of the chosen prefix.

    Single pass over ``ordered`` (the live vertices in permutation order):
    each vertex's waste bound ``w_j`` and its fresh-edge contribution to
    ``|P_j|`` are derived from one ``neighbors()`` call, where the
    reference path (:func:`repro.reference.choose_k` +
    :func:`~repro.core.partial_pivot.waste_estimates`) walks the
    neighborhood three times.  The scan stops early once ``sum w_j``
    exceeds ``epsilon`` times the *total* live edge count: ``|P_j|`` can
    never grow past that, and ``sum w_j`` never shrinks, so no longer
    prefix can satisfy Equation 4 — the early exit drops work without
    changing the answer.

    Returns:
        ``(k, estimates)`` with ``len(estimates) == k``; ``(0, [])`` on an
        empty vertex list.  ``sum(estimates)`` is exactly the
        ``predicted_waste`` the reference oracle would compute for the
        same prefix.
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

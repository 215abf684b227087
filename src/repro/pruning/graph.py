"""The candidate graph ``G = (V_R, E_S)``.

Every clustering algorithm in the paper operates on the undirected graph
whose vertices are records and whose edges are candidate pairs (Table 1).
:class:`CandidateGraph` provides the mutable view the pivot algorithms need:
vertex removal as clusters form, never re-inserting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.datasets.schema import canonical_pair

Pair = Tuple[int, int]


class CandidateGraph:
    """Undirected graph over record ids with eager vertex removal.

    Removing a vertex drops its incident edges at once, so a live vertex's
    adjacency set holds live neighbors only: ``num_edges`` is a counter,
    and ``neighbors()`` serves a memoized sorted tuple that is dropped
    only when an incident vertex is removed.  The pivot loops walk every
    live vertex's neighborhood every round, so queries must be cheap;
    removals happen once per vertex.
    """

    def __init__(self, vertices: Iterable[int], edges: Iterable[Pair]):
        self._adjacency: Dict[int, Set[int]] = {v: set() for v in vertices}
        for raw in edges:
            a, b = canonical_pair(*raw)
            if a not in self._adjacency or b not in self._adjacency:
                raise ValueError(f"edge ({a}, {b}) references unknown vertex")
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._alive: Set[int] = set(self._adjacency)
        self._sorted: Dict[int, Tuple[int, ...]] = {}
        self._num_edges = sum(
            len(ns) for ns in self._adjacency.values()
        ) // 2

    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._alive

    @property
    def vertices(self) -> Set[int]:
        """The set of live vertices (a copy)."""
        return set(self._alive)

    def is_empty(self) -> bool:
        return not self._alive

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Live neighbors of a live vertex, sorted for determinism; the
        memoized entry is an immutable tuple, so sharing it with callers
        is safe."""
        if vertex not in self._alive:
            raise KeyError(f"vertex {vertex} is not in the graph")
        cached = self._sorted.get(vertex)
        if cached is None:
            cached = tuple(sorted(self._adjacency[vertex]))
            self._sorted[vertex] = cached
        return cached

    def num_edges(self) -> int:
        """Number of live edges, in O(1)."""
        return self._num_edges

    def remove_vertices(self, vertices: Iterable[int]) -> None:
        """Remove vertices and eagerly drop their incident edges."""
        removed = {v for v in vertices if v in self._alive}
        if not removed:
            return
        self._alive -= removed
        adjacency = self._adjacency
        for vertex in removed:
            neighbors = adjacency.pop(vertex)
            self._sorted.pop(vertex, None)
            # Each edge is decremented exactly once: an edge between two
            # removed vertices disappears from the second endpoint's set
            # when the first is processed.
            self._num_edges -= len(neighbors)
            for neighbor in neighbors:
                peer = adjacency.get(neighbor)
                if peer is not None:
                    peer.discard(vertex)
                    self._sorted.pop(neighbor, None)

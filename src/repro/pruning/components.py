"""Connected components of the candidate graph.

Cluster generation decomposes exactly along connected components of
``G = (V_R, E_S)``: Crowd-Pivot only ever issues pivot-incident edges,
and removing a cluster in one component never changes the live
neighborhood of another.  The generation executor of
:mod:`repro.core.pivot_shard` therefore uses the component — not the
record — as its unit of distribution: this module finds the components
(a ``scipy.sparse.csgraph`` label pass), and
:class:`IncrementalComponents` seals them one by one while pruning shards
are still streaming edges in.

Everything here is deterministic: components come out sorted by their
smallest vertex (members ascending).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Tuple

import numpy as np
# Imported with the module, not on first use: every cluster generation
# partitions its candidate graph, and a process forked per run
# (benchmark runs, pool workers) would otherwise import it on each run.
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as sparse_cc

Pair = Tuple[int, int]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d array, by sort plus an adjacent-difference
    mask.  Sorts ``values`` in place (callers pass a temporary).

    Same sorted output; numpy >= 2.3 answers a plain ``np.unique`` of
    integers through a hash table, several times slower than this on the
    packed-pair arrays of the prefix join.
    """
    values.sort()
    if values.size < 2:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def connected_components(
    vertices: Iterable[int],
    pairs: Iterable[Pair],
) -> List[Tuple[int, ...]]:
    """Connected components of the graph over ``vertices`` and ``pairs``.

    Isolated vertices form singleton components.  Returns every component
    as a sorted tuple of members, the component list itself sorted by
    smallest member — a canonical order independent of input order.

    One ``scipy.sparse.csgraph`` label pass plus one ``lexsort``: at the
    100k-record bench tier a union-find loop (the oracle
    :func:`repro.reference.connected_components`) costs more than half
    the sharded engine's parent-side budget; this does the same work in a
    few tens of milliseconds.
    """
    verts = sorted_unique(np.fromiter(vertices, dtype=np.int64))
    n = int(verts.size)
    edges = np.fromiter(chain.from_iterable(pairs),
                        dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if n:
            index = np.searchsorted(verts, edges)
            known = verts[np.minimum(index, n - 1)] == edges
        else:
            index = edges
            known = np.zeros(edges.shape, dtype=bool)
        rows = known.all(axis=1)
        if not rows.all():
            a, b = edges[int(np.flatnonzero(~rows)[0])]
            raise ValueError(
                f"pair ({int(a)}, {int(b)}) references unknown vertex")
        graph = coo_matrix(
            (np.ones(len(index), dtype=np.int8),
             (index[:, 0], index[:, 1])),
            shape=(n, n))
        _, labels = sparse_cc(graph, directed=False)
    else:
        labels = np.arange(n)
    if not n:
        return []
    # Sort by (label, vertex): members come out ascending within each
    # label run, and slicing at label boundaries yields the components.
    order = np.lexsort((verts, labels))
    ordered = verts[order].tolist()
    bounds = (np.flatnonzero(np.diff(labels[order])) + 1).tolist()
    groups = [tuple(ordered[i:j])
              for i, j in zip([0, *bounds], [*bounds, len(ordered)])]
    groups.sort(key=lambda group: group[0])
    return groups


class IncrementalComponents:
    """Streamed union-find with blocking-key *sealing* for streamed pruning.

    :func:`repro.core.pivot_shard.stream_pruning` feeds each pruning
    shard's surviving edges in
    as the shard finishes.  Every record carries a *touch mask* — the set
    of pruning shards whose blocking-key range can emit an edge incident
    to it (a bit per shard).  Because the sharded prefix join generates a
    pair only from a prefix token present in *both* records, any future
    edge incident to a component member must come from a shard in the
    component's combined mask; once all those shards are done, the
    component is **sealed** — it can neither gain edges nor merge with
    another component — and is safe to dispatch downstream while the
    remaining shards still run.

    ``finish_shard`` returns the newly sealed components (sorted member
    tuple plus the surviving edges among them, in canonical order) so the
    caller can stream them straight into per-component workers.  Only
    vertices incident to at least one edge are tracked (``touched``);
    the rest are trivially sealed singletons the caller appends itself.
    Sealing order depends on shard completion order, but the sealed
    components plus the untouched singletons always equal
    :func:`connected_components` over the full edge set —
    property-tested in ``tests/runtime/test_pipeline.py``.
    """

    def __init__(self, vertices: Iterable[int],
                 touch_masks: Dict[int, int], num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._universe = set(vertices)
        self._touch = touch_masks
        self._num_shards = num_shards
        self._done_mask = 0
        # Vertices are *admitted* lazily on their first incident edge:
        # the overwhelming majority of records never appear in a
        # surviving pair, and building per-vertex union-find state for
        # all of them costs more than the entire streamed merge.  An
        # untouched vertex is trivially its own sealed singleton — the
        # caller reconstructs those from ``touched`` at the end.
        self._parent: Dict[int, int] = {}
        self._members: Dict[int, List[int]] = {}
        self._edges: Dict[int, List[Pair]] = {}
        self._masks: Dict[int, int] = {}
        self._sealed: Dict[int, bool] = {}
        # Lazy seal schedule: bucket ``k`` holds roots to recheck when
        # shard ``k`` finishes (each root parked on its lowest undone
        # mask bit — it cannot seal before that shard completes, so no
        # earlier recheck is needed).  Roots whose whole mask is already
        # done wait in ``_ripe`` and seal at the next completion.  This
        # replaces a full scan of every open root per shard: each root
        # is rechecked at most once per mask bit.
        self._waiting: List[List[int]] = [[] for _ in range(num_shards)]
        self._ripe: List[int] = []

    @property
    def touched(self):
        """Vertices admitted so far (incident to at least one edge)."""
        return self._parent.keys()

    def _admit(self, v: int) -> int:
        if v not in self._universe:
            raise ValueError(f"vertex {v} is unknown")
        self._parent[v] = v
        self._members[v] = [v]
        self._edges[v] = []
        mask = self._touch.get(v, 0)
        self._masks[v] = mask
        remaining = mask & ~self._done_mask
        if remaining:
            self._waiting[(remaining & -remaining).bit_length()
                          - 1].append(v)
        else:
            self._ripe.append(v)
        return v

    def _find(self, v: int) -> int:
        parent = self._parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def add_edge(self, a: int, b: int) -> None:
        """Union the endpoints' components and record the edge."""
        try:
            root_a = (self._find(a) if a in self._parent
                      else self._admit(a))
            root_b = (self._find(b) if b in self._parent
                      else self._admit(b))
        except ValueError:
            raise ValueError(
                f"pair ({a}, {b}) references unknown vertex") from None
        if self._sealed.get(root_a) or self._sealed.get(root_b):
            raise RuntimeError(
                f"edge ({a}, {b}) touches an already-sealed component — "
                "the touch-mask sealing invariant is violated")
        if root_a == root_b:
            self._edges[root_a].append((a, b))
            return
        # Union by smaller root id keeps the forest deterministic.
        if root_b < root_a:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._members[root_a].extend(self._members.pop(root_b))
        self._edges[root_a].extend(self._edges.pop(root_b))
        self._masks[root_a] |= self._masks.pop(root_b)
        self._edges[root_a].append((a, b))

    def finish_shard(
        self, shard_index: int,
    ) -> List[Tuple[Tuple[int, ...], Tuple[Pair, ...]]]:
        """Mark a pruning shard done; return the newly sealed components.

        Each sealed component comes back as ``(members, edges)`` with
        members ascending and edges deduplicated in sorted order; the
        list itself is ordered by smallest member.
        """
        if not 0 <= shard_index < self._num_shards:
            raise ValueError(
                f"shard_index must be in [0, {self._num_shards}), "
                f"got {shard_index}")
        self._done_mask |= 1 << shard_index
        done = self._done_mask
        candidates = self._waiting[shard_index]
        self._waiting[shard_index] = []
        if self._ripe:
            candidates = self._ripe + candidates
            self._ripe = []
        newly_sealed = []
        parent = self._parent
        for root in candidates:
            if parent.get(root) != root or self._sealed.get(root):
                continue  # merged away, or sealed via an earlier bucket
            remaining = self._masks[root] & ~done
            if remaining:
                self._waiting[(remaining & -remaining).bit_length()
                              - 1].append(root)
                continue
            self._sealed[root] = True
            members = tuple(sorted(self._members[root]))
            edges = tuple(sorted(set(self._edges[root])))
            newly_sealed.append((members, edges))
        newly_sealed.sort(key=lambda item: item[0][0])
        return newly_sealed

    @property
    def all_sealed(self) -> bool:
        """Every admitted component sealed (untouched vertices are
        trivially sealed singletons and are not counted here)."""
        parent = self._parent
        return all(self._sealed.get(v)
                   for v in parent if parent[v] == v)

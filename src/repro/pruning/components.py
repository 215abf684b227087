"""Connected components of the candidate graph.

Cluster generation decomposes exactly along connected components of
``G = (V_R, E_S)``: Crowd-Pivot only ever issues pivot-incident edges,
and removing a cluster in one component never changes the live
neighborhood of another.  The generation executor of
:mod:`repro.core.generation` therefore uses the component — not the
record — as its unit of distribution: this module finds the components
(a ``scipy.sparse.csgraph`` label pass) and, for the executor, which
component each candidate pair belongs to.

Everything here is deterministic: components come out sorted by their
smallest vertex (members ascending).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Tuple

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
    return _label_components(vertices, pairs)[0]


def _label_components(
    vertices: Iterable[int],
    pairs: Iterable[Pair],
) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
    """:func:`connected_components`, plus each pair's component: the
    index into the returned component list, one entry per pair in input
    order."""
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
        num_labels, labels = sparse_cc(graph, directed=False)
    else:
        index = np.empty((0, 2), dtype=np.int64)
        num_labels, labels = n, np.arange(n)
    if not n:
        return [], np.empty(0, dtype=np.int64)
    # Sort by (label, vertex): members come out ascending within each
    # label run, and slicing at label boundaries yields the components.
    order = np.lexsort((verts, labels))
    ordered = verts[order].tolist()
    bounds = (np.flatnonzero(np.diff(labels[order])) + 1).tolist()
    starts = [0, *bounds]
    groups = [tuple(ordered[i:j])
              for i, j in zip(starts, [*bounds, len(ordered)])]
    # Rank the label runs by smallest member (each run's first entry);
    # ``position`` maps a label to its component's rank.
    firsts = order[starts]
    rank = np.argsort(verts[firsts])
    position = np.empty(num_labels, dtype=np.int64)
    position[labels[firsts][rank]] = np.arange(len(starts))
    components = [groups[run] for run in rank.tolist()]
    return components, position[labels[index[:, 0]]]

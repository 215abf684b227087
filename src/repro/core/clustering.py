"""The clustering container shared by all deduplication algorithms.

A :class:`Clustering` is a partition of record ids into disjoint clusters.
It supports the two refinement operations of Section 5.1 — *split* (remove a
record into its own singleton) and *merger* (union two clusters) — plus the
queries the algorithms and metrics need.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple,
)


class Clustering:
    """A mutable partition of record ids.

    Clusters are identified by opaque integer ids that remain stable until
    the cluster is destroyed by a merge or emptied by splits.
    """

    def __init__(self, clusters: Iterable[Iterable[int]] = ()):
        self._members: Dict[int, Set[int]] = {}
        self._cluster_of: Dict[int, int] = {}
        self._next_id = 0
        for cluster in clusters:
            self.add_cluster(cluster)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def singletons(record_ids: Iterable[int]) -> "Clustering":
        """Each record in its own cluster."""
        return Clustering([record_id] for record_id in record_ids)

    def add_cluster(self, members: Iterable[int]) -> int:
        """Add a new cluster; returns its id.

        Raises:
            ValueError: If the cluster is empty or any member is already
                present in the partition.
        """
        member_set = set(members)
        if not member_set:
            raise ValueError("cannot add an empty cluster")
        overlap = member_set & self._cluster_of.keys()
        if overlap:
            raise ValueError(f"records already clustered: {sorted(overlap)[:5]}")
        cluster_id = self._next_id
        self._next_id += 1
        self._members[cluster_id] = member_set
        for record_id in member_set:
            self._cluster_of[record_id] = cluster_id
        return cluster_id

    def copy(self) -> "Clustering":
        """Deep copy (cluster ids are preserved)."""
        clone = Clustering.__new__(Clustering)
        clone._members = {cid: set(members) for cid, members in self._members.items()}
        clone._cluster_of = dict(self._cluster_of)
        clone._next_id = self._next_id
        return clone

    # ------------------------------------------------------------------
    # Serialization (phase checkpoints)
    # ------------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """A JSON-serializable snapshot preserving cluster ids.

        Cluster ids and the id counter are part of the state: merge
        tie-breaking and split numbering depend on them, so a restored
        clustering must continue issuing exactly the ids the original
        would have.
        """
        return {
            "clusters": [[cid, sorted(members)]
                         for cid, members in sorted(self._members.items())],
            "next_id": self._next_id,
        }

    @staticmethod
    def from_state(state: Dict[str, object]) -> "Clustering":
        """Rebuild a clustering snapshotted by :meth:`to_state`,
        byte-identical in ids, membership, and future id assignment."""
        try:
            clusters = [(int(cid), [int(r) for r in members])
                        for cid, members in state["clusters"]]
            next_id = int(state["next_id"])
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"malformed clustering state ({error})"
            ) from None
        clustering = Clustering.__new__(Clustering)
        clustering._members = {}
        clustering._cluster_of = {}
        clustering._next_id = next_id
        for cid, members in clusters:
            if not members or cid in clustering._members or cid >= next_id:
                raise ValueError("malformed clustering state")
            member_set = set(members)
            clustering._members[cid] = member_set
            for record_id in member_set:
                if record_id in clustering._cluster_of:
                    raise ValueError(
                        f"malformed clustering state (record {record_id} "
                        "in two clusters)"
                    )
                clustering._cluster_of[record_id] = cid
        return clustering

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of clusters."""
        return len(self._members)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._cluster_of

    @property
    def num_records(self) -> int:
        return len(self._cluster_of)

    @property
    def cluster_ids(self) -> List[int]:
        return sorted(self._members)

    def cluster_of(self, record_id: int) -> int:
        """The id of the cluster containing a record."""
        return self._cluster_of[record_id]

    def members(self, cluster_id: int) -> Set[int]:
        """A copy of the member set of a cluster."""
        return set(self._members[cluster_id])

    def member_view(self, cluster_id: int) -> AbstractSet[int]:
        """The live member set of a cluster, without a copy.

        Callers must not mutate it.  A merge leaves the absorbed cluster's
        set as it was, so a view taken before the merge still lists the
        records that moved.
        """
        return self._members[cluster_id]

    def size(self, cluster_id: int) -> int:
        return len(self._members[cluster_id])

    def together(self, record_a: int, record_b: int) -> bool:
        """True iff two records are currently in the same cluster
        (the indicator ``x_ij`` of Equations 1-2)."""
        return self._cluster_of[record_a] == self._cluster_of[record_b]

    def as_sets(self) -> List[FrozenSet[int]]:
        """The partition as a canonical list of frozensets (sorted by
        smallest member) — the hashable form used by tests and metrics."""
        return sorted(
            (frozenset(members) for members in self._members.values()),
            key=min,
        )

    def record_ids(self) -> Iterator[int]:
        return iter(self._cluster_of)

    def intra_cluster_pairs(self) -> Iterator[Tuple[int, int]]:
        """Every unordered same-cluster record pair (the pairs with
        ``x_ij = 1``)."""
        for members in self._members.values():
            ordered = sorted(members)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    yield (a, b)

    def num_intra_cluster_pairs(self) -> int:
        return sum(
            len(m) * (len(m) - 1) // 2 for m in self._members.values()
        )

    # ------------------------------------------------------------------
    # Refinement operations (Section 5.1)
    # ------------------------------------------------------------------

    def split(self, record_id: int) -> int:
        """Split a record out of its cluster into a new singleton.

        Returns the new singleton's cluster id.

        Raises:
            ValueError: If the record is already a singleton (the paper's
                split operation is only defined for clusters of size >= 2).
        """
        old_id = self._cluster_of[record_id]
        old_members = self._members[old_id]
        if len(old_members) < 2:
            raise ValueError(f"record {record_id} is already a singleton")
        old_members.discard(record_id)
        del self._cluster_of[record_id]
        return self.add_cluster([record_id])

    def merge(self, cluster_a: int, cluster_b: int) -> int:
        """Merge two clusters; returns the id of the surviving cluster.

        The larger cluster absorbs the smaller (ties: lower id survives).

        Raises:
            ValueError: If the two ids are equal.
        """
        if cluster_a == cluster_b:
            raise ValueError("cannot merge a cluster with itself")
        members_a = self._members[cluster_a]
        members_b = self._members[cluster_b]
        if len(members_a) < len(members_b) or (
            len(members_a) == len(members_b) and cluster_b < cluster_a
        ):
            cluster_a, cluster_b = cluster_b, cluster_a
            members_a, members_b = members_b, members_a
        for record_id in members_b:
            self._cluster_of[record_id] = cluster_a
        members_a.update(members_b)
        del self._members[cluster_b]
        return cluster_a

    # ------------------------------------------------------------------
    # Canonicalization
    # ------------------------------------------------------------------

    def canonicalize(self) -> "Clustering":
        """Renumber cluster ids into the canonical compact form, in place.

        Clusters are re-keyed ``0..n-1`` in ascending order of their
        smallest member (the :meth:`as_sets` order) and the id counter
        resets to ``n``.  The partition itself is untouched, so two
        clusterings with equal :meth:`as_sets` become byte-identical in
        :meth:`to_state` after canonicalization — regardless of the
        operation history that produced them.  Terminal phases (e.g.
        :func:`~repro.core.pc_refine.pc_refine`) canonicalize their
        output so differently-ordered but equal refinements compare
        equal id-for-id.  Returns ``self``.
        """
        ordered = sorted(self._members.values(), key=min)
        self._members = {cid: members for cid, members in enumerate(ordered)}
        self._cluster_of = {
            record_id: cid
            for cid, members in self._members.items()
            for record_id in members
        }
        self._next_id = len(ordered)
        return self

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the partition is internally consistent (test helper)."""
        seen: Set[int] = set()
        for cluster_id, members in self._members.items():
            if not members:
                raise AssertionError(f"cluster {cluster_id} is empty")
            for record_id in members:
                if record_id in seen:
                    raise AssertionError(f"record {record_id} in two clusters")
                seen.add(record_id)
                if self._cluster_of.get(record_id) != cluster_id:
                    raise AssertionError(
                        f"record {record_id} has stale cluster pointer"
                    )
        if seen != set(self._cluster_of):
            raise AssertionError("cluster_of and members disagree on records")

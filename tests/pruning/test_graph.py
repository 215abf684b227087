"""Tests for repro.pruning.graph."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pruning.graph import CandidateGraph

TAIL_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3)]


@pytest.fixture
def triangle_plus_tail():
    # 0-1-2 triangle, 2-3 tail, 4 isolated.
    return CandidateGraph(range(5), TAIL_EDGES)


class TestConstruction:
    def test_unknown_vertex_edge_rejected(self):
        with pytest.raises(ValueError):
            CandidateGraph([0, 1], [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CandidateGraph([0, 1], [(0, 0)])


class TestQueries:
    def test_neighbors_sorted(self, triangle_plus_tail):
        assert triangle_plus_tail.neighbors(2) == (0, 1, 3)

    def test_neighbors_is_immutable(self, triangle_plus_tail):
        # Regression: neighbors() used to return a mutable list; a caller
        # mutating it could corrupt later queries.
        assert isinstance(triangle_plus_tail.neighbors(2), tuple)

    def test_neighbors_of_removed_vertex_raises(self, triangle_plus_tail):
        triangle_plus_tail.remove_vertices([2])
        with pytest.raises(KeyError):
            triangle_plus_tail.neighbors(2)

    def test_num_edges(self, triangle_plus_tail):
        assert triangle_plus_tail.num_edges() == 4

    def test_contains(self, triangle_plus_tail):
        assert 4 in triangle_plus_tail
        triangle_plus_tail.remove_vertices([4])
        assert 4 not in triangle_plus_tail


class TestRemoval:
    def test_removal_filters_neighbors(self, triangle_plus_tail):
        triangle_plus_tail.remove_vertices([0])
        assert triangle_plus_tail.neighbors(2) == (1, 3)

    def test_removal_filters_edges(self, triangle_plus_tail):
        triangle_plus_tail.remove_vertices([2])
        assert triangle_plus_tail.num_edges() == 1
        assert triangle_plus_tail.neighbors(0) == (1,)
        assert triangle_plus_tail.neighbors(3) == ()

    def test_len_tracks_live_vertices(self, triangle_plus_tail):
        assert len(triangle_plus_tail) == 5
        triangle_plus_tail.remove_vertices([0, 4])
        assert len(triangle_plus_tail) == 3

    def test_is_empty(self, triangle_plus_tail):
        triangle_plus_tail.remove_vertices(range(5))
        assert triangle_plus_tail.is_empty()

    def test_removing_twice_is_idempotent(self, triangle_plus_tail):
        triangle_plus_tail.remove_vertices([0])
        triangle_plus_tail.remove_vertices([0])
        assert len(triangle_plus_tail) == 4


class TestEagerCandidateGraph:
    """Eager removal: dead vertices' edges leave the adjacency sets and
    the edge counter at once, and memoized ``neighbors`` tuples drop."""

    @pytest.fixture
    def eager(self):
        return CandidateGraph(range(5), TAIL_EDGES)

    def test_dead_vertex_queries_raise(self, eager):
        eager.remove_vertices([2])
        with pytest.raises(KeyError):
            eager.neighbors(2)

    def test_removal_updates_counts_eagerly(self, eager):
        eager.remove_vertices([2])
        assert eager.num_edges() == 1
        assert eager.neighbors(0) == (1,)
        eager.remove_vertices([0, 1])
        assert eager.num_edges() == 0

    def test_adjacent_removals_count_edges_once(self, eager):
        # (0, 1) must be decremented once even though both endpoints die
        # in the same call.
        eager.remove_vertices([0, 1])
        assert eager.num_edges() == 1
        assert eager.neighbors(2) == (3,)

    def test_removing_twice_is_idempotent(self, eager):
        eager.remove_vertices([0])
        eager.remove_vertices([0])
        assert len(eager) == 4
        assert eager.num_edges() == 2

    def test_neighbors_cache_invalidated_on_incident_removal(self, eager):
        assert eager.neighbors(2) == (0, 1, 3)
        eager.remove_vertices([3])
        assert eager.neighbors(2) == (0, 1)

    def test_cached_neighbors_cannot_be_aliased(self, eager):
        # Regression: the eager class used to hand out its cached list
        # itself, so `graph.neighbors(v).remove(x)` (or sort/append by any
        # caller) silently corrupted every later neighbors(v) query.  The
        # cache entry is now an immutable tuple.
        first = eager.neighbors(2)
        assert isinstance(first, tuple)
        with pytest.raises(AttributeError):
            first.remove(0)
        mutated = list(first)
        mutated.remove(0)
        assert eager.neighbors(2) == (0, 1, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_set_model_under_random_removals(self, seed):
        """Against a brute-force model (a live-vertex set and an edge
        set), with queries interleaved between random removals."""
        rng = random.Random(seed)
        num = rng.randint(2, 14)
        edges = {
            (i, j)
            for i in range(num)
            for j in range(i + 1, num)
            if rng.random() < 0.4
        }
        graph = CandidateGraph(range(num), sorted(edges))
        alive = set(range(num))
        while True:
            live_edges = {(a, b) for a, b in edges
                          if a in alive and b in alive}
            assert graph.vertices == alive
            assert len(graph) == len(alive)
            assert graph.num_edges() == len(live_edges)
            assert graph.is_empty() == (not alive)
            for vertex in range(num):
                assert (vertex in graph) == (vertex in alive)
            for vertex in alive:
                expected = tuple(sorted(
                    b if a == vertex else a for a, b in live_edges
                    if vertex in (a, b)))
                assert graph.neighbors(vertex) == expected
            if not alive:
                break
            doomed = rng.sample(sorted(alive), rng.randint(1, len(alive)))
            graph.remove_vertices(doomed)
            alive.difference_update(doomed)

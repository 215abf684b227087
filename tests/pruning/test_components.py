"""Connected-component partitioning of the candidate graph."""

import random as random_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro import reference
from repro.pruning.components import connected_components, sorted_unique


class TestConnectedComponents:
    def test_splits_along_edges(self):
        components = connected_components(
            [0, 1, 2, 3, 4, 5], [(0, 1), (1, 2), (4, 5)]
        )
        assert components == [(0, 1, 2), (3,), (4, 5)]

    def test_isolated_vertices_are_singletons(self):
        assert connected_components([7, 3, 9], []) == [(3,), (7,), (9,)]

    def test_chain_and_cycle_merge(self):
        components = connected_components(
            [0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 3)]
        )
        assert components == [(0, 1, 2, 3)]

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            connected_components([0, 1], [(0, 7)])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_partition_covers_exactly_once(self, seed):
        rng = random_module.Random(seed)
        n = rng.randint(1, 40)
        vertices = list(range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.08]
        components = connected_components(vertices, pairs)
        flat = [v for members in components for v in members]
        assert sorted(flat) == vertices
        assert len(flat) == len(set(flat))
        # Every edge stays inside one component.
        of = {v: index for index, members in enumerate(components)
              for v in members}
        assert all(of[a] == of[b] for a, b in pairs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_backends_agree(self, seed):
        # The scipy label pass and the pure-Python union-find oracle must
        # emit the identical canonical component list.
        rng = random_module.Random(seed)
        n = rng.randint(0, 40)
        vertices = rng.sample(range(1000), n)
        pairs = [(a, b) for i, a in enumerate(vertices)
                 for b in vertices[i + 1:] if rng.random() < 0.08]
        assert connected_components(vertices, pairs) == \
            reference.connected_components(vertices, pairs)

    def test_oracle_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown"):
            reference.connected_components([0, 1], [(0, 7)])


class TestSortedUnique:
    @pytest.mark.parametrize("values", (
        [],
        [5],
        [7, 7, 7, 7],
        [3, -1, 3, 2**62, -1, 0],
    ))
    def test_matches_np_unique(self, values):
        array = np.array(values, dtype=np.int64)
        expected = np.unique(array)
        result = sorted_unique(array)
        assert result.dtype == np.int64
        assert result.tolist() == expected.tolist()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_np_unique_on_random_input(self, seed):
        rng = np.random.default_rng(seed)
        array = rng.integers(-50, 50, size=int(rng.integers(0, 400)),
                             dtype=np.int64)
        assert np.array_equal(sorted_unique(array.copy()), np.unique(array))

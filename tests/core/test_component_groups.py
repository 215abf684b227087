"""Property: the pool's component grouping buckets every edge exactly as
the per-pair loop it replaced.

:func:`~repro.core.generation._component_groups` buckets the candidate
pairs by component with a stable numpy sort over the label pass's
per-pair component index.  Over random graphs (sparse ids, isolated
vertices, chains, cliques), its output must equal, tuple for tuple, the
dictionary loop below: every component sorted by smallest member, and
each multi-vertex component with its edges in ``candidates.pairs``
order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation import _component_groups
from repro.pruning.candidate import CandidateSet
from repro.pruning.components import connected_components


def _loop_groups(ids, candidates):
    """The per-pair bucketing loop, kept as the oracle."""
    components = connected_components(ids, candidates.pairs)
    comp_of = {}
    edges_of = {}
    for index, members in enumerate(components):
        if len(members) > 1:
            for vertex in members:
                comp_of[vertex] = index
            edges_of[index] = []
    for pair in candidates.pairs:
        edges_of[comp_of[pair[0]]].append(pair)
    groups = [(members, tuple(edges_of[index]))
              for index, members in enumerate(components)
              if len(members) > 1]
    return components, groups


def _candidates(pairs):
    """A candidate set whose pair tuple keeps the given order."""
    return CandidateSet(pairs=tuple(pairs),
                        machine_scores=dict.fromkeys(pairs, 0.5),
                        threshold=0.3)


@st.composite
def graphs(draw):
    """Record ids (unsorted, with gaps) and canonical pairs in an
    arbitrary order."""
    ids = draw(st.lists(st.integers(0, 200), min_size=0, max_size=30,
                        unique=True))
    pairs = set()
    if len(ids) >= 2:
        for a, b in draw(st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                max_size=60)):
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    return ids, draw(st.permutations(sorted(pairs)))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_matches_per_pair_loop(graph):
    ids, pairs = graph
    candidates = _candidates(pairs)
    assert _component_groups(ids, candidates) == _loop_groups(
        ids, candidates)


def test_edges_keep_candidate_order_within_a_component():
    candidates = _candidates([(2, 5), (3, 4), (0, 5), (1, 2)])
    components, groups = _component_groups(range(7), candidates)
    assert components == [(0, 1, 2, 5), (3, 4), (6,)]
    assert groups == [((0, 1, 2, 5), ((2, 5), (0, 5), (1, 2))),
                      ((3, 4), ((3, 4),))]

"""Property: a pool task runs its components' pivot rounds in lockstep.

:func:`~repro.core.generation._run_components` runs PC-Pivot over every
component a task carries, one crowd batch per round for all of them.
Over random groups of 1-6 connected components (at most 12 records
each), a scripted pair-deterministic crowd, a random permutation and a
random ε:

- each component's round log equals the log of the component run alone,
  and the log of the whole-graph oracle loop
  (:func:`repro.reference.choose_k` + :func:`repro.reference.partial_pivot`,
  i.e. :func:`repro.reference.pc_pivot`) run on that component alone with
  its own oracle;
- merging the logs reproduces the whole-graph
  :func:`repro.reference.pc_pivot` clustering, cluster ids included, and
  so does the production (inline) :func:`~repro.core.generation.pc_pivot`,
  which asks its answer source once per paid round and records the same
  crowd stats as the replay of the logs;
- the group makes exactly one ``confidence_batch`` call per round of its
  deepest component (a last round that asks nothing costs no crowd trip).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.generation import pc_pivot
from repro.core.permutation import Permutation
from repro.core.generation import _run_components, merge_component_runs
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from repro.pruning.graph import CandidateGraph
from tests.conftest import make_candidates

CONFIDENCES = (0.0, 0.2, 1 / 3, 0.6, 2 / 3, 1.0)


class CountingBatches:
    """A fork-source view that counts its ``confidence_batch`` calls —
    one per crowd round a worker waits out."""

    pair_deterministic = True

    def __init__(self, crowd):
        self._inner = ScriptedAnswers(crowd, num_workers=3)
        self.batches = 0

    @property
    def num_workers(self) -> int:
        return self._inner.num_workers

    def confidence(self, a, b):
        return self._inner.confidence(a, b)

    def confidence_batch(self, pairs):
        self.batches += 1
        return {pair: self._inner.confidence(*pair) for pair in pairs}


@st.composite
def component_groups(draw):
    """Disjoint connected components with interleaved ids and ranks."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=12),
                          min_size=1, max_size=6))
    labels = draw(st.permutations(range(sum(sizes))))
    groups, crowd = [], {}
    offset = 0
    for size in sizes:
        members = labels[offset:offset + size]
        offset += size
        # A random spanning tree keeps the component connected; extra
        # edges at a drawn density give it cycles and shared neighbors.
        edges = {tuple(sorted((members[i],
                               members[draw(st.integers(0, i - 1))])))
                 for i in range(1, size)}
        density = draw(st.sampled_from((0.0, 0.3, 0.7)))
        for i in range(size):
            for j in range(i + 1, size):
                if draw(st.floats(0.0, 1.0)) < density:
                    edges.add(tuple(sorted((members[i], members[j]))))
        for pair in edges:
            crowd[pair] = draw(st.sampled_from(CONFIDENCES))
        groups.append((tuple(sorted(members)), tuple(sorted(edges))))
    order = draw(st.permutations(range(sum(sizes))))
    epsilon = draw(st.floats(min_value=0.0, max_value=1.0))
    return groups, crowd, Permutation(order), epsilon


def _stand_alone(vertices, edges, permutation, epsilon, crowd):
    """One component's round log from the whole-graph oracle loop run on
    that component alone: its own graph, its own oracle, one
    :func:`repro.reference.partial_pivot` round per iteration."""
    graph = CandidateGraph(vertices, edges)
    oracle = CrowdOracle(ScriptedAnswers(crowd, num_workers=3))
    rounds = []
    while not graph.is_empty():
        live_before = len(graph)
        epoch = oracle.answer_epoch
        k = reference.choose_k(graph, permutation, epsilon)
        result = reference.partial_pivot(graph, k, permutation, oracle)
        fresh = tuple((a, b, oracle.known_confidence(a, b))
                      for a, b in oracle.answers_since(epoch))
        rounds.append((k, result.predicted_waste, result.issued_pairs,
                       live_before, len(graph),
                       tuple(tuple(sorted(c)) for c in result.clusters),
                       fresh))
    return rounds


def _paid_rounds(logs):
    """Rounds that sent at least one pair to the crowd."""
    return sum(1 for log in logs if log[2])


@settings(max_examples=80, deadline=None)
@given(component_groups())
def test_lockstep_logs_equal_stand_alone_logs(instance):
    groups, crowd, permutation, epsilon = instance

    source = CountingBatches(crowd)
    lockstep = _run_components(groups, permutation, epsilon, source)
    assert len(lockstep) == len(groups)
    # One crowd round trip per round of the deepest component.
    assert source.batches == max(map(_paid_rounds, lockstep))

    for (vertices, edges), logs in zip(groups, lockstep):
        alone = CountingBatches(crowd)
        assert _run_components([(vertices, edges)], permutation, epsilon,
                               alone) == [logs]
        assert alone.batches == _paid_rounds(logs)
        assert logs == _stand_alone(vertices, edges, permutation, epsilon,
                                    crowd)

    ids = sorted(vertex for vertices, _ in groups for vertex in vertices)
    candidates = make_candidates({pair: 0.5 for pair in crowd})
    replay_oracle = CrowdOracle(ScriptedAnswers(crowd, num_workers=3))
    merged = merge_component_runs(
        ids, [vertices for vertices, _ in groups],
        dict(enumerate(lockstep)), permutation, replay_oracle, epsilon,
        None, None,
    )
    whole_graph = reference.pc_pivot(
        ids, candidates, CrowdOracle(ScriptedAnswers(crowd, num_workers=3)),
        epsilon=epsilon, permutation=permutation)
    assert merged.to_state() == whole_graph.to_state()
    # Inline, the lockstep rounds are asked of the caller's oracle as
    # they run: one source batch per paid round, and the same accounting
    # as the replay of the logs.
    inline_source = CountingBatches(crowd)
    inline_oracle = CrowdOracle(inline_source)
    production = pc_pivot(ids, candidates, inline_oracle, epsilon=epsilon,
                          permutation=permutation)
    assert production.to_state() == whole_graph.to_state()
    assert inline_source.batches == source.batches
    assert inline_oracle.stats.snapshot() == replay_oracle.stats.snapshot()

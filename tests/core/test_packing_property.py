"""Property: Algorithm 5's packing respects independence and the budget T.

Over random small clusterings, candidate sets, partial answer sets and
budgets ``T``, the packer behind PC-Refine
(:func:`~repro.core.pc_refine._pack_independent_operations_fast`) must
return operations that

- touch pairwise-disjoint clusters (the independence of ``O^i``);
- stop by the ``Σc ≥ T`` rule: every operation but the last was packed
  while the running cost was still below ``T``, so the last one alone
  may overshoot — the exact form of "pairs per round never exceed T";
- never exceed ``T`` in total under ``hard_budget=True``;
- need exactly ``Σ cost`` distinct unknown pairs between them — the
  round's single crowd batch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.pc_refine import _pack_independent_operations_fast
from repro.core.refine import OperationCache, build_estimator
from tests.conftest import make_candidates, scripted_oracle

CONFIDENCES = (0.0, 1 / 3, 0.5, 2 / 3, 1.0)
SCORES = (0.35, 0.5, 0.65, 0.8, 0.95)


@st.composite
def packing_states(draw):
    num_records = draw(st.integers(min_value=2, max_value=10))
    machine = {}
    crowd = {}
    known = []
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if draw(st.booleans()):
                machine[(i, j)] = draw(st.sampled_from(SCORES))
                crowd[(i, j)] = draw(st.sampled_from(CONFIDENCES))
                if draw(st.booleans()):
                    known.append((i, j))
    labels = draw(st.lists(st.integers(0, num_records - 1),
                           min_size=num_records, max_size=num_records))
    clusters = {}
    for record, label in enumerate(labels):
        clusters.setdefault(label, []).append(record)
    budget = draw(st.floats(min_value=0.0, max_value=25.0))
    ranking = draw(st.sampled_from(("ratio", "benefit")))
    return machine, crowd, known, list(clusters.values()), budget, ranking


@settings(max_examples=120, deadline=None)
@given(packing_states(), st.booleans())
def test_packing_is_independent_and_within_budget(state, hard_budget):
    machine, crowd, known, clusters, budget, ranking = state
    candidates = make_candidates(machine)
    oracle = scripted_oracle(crowd, num_workers=3)
    if known:
        oracle.ask_batch(known)
    clustering = Clustering(clusters)
    estimator = build_estimator(candidates, oracle)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)

    packed = _pack_independent_operations_fast(
        cache, evaluations, budget, ranking=ranking, hard_budget=hard_budget)

    touched = [cluster for operation in packed
               for cluster in operation.touched_clusters]
    assert len(touched) == len(set(touched))
    costs = [evaluations.cost(operation) for operation in packed]
    assert all(cost > 0 for cost in costs)
    if packed:
        assert sum(costs[:-1]) < budget
    if hard_budget:
        assert sum(costs) <= budget
    batch = set()
    for operation in packed:
        batch.update(evaluations.unknown_pairs(operation))
    assert len(batch) == sum(costs)
    assert not any(oracle.knows(*pair) for pair in batch)

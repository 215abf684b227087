"""Property: PC-Refine's free path never increases Λ' (Equation 2).

Over random small candidate graphs with a scripted crowd, a random
clustering and a random subset of already-answered pairs,
``apply_free_operations`` may only apply operations whose exact benefit
is known and positive.  Because an operation's benefit (Equations 5-6) is
exactly the Λ' decrease it causes — evaluated with the crowd's ``f_c`` on
candidate pairs and ``f_c = 0`` on pruned ones — every applied step must
lower Λ' by its exact benefit, and the pass as a whole can never raise it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.objective import lambda_objective
from repro.core.operations import OperationEvaluator
from repro.core.refine import (
    BENEFIT_TOLERANCE,
    OperationCache,
    apply_free_operations,
    build_estimator,
)
from tests.conftest import make_candidates, scripted_oracle

CONFIDENCES = (0.0, 1 / 3, 0.5, 2 / 3, 1.0)


@st.composite
def free_path_states(draw):
    num_records = draw(st.integers(min_value=2, max_value=8))
    machine = {}
    crowd = {}
    known = []
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if draw(st.booleans()):
                machine[(i, j)] = draw(st.sampled_from((0.35, 0.5, 0.65, 0.8)))
                crowd[(i, j)] = draw(st.sampled_from(CONFIDENCES))
                if draw(st.integers(0, 3)) > 0:  # most pairs already answered
                    known.append((i, j))
    labels = draw(st.lists(st.integers(0, num_records - 1),
                           min_size=num_records, max_size=num_records))
    clusters = {}
    for record, label in enumerate(labels):
        clusters.setdefault(label, []).append(record)
    return machine, crowd, known, list(clusters.values())


@settings(max_examples=80, deadline=None)
@given(free_path_states())
def test_free_operations_never_increase_lambda_prime(state):
    machine, crowd, known, clusters = state
    candidates = make_candidates(machine)
    oracle = scripted_oracle(crowd, num_workers=3)
    if known:
        oracle.ask_batch(known)
    clustering = Clustering(clusters)

    def lambda_prime(partition: Clustering) -> float:
        # Equation 2 under the crowd: f_c on S, pruned pairs at 0.
        return lambda_objective(partition, candidates.pairs,
                                lambda a, b: crowd[(min(a, b), max(a, b))])

    # Each applied operation with the clustering it was applied to.
    steps = []

    def record(operation):
        steps.append((operation, clustering.copy()))

    estimator = build_estimator(candidates, oracle)
    cache = OperationCache(clustering, candidates)
    evaluations = EvaluationCache(clustering, candidates, oracle, estimator,
                                  cache.tracker)
    start = lambda_prime(clustering)
    applied = apply_free_operations(clustering, cache, evaluations,
                                    on_apply=record)

    assert applied == len(steps)
    assert lambda_prime(clustering) <= start + BENEFIT_TOLERANCE
    states = [before for _, before in steps] + [clustering]
    for index, (operation, before) in enumerate(steps):
        benefit = OperationEvaluator(before, candidates, oracle,
                                     estimator).exact_benefit(operation)
        assert benefit is not None and benefit > BENEFIT_TOLERANCE
        decrease = lambda_prime(before) - lambda_prime(states[index + 1])
        assert abs(decrease - benefit) <= BENEFIT_TOLERANCE

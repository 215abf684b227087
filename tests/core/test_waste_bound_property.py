"""Property: PC-Pivot's wasted pairs stay within ε (Equation 4, Lemmas 3-4).

Over random candidate graphs of at most 12 records, a scripted
pair-deterministic crowd, a random permutation and a random ε, both the
whole-graph oracle :func:`repro.reference.pc_pivot` and the
component-decomposed ``run_acd(refine=False)`` must:

- choose every round so that its Equation-3 predicted waste is at most
  ε times the pairs the round issues (Equation 4);
- issue no more pairs that sequential Crowd-Pivot never asks, under the
  same permutation, than the summed predicted waste (Lemma 3).
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.acd import run_acd
from repro.core.generation import PCPivotDiagnostics
from repro.core.permutation import Permutation
from repro.core.generation import crowd_pivot
from repro.runtime.checkpoint import CheckpointStore
from tests.conftest import make_candidates, scripted_oracle

CONFIDENCES = (0.0, 0.2, 1 / 3, 0.6, 2 / 3, 1.0)


@st.composite
def pivot_instances(draw):
    num_records = draw(st.integers(min_value=1, max_value=12))
    density = draw(st.sampled_from((0.2, 0.4, 0.7)))
    machine = {}
    crowd = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if draw(st.floats(0.0, 1.0)) < density:
                machine[(i, j)] = 0.5
                crowd[(i, j)] = draw(st.sampled_from(CONFIDENCES))
    order = draw(st.permutations(range(num_records)))
    epsilon = draw(st.floats(min_value=0.0, max_value=1.0))
    return num_records, machine, crowd, order, epsilon


def _global(ids, candidates, crowd, permutation, epsilon):
    oracle = scripted_oracle(crowd, num_workers=3)
    diagnostics = PCPivotDiagnostics()
    clustering = reference.pc_pivot(ids, candidates, oracle,
                                    epsilon=epsilon, permutation=permutation,
                                    diagnostics=diagnostics)
    return clustering, diagnostics, set(oracle.known_pairs())


def _pipelined(ids, candidates, crowd, permutation, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp))
        result = run_acd(
            ids, candidates, scripted_oracle(crowd, num_workers=3).source,
            epsilon=epsilon, permutation=permutation, refine=False,
            checkpoints=store,
        )
        issued = {(a, b) for a, b, _ in store.load("generation")["answers"]}
    return result.clustering, result.pivot_diagnostics, issued


@settings(max_examples=60, deadline=None)
@given(pivot_instances())
def test_every_round_and_run_respects_the_waste_bound(instance):
    num_records, machine, crowd, order, epsilon = instance
    ids = list(range(num_records))
    candidates = make_candidates(machine)
    permutation = Permutation(order)

    sequential = scripted_oracle(crowd, num_workers=3)
    reference = crowd_pivot(ids, candidates, sequential,
                            permutation=permutation)
    asked_sequentially = set(sequential.known_pairs())

    for execute in (_global, _pipelined):
        clustering, diagnostics, issued = execute(
            ids, candidates, crowd, permutation, epsilon)
        # Lemma 4: the clustering is sequential Crowd-Pivot's.
        assert set(clustering.as_sets()) == set(reference.as_sets()), (
            execute.__name__)
        assert len(issued) == sum(diagnostics.issued_per_round)
        for waste, round_pairs in zip(diagnostics.predicted_waste,
                                      diagnostics.issued_per_round):
            assert waste <= epsilon * round_pairs, execute.__name__
        wasted = len(issued - asked_sequentially)
        assert wasted <= diagnostics.total_predicted_waste, execute.__name__

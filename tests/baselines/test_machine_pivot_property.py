"""Machine Pivot is Crowd-Pivot with the machine score as the crowd.

:func:`repro.baselines.machine.machine_pivot` takes a neighbor into the
pivot's cluster iff its machine score exceeds ``threshold``.  Driving the
literal Crowd-Pivot oracle (:func:`repro.reference.crowd_pivot`) with a
stub crowd that answers ``1.0`` exactly then must give the same
clustering, cluster ids included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.baselines.machine import machine_pivot
from repro.core.permutation import Permutation
from repro.datasets.schema import canonical_pair
from tests.conftest import make_candidates


class _ThresholdOracle:
    """Answers ``1.0`` iff the pair's machine score exceeds ``threshold``."""

    def __init__(self, candidates, threshold):
        self._candidates = candidates
        self._threshold = threshold

    def ask_batch(self, pairs):
        return {canonical_pair(a, b):
                1.0 if self._candidates.score(a, b) > self._threshold
                else 0.0
                for a, b in pairs}


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(1, 14),
    edges=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13),
                  st.floats(0.0, 1.0)),
        max_size=40),
    threshold=st.sampled_from([0.3, 0.5, 0.7]),
    seed=st.integers(0, 10_000),
)
def test_machine_pivot_equals_reference_crowd_pivot(num, edges, threshold,
                                                    seed):
    scores = {(a, b): score for a, b, score in edges
              if a < b < num}
    candidates = make_candidates(scores)
    permutation = Permutation.random(range(num), seed=seed)
    machine = machine_pivot(range(num), candidates, threshold=threshold,
                            permutation=permutation)
    crowd = reference.crowd_pivot(range(num), candidates,
                                  _ThresholdOracle(candidates, threshold),
                                  permutation=permutation)
    assert machine.to_state() == crowd.to_state()

"""Merged-round accounting of component execution, against an oracle.

PC-Pivot only ever asks pivot-incident pairs, so
:func:`~repro.core.acd.run_acd` runs cluster generation one connected
component at a time and replays the component rounds merged: round ``r``
batches every component's round ``r``.  The oracle here is built without
the executor: the whole-graph :func:`repro.reference.pc_pivot` on each
component's own sub-candidate set, under the global permutation
restricted to the component.  Component execution (inline and on a
worker pool) must then report

- the whole-graph oracle's clustering, cluster ids included;
- crowd rounds = the deepest component's rounds (the maximum);
- crowd pairs = the sum over components.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.acd import run_acd
from repro.core.permutation import Permutation
from repro.crowd.oracle import CrowdOracle
from repro.experiments.runner import prepare_instance
from repro.pruning.candidate import CandidateSet
from repro.pruning.components import connected_components


class HashedAnswers:
    """A pair-deterministic crowd: each pair's confidence is a hash of it."""

    pair_deterministic = True
    num_workers = 3

    def __init__(self, salt: int):
        self._salt = salt

    def confidence(self, a: int, b: int) -> float:
        a, b = min(a, b), max(a, b)
        digest = hashlib.sha256(f"{self._salt}:{a}:{b}".encode()).digest()
        return digest[0] / 255.0


def _sub_candidates(candidates, members):
    member_set = set(members)
    pairs = tuple(pair for pair in candidates.pairs if pair[0] in member_set)
    return CandidateSet(
        pairs=pairs,
        machine_scores={pair: candidates.machine_scores[pair]
                        for pair in pairs},
        threshold=candidates.threshold,
    )


def _per_component_oracle(ids, candidates, answers, permutation):
    """(max rounds, total pairs) of stand-alone PC-Pivot per component."""
    rounds = pairs = 0
    for members in connected_components(ids, candidates.pairs):
        if len(members) == 1:
            continue
        oracle = CrowdOracle(answers)
        reference.pc_pivot(
            members, _sub_candidates(candidates, members), oracle,
            permutation=Permutation(permutation.ordered(members)))
        rounds = max(rounds, oracle.stats.iterations)
        pairs += oracle.stats.pairs_issued
    return rounds, pairs


def _check(ids, candidates, answers, seed, workers=0):
    permutation = Permutation.random(ids, seed=seed)
    classic = reference.pc_pivot(ids, candidates, CrowdOracle(answers),
                                 permutation=permutation)
    piped = run_acd(ids, candidates, answers, permutation=permutation,
                    refine=False, workers=workers)
    assert piped.clustering.to_state() == classic.to_state()
    rounds, pairs = _per_component_oracle(ids, candidates, answers,
                                          permutation)
    assert piped.stats.iterations == rounds
    assert piped.stats.pairs_issued == pairs
    return piped


@st.composite
def candidate_graphs(draw):
    num_records = draw(st.integers(min_value=1, max_value=24))
    ids = list(range(num_records))
    all_pairs = [(a, b) for a in ids for b in ids if a < b]
    pairs = sorted(draw(st.sets(st.sampled_from(all_pairs), max_size=40))
                   if all_pairs else set())
    scores = {pair: draw(st.floats(min_value=0.31, max_value=1.0))
              for pair in pairs}
    candidates = CandidateSet(pairs=tuple(pairs), machine_scores=scores,
                              threshold=0.3)
    return ids, candidates


@settings(max_examples=60, deadline=None)
@given(graph=candidate_graphs(), salt=st.integers(0, 3),
       seed=st.integers(0, 1000))
def test_random_graphs_match_the_per_component_oracle(graph, salt, seed):
    ids, candidates = graph
    _check(ids, candidates, HashedAnswers(salt), seed)


@pytest.mark.parametrize("name,scale", [
    ("paper", 0.2), ("restaurant", 0.3), ("largescale", 0.3),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_datasets_match_the_per_component_oracle(name, scale, seed):
    instance = prepare_instance(name, "3w", scale=scale, seed=0)
    piped = _check(instance.record_ids, instance.candidates,
                   instance.answers, seed, workers=2 if seed == 1 else 0)
    assert piped.stats.iterations >= 1


def test_component_rounds_fall_below_the_global_engine_on_largescale():
    """The point of merged accounting: independent components crowdsource
    in the same round, so a many-component population needs fewer crowd
    rounds than the whole-graph loop's coupled Equation-4 rounds."""
    instance = prepare_instance("largescale", "3w", scale=0.3, seed=0)
    permutation = Permutation.random(instance.record_ids, seed=1)
    classic = CrowdOracle(instance.answers)
    reference.pc_pivot(instance.record_ids, instance.candidates, classic,
                       permutation=permutation)
    piped = run_acd(instance.record_ids, instance.candidates,
                    instance.answers, permutation=permutation, refine=False)
    assert piped.stats.iterations < classic.stats.iterations

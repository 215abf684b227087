"""Property-based tests of the whole ACD pipeline on random instances.

Hypothesis generates random candidate graphs with scripted crowd answers;
the pipeline must uphold its structural invariants on every one of them:
valid partitions, refinement never increasing Λ', parallel/sequential
generation equivalence, and cost accounting consistency.
"""

import random as random_module

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acd import run_acd
from repro.core.objective import lambda_objective
from repro.core.permutation import Permutation
from repro.core.generation import crowd_pivot
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from tests.conftest import make_candidates


def random_instance(seed):
    """A random scripted instance: graph + machine scores + crowd answers."""
    rng = random_module.Random(seed)
    num_records = rng.randint(3, 16)
    machine = {}
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.35:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice(
                    (0.0, 1 / 3, 2 / 3, 1.0)
                )
    candidates = make_candidates(machine)
    answers = ScriptedAnswers(confidences, num_workers=3)
    return num_records, candidates, answers, confidences


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 50))
def test_acd_produces_valid_partition(instance_seed, run_seed):
    num_records, candidates, answers, _ = random_instance(instance_seed)
    result = run_acd(range(num_records), candidates, answers, seed=run_seed)
    result.clustering.check_invariants()
    assert result.clustering.num_records == num_records


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 50))
def test_refinement_never_hurts_lambda(instance_seed, run_seed):
    """Λ' (measured on full answers) of ACD's output is never worse than
    the generation phase's output for the same permutation."""
    num_records, candidates, answers, confidences = random_instance(
        instance_seed
    )

    def full_confidence(a, b):
        return confidences.get((min(a, b), max(a, b)), 0.0)

    generation_only = run_acd(range(num_records), candidates, answers,
                              seed=run_seed, refine=False)
    refined = run_acd(range(num_records), candidates, answers, seed=run_seed)
    lambda_generation = lambda_objective(
        generation_only.clustering, candidates.pairs, full_confidence
    )
    lambda_refined = lambda_objective(
        refined.clustering, candidates.pairs, full_confidence
    )
    assert lambda_refined <= lambda_generation + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 50))
def test_parallel_matches_sequential_generation(instance_seed, run_seed):
    num_records, candidates, answers, _ = random_instance(instance_seed)
    permutation = Permutation.random(range(num_records), seed=run_seed)
    parallel = run_acd(range(num_records), candidates, answers,
                       permutation=permutation, refine=False)
    sequential = crowd_pivot(list(range(num_records)), candidates,
                             CrowdOracle(answers), permutation=permutation)
    assert parallel.clustering.as_sets() == sequential.as_sets()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 50))
def test_cost_accounting_consistent(instance_seed, run_seed):
    num_records, candidates, answers, _ = random_instance(instance_seed)
    result = run_acd(range(num_records), candidates, answers, seed=run_seed)
    stats = result.stats
    # Unique pairs never exceed the candidate set.
    assert stats.pairs_issued <= len(candidates)
    # Batch sizes reconcile exactly with the totals.
    assert sum(stats.batch_sizes) == stats.pairs_issued
    assert len(stats.batch_sizes) == stats.iterations
    # HITs are the per-batch ceilings.
    import math
    assert stats.hits == sum(
        math.ceil(size / stats.pairs_per_hit) for size in stats.batch_sizes
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_acd_deterministic_per_seed(instance_seed):
    num_records, candidates, answers, _ = random_instance(instance_seed)
    first = run_acd(range(num_records), candidates, answers, seed=1)
    second = run_acd(range(num_records), candidates, answers, seed=1)
    assert first.clustering.as_sets() == second.clustering.as_sets()
    assert first.stats.batch_sizes == second.stats.batch_sizes

"""Production-vs-reference refinement equivalence.

The incremental production loops (EvaluationCache + lazy ranking) must be
indistinguishable from the full-re-evaluation oracles in
:mod:`repro.reference`: identical clusterings, identical crowd traffic,
identical diagnostics, and identical observability event streams — under
clean and faulty crowds alike."""

import json
import random as random_module

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import reference
from repro.cli import main
from repro.core.acd import run_acd
from repro.core.clustering import Clustering
from repro.core.evaluation_cache import EvaluationCache
from repro.core.operations import OperationEvaluator, independent
from repro.core.generation import pc_pivot
from repro.core.pc_refine import (
    PCRefineDiagnostics,
    _pack_independent_operations_fast,
    pc_refine,
)
from repro.core.generation import crowd_pivot
from repro.core.refine import (
    OperationCache,
    build_estimator,
    crowd_refine,
)
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.faults import FaultModel
from repro.crowd.oracle import CrowdOracle
from repro.datasets.registry import generate
from repro.eval.metrics import pairwise_scores
from repro.experiments.chaos import _platform_answers
from repro.experiments.configs import PRUNING_THRESHOLD
from repro.experiments.runner import prepare_instance
from repro.obs import ObsContext
from repro.pruning.candidate import build_candidate_set
from repro.similarity.composite import jaccard_similarity_function
from tests.conftest import make_candidates

#: Each refinement loop under test, keyed as "fast" (production) and
#: "reference" (the oracle).
PC_REFINES = {"fast": pc_refine, "reference": reference.pc_refine}
CROWD_REFINES = {"fast": crowd_refine, "reference": reference.crowd_refine}


def random_refine_state(seed):
    """Random clustering + candidates with *partial* crowd knowledge, so
    both the free path and the costly (estimated) path have work.  Returns
    a factory for identically-initialized oracles, one per engine."""
    rng = random_module.Random(seed)
    num_records = rng.randint(5, 18)
    machine = {}
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.4:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice(
                    (0.0, 1 / 3, 0.5, 2 / 3, 1.0)
                )
    candidates = make_candidates(machine)
    known = [pair for pair in candidates.pairs if rng.random() < 0.55]

    def fresh_oracle():
        oracle = CrowdOracle(ScriptedAnswers(confidences, num_workers=3))
        if known:
            oracle.ask_batch(known)
        return oracle

    record_ids = list(range(num_records))
    rng.shuffle(record_ids)
    clusters = []
    index = 0
    while index < num_records:
        size = min(rng.randint(1, 4), num_records - index)
        clusters.append(record_ids[index:index + size])
        index += size
    return Clustering(clusters), candidates, fresh_oracle


def _collected_events(obs):
    """(name, attrs) of every event in the trace, timestamps dropped."""
    collected = []

    def walk(span):
        for event in span.events:
            collected.append((event["name"], event["attrs"]))
        for child in span.children:
            walk(child)

    for root in obs.tracer.roots:
        walk(root)
    return collected


def _span_names(obs):
    """Every span's name in the trace, depth first."""
    names = []

    def walk(span):
        names.append(span.name)
        for child in span.children:
            walk(child)

    for root in obs.tracer.roots:
        walk(root)
    return names


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
# Equal-ratio ties whose merge's minimum crossing pair moved while its
# ratio stayed put (the heap must re-key such an operation).
@example(1304)
@example(2306)
@example(2400)
@example(9599)
def test_crowd_refine_engines_agree(seed):
    clustering, candidates, fresh_oracle = random_refine_state(seed)
    outcomes = {}
    for engine, run in CROWD_REFINES.items():
        oracle = fresh_oracle()
        refined = run(clustering.copy(), candidates, oracle)
        refined.check_invariants()
        outcomes[engine] = (refined.as_sets(), oracle.stats.pairs_issued,
                            oracle.stats.iterations)
    assert outcomes["fast"] == outcomes["reference"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_pc_refine_engines_agree(seed):
    clustering, candidates, fresh_oracle = random_refine_state(seed)
    outcomes = {}
    for engine, run in PC_REFINES.items():
        oracle = fresh_oracle()
        diagnostics = PCRefineDiagnostics()
        refined = run(clustering.copy(), candidates, oracle,
                      diagnostics=diagnostics)
        refined.check_invariants()
        outcomes[engine] = (
            refined.as_sets(),
            oracle.stats.pairs_issued,
            diagnostics.batch_sizes,
            diagnostics.operations_packed,
            diagnostics.operations_applied,
            diagnostics.free_operations_applied,
        )
    assert outcomes["fast"] == outcomes["reference"]


@pytest.mark.parametrize("seed", range(6))
def test_crowd_refine_event_streams_identical(seed):
    clustering, candidates, fresh_oracle = random_refine_state(seed)
    streams = {}
    for engine, run in CROWD_REFINES.items():
        obs = ObsContext()
        with obs.span("refinement"):
            run(clustering.copy(), candidates, fresh_oracle(), obs=obs)
        streams[engine] = _collected_events(obs)
    assert streams["fast"] == streams["reference"]


@pytest.mark.parametrize("seed", range(6))
def test_pc_refine_event_streams_identical(seed):
    """Same events, and the same ``refine.*`` stage spans in the same
    order (free, evaluate, pack, crowd, apply per round)."""
    clustering, candidates, fresh_oracle = random_refine_state(seed)
    streams = {}
    spans = {}
    for engine, run in PC_REFINES.items():
        obs = ObsContext()
        with obs.span("refinement"):
            run(clustering.copy(), candidates, fresh_oracle(), obs=obs)
        streams[engine] = _collected_events(obs)
        spans[engine] = _span_names(obs)
    assert streams["fast"] == streams["reference"]
    assert spans["fast"] == spans["reference"]
    assert spans["fast"][:4] == ["refinement", "refine.free",
                                 "refine.evaluate", "refine.pack"]


@pytest.mark.parametrize("parallel", (True, False))
def test_run_acd_engines_agree(tiny_paper, parallel):
    """End to end: ``run_acd`` (``parallel``) or Crowd-Pivot then
    Crowd-Refine over one oracle equals the production generation
    followed by the reference refinement oracle."""
    ids, candidates = tiny_paper.record_ids, tiny_paper.candidates
    if parallel:
        result = run_acd(ids, candidates, tiny_paper.answers, seed=2)
        fast, fast_stats = result.clustering, result.stats
    else:
        oracle = CrowdOracle(tiny_paper.answers)
        fast = crowd_refine(crowd_pivot(ids, candidates, oracle, seed=2),
                            candidates, oracle)
        fast_stats = oracle.stats
    clustering, stats = reference.run_acd(
        ids, candidates, tiny_paper.answers, seed=2, parallel=parallel,
        generation=pc_pivot if parallel else crowd_pivot,
        refinement=(reference.pc_refine if parallel
                    else reference.crowd_refine),
    )
    assert fast.as_sets() == clustering.as_sets()
    assert fast_stats.pairs_issued == stats.pairs_issued
    assert fast_stats.iterations == stats.iterations


@pytest.mark.parametrize("seed", (0, 1))
def test_engines_agree_under_faulty_crowd(seed):
    """Each engine on its own fault-injecting platform (identical seeds):
    the platforms replay deterministically, so equivalence holds iff the
    engines issue identical batches in identical order."""
    dataset = generate("restaurant", scale=0.05, seed=seed)
    candidates = build_candidate_set(
        dataset.records, jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD,
    )
    fault_model = FaultModel(abandonment_probability=0.15, spam_fraction=0.2,
                             timeout_seconds=240.0)
    answers = _platform_answers("restaurant", dataset, candidates, seed,
                                fault_model)
    result = run_acd(dataset.record_ids, candidates, answers, seed=seed)
    answers = _platform_answers("restaurant", dataset, candidates, seed,
                                fault_model)
    clustering, stats = reference.run_acd(
        dataset.record_ids, candidates, answers, seed=seed,
        generation=pc_pivot)
    assert (result.clustering.as_sets(), result.stats.pairs_issued) == (
        clustering.as_sets(), stats.pairs_issued)


@pytest.mark.parametrize("seed", range(8))
def test_fast_packer_matches_reference(seed):
    """The lazily ordered packer must reproduce the reference packing
    exactly, and every packed set must be pairwise independent."""
    clustering, candidates, fresh_oracle = random_refine_state(seed)
    oracle = fresh_oracle()
    estimator = build_estimator(candidates, oracle)
    evaluator = OperationEvaluator(clustering, candidates, oracle, estimator)
    for ranking in ("ratio", "benefit"):
        for hard_budget in (False, True):
            for budget in (0.0, 1.0, 3.0, 10.0):
                expected = reference.pack_independent_operations(
                    clustering, candidates, evaluator, budget,
                    ranking=ranking, hard_budget=hard_budget,
                )
                cache = OperationCache(clustering, candidates)
                evaluations = EvaluationCache(
                    clustering, candidates, oracle, estimator, cache.tracker
                )
                fast = _pack_independent_operations_fast(
                    cache, evaluations, budget,
                    ranking=ranking, hard_budget=hard_budget,
                )
                assert fast == expected
                for i, op_a in enumerate(fast):
                    for op_b in fast[i + 1:]:
                        assert independent(op_a, op_b)


def test_unknown_engine_rejected():
    """The engine knob is gone: refinement has one production loop."""
    clustering, candidates, fresh_oracle = random_refine_state(0)
    with pytest.raises(TypeError, match="engine"):
        crowd_refine(clustering.copy(), candidates, fresh_oracle(),
                     engine="reference")
    with pytest.raises(TypeError, match="engine"):
        pc_refine(clustering.copy(), candidates, fresh_oracle(),
                  engine="reference")


class TestCLI:
    def test_run_with_reference_engine(self, tmp_path):
        """``repro run`` reports what the production generation followed
        by the reference refinement oracle computes."""
        output = tmp_path / "run.json"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--output", str(output)]) == 0
        rollup = json.loads(output.read_text())["result"]
        instance = prepare_instance("restaurant", "3w", scale=0.05, seed=1)
        clustering, stats = reference.run_acd(
            instance.record_ids, instance.candidates, instance.answers,
            seed=7, pairs_per_hit=instance.setting.pairs_per_hit,
            generation=pc_pivot)
        assert rollup["pairs_issued"] == stats.pairs_issued
        assert rollup["iterations"] == stats.iterations
        assert rollup["f1"] == pairwise_scores(clustering,
                                               instance.dataset.gold).f1

"""Production-vs-reference pivot equivalence.

Crowd-Pivot's incremental production loop must be indistinguishable from
its re-derivation oracle in :mod:`repro.reference`: identical clusterings,
crowd batch sequences and event streams.  PC-Pivot's production executor
runs per connected component (:mod:`repro.core.generation`); against the
whole-graph oracle :func:`repro.reference.pc_pivot` it must give the same
clustering (cluster ids included), and its merged-round accounting must
equal the oracle run on each component alone, merged round by round.  On
a connected graph the two are byte-identical in every respect."""

import json
import random as random_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.cli import main
from repro.core.acd import run_acd
from repro.core.generation import waste_estimates
from repro.core.generation import PCPivotDiagnostics, pc_pivot
from repro.core.pc_refine import pc_refine
from repro.core.permutation import Permutation
from repro.core.generation import crowd_pivot
from repro.core.generation import LiveVertexOrder, choose_pivots
from repro.core.refine import crowd_refine
from repro.crowd.cache import AnswerFile, FallbackAnswers, ScriptedAnswers
from repro.crowd.faults import FaultModel
from repro.crowd.oracle import CrowdOracle
from repro.crowd.worker import WorkerPool
from repro.datasets.registry import generate
from repro.datasets.schema import canonical_pair
from repro.eval.metrics import pairwise_scores
from repro.experiments.chaos import _platform_answers
from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
from repro.experiments.runner import prepare_instance, run_method
from repro.obs import ObsContext
from repro.pruning.candidate import build_candidate_set
from repro.pruning.components import connected_components
from repro.pruning.graph import CandidateGraph
from repro.similarity.composite import jaccard_similarity_function
from tests.conftest import FIG2_IDS, fig2_candidates, fig2_oracle, \
    make_candidates

EPSILONS = (0.0, 0.05, 0.1, 0.3, 1.0)

#: Each generation loop under test, keyed as "fast" (production) and
#: "reference" (the oracle).
PC_PIVOTS = {"fast": pc_pivot, "reference": reference.pc_pivot}
CROWD_PIVOTS = {"fast": crowd_pivot, "reference": reference.crowd_pivot}


class RecordingOracle(CrowdOracle):
    """A CrowdOracle that logs every batch it is asked, in order.

    Equivalence on ``pairs_issued`` alone would accept engines that issue
    the same pairs in different rounds; the batch log pins the *sequence*.
    """

    def __init__(self, answers):
        super().__init__(answers)
        self.batches = []

    def ask_batch(self, pairs):
        batch = list(pairs)
        self.batches.append(
            tuple(sorted(canonical_pair(a, b) for a, b in batch))
        )
        return super().ask_batch(batch)


def random_pivot_state(seed):
    """Random record set + candidate graph with scripted crowd answers.
    Returns (ids, candidates, factory for identically-scripted oracles)."""
    rng = random_module.Random(seed)
    num_records = rng.randint(4, 18)
    machine = {}
    confidences = {}
    for i in range(num_records):
        for j in range(i + 1, num_records):
            if rng.random() < 0.35:
                machine[(i, j)] = round(rng.uniform(0.31, 0.95), 2)
                confidences[(i, j)] = rng.choice(
                    (0.0, 0.25, 0.4, 0.6, 0.75, 1.0)
                )
    candidates = make_candidates(machine)

    def fresh_oracle():
        return RecordingOracle(ScriptedAnswers(confidences, num_workers=3))

    return list(range(num_records)), candidates, fresh_oracle


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


# ---------------------------------------------------------------------------
# Engine equivalence (property-tested)
# ---------------------------------------------------------------------------


def _pc_pivot_outcome(run, ids, candidates, oracle, epsilon, permutation):
    diagnostics = PCPivotDiagnostics()
    clustering = run(ids, candidates, oracle, epsilon=epsilon,
                     permutation=permutation, diagnostics=diagnostics)
    clustering.check_invariants()
    return (clustering.to_state(), oracle.stats.pairs_issued,
            oracle.stats.iterations, oracle.batches, diagnostics.ks,
            diagnostics.predicted_waste, diagnostics.issued_per_round)


def _merged_reference(ids, candidates, fresh_oracle, epsilon, permutation):
    """The whole-graph oracle run on each component alone, merged round
    by round: the accounting the production executor must report.
    Singleton components ask nothing and are clustered without a round."""
    batches, ks, waste, issued = [], [], [], []
    pairs = iterations = 0
    for members in connected_components(ids, candidates.pairs):
        if len(members) == 1:
            continue
        member_set = set(members)
        local = make_candidates({
            pair: candidates.score(*pair) for pair in candidates.pairs
            if pair[0] in member_set})
        (_, comp_pairs, comp_iterations, comp_batches, comp_ks, comp_waste,
         comp_issued) = _pc_pivot_outcome(
            reference.pc_pivot, list(members), local, fresh_oracle(),
            epsilon, permutation)
        pairs += comp_pairs
        iterations = max(iterations, comp_iterations)
        for depth, (batch, k, w, n) in enumerate(
                zip(comp_batches, comp_ks, comp_waste, comp_issued)):
            if depth == len(ks):
                batches.append(())
                ks.append(0)
                waste.append(0)
                issued.append(0)
            batches[depth] = tuple(sorted(batches[depth] + batch))
            ks[depth] += k
            waste[depth] += w
            issued[depth] += n
    return pairs, iterations, batches, ks, waste, issued


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(EPSILONS))
def test_pc_pivot_engines_agree(seed, epsilon):
    """Same clustering (ids included) as the whole-graph oracle; stats,
    crowd batches and diagnostics equal the oracle run per component
    and merged round by round."""
    ids, candidates, fresh_oracle = random_pivot_state(seed)
    permutation = Permutation.random(ids, seed=seed)
    fast = _pc_pivot_outcome(pc_pivot, ids, candidates, fresh_oracle(),
                             epsilon, permutation)
    whole_graph = _pc_pivot_outcome(reference.pc_pivot, ids, candidates,
                                    fresh_oracle(), epsilon, permutation)
    assert fast[0] == whole_graph[0]
    assert fast[1:] == _merged_reference(ids, candidates, fresh_oracle,
                                         epsilon, permutation)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_crowd_pivot_engines_agree(seed):
    ids, candidates, fresh_oracle = random_pivot_state(seed)
    outcomes = {}
    for engine, run in CROWD_PIVOTS.items():
        oracle = fresh_oracle()
        clustering = run(ids, candidates, oracle, seed=seed)
        clustering.check_invariants()
        outcomes[engine] = (clustering.as_sets(), oracle.stats.pairs_issued,
                            oracle.stats.iterations, oracle.batches)
    assert outcomes["fast"] == outcomes["reference"]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(EPSILONS))
def test_choose_pivots_matches_reference(seed, epsilon):
    """The fused early-exiting scan equals choose_k + waste_estimates."""
    ids, candidates, _ = random_pivot_state(seed)
    graph = CandidateGraph(ids, candidates.pairs)
    permutation = Permutation.random(ids, seed=seed + 1)
    ordered = permutation.ordered(graph.vertices)
    k, estimates = choose_pivots(graph, ordered, epsilon)
    assert k == reference.choose_k(graph, permutation, epsilon)
    assert estimates == waste_estimates(graph, ordered)[:k]


@pytest.mark.parametrize("seed", range(6))
def test_pc_pivot_event_streams_identical(seed):
    """On one connected component the per-component executor *is* the
    whole-graph loop: identical batches, diagnostics and event stream."""
    ids, candidates, fresh_oracle = random_pivot_state(seed)
    largest = max(connected_components(ids, candidates.pairs), key=len)
    member_set = set(largest)
    local = make_candidates({pair: candidates.score(*pair)
                             for pair in candidates.pairs
                             if pair[0] in member_set})
    permutation = Permutation.random(ids, seed=seed)
    streams, outcomes = {}, {}
    for engine, run in PC_PIVOTS.items():
        obs = ObsContext()
        with obs.span("generation"):
            outcomes[engine] = _pc_pivot_outcome(
                lambda *args, **kwargs: run(*args, obs=obs, **kwargs),
                list(largest), local, fresh_oracle(), 0.1, permutation)
        streams[engine] = _collected_events(obs)
    assert streams["fast"] == streams["reference"]
    assert outcomes["fast"] == outcomes["reference"]


@pytest.mark.parametrize("seed", range(6))
def test_crowd_pivot_event_streams_identical(seed):
    ids, candidates, fresh_oracle = random_pivot_state(seed)
    streams = {}
    for engine, run in CROWD_PIVOTS.items():
        obs = ObsContext()
        with obs.span("generation"):
            run(ids, candidates, fresh_oracle(), seed=seed, obs=obs)
        streams[engine] = _collected_events(obs)
    assert streams["fast"] == streams["reference"]


@pytest.mark.parametrize("parallel", (True, False))
def test_run_acd_engines_agree(tiny_paper, parallel):
    """End to end: ``run_acd`` (``parallel``) or Crowd-Pivot then
    Crowd-Refine over one oracle equals the oracle composition of the
    same phases, and ``run_acd``'s generation clustering equals the
    whole-graph oracle's."""
    ids, candidates = tiny_paper.record_ids, tiny_paper.candidates
    if parallel:
        result = run_acd(ids, candidates, tiny_paper.answers, seed=2)
        fast, fast_stats = result.clustering, result.stats
        generation = run_acd(ids, candidates, tiny_paper.answers, seed=2,
                             refine=False).clustering
        whole_graph = reference.pc_pivot(
            ids, candidates, CrowdOracle(tiny_paper.answers), seed=2)
        assert generation.to_state() == whole_graph.to_state()
    else:
        oracle = CrowdOracle(tiny_paper.answers)
        fast = crowd_refine(crowd_pivot(ids, candidates, oracle, seed=2),
                            candidates, oracle)
        fast_stats = oracle.stats
    clustering, stats = reference.run_acd(
        ids, candidates, tiny_paper.answers, seed=2, parallel=parallel,
        generation=pc_pivot if parallel else reference.crowd_pivot,
        refinement=pc_refine if parallel else crowd_refine,
    )
    assert fast.as_sets() == clustering.as_sets()
    assert fast_stats.pairs_issued == stats.pairs_issued
    assert fast_stats.iterations == stats.iterations


@pytest.mark.parametrize("seed", (0, 1))
def test_engines_agree_under_faulty_crowd(seed):
    """``run_acd`` inline and the phase composition over one oracle, each
    on its own fault-injecting platform (identical seeds): the platforms
    replay deterministically, so equivalence holds iff ``run_acd`` posts
    the platform exactly the batches the composition asks, and its stats
    (fault counters included) are the oracle's."""
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
        generation=pc_pivot, refinement=pc_refine)
    assert (result.clustering.as_sets(), result.stats.snapshot()) == (
        clustering.as_sets(), stats.snapshot())


def test_unknown_engine_rejected():
    """The engine knob is gone: generation has one production loop."""
    ids, candidates, fresh_oracle = random_pivot_state(0)
    with pytest.raises(TypeError, match="engine"):
        pc_pivot(ids, candidates, fresh_oracle(), engine="reference")
    with pytest.raises(TypeError, match="engine"):
        crowd_pivot(ids, candidates, fresh_oracle(), engine="reference")


def test_partial_pivot_is_reference_only():
    """The whole-graph Partial-Pivot round is a test oracle: production
    keeps only its two halves (``pivot_incident_pairs`` /
    ``form_clusters``), and the oracle still rejects ``k < 1``."""
    import repro.core.generation as core_partial_pivot

    assert not hasattr(core_partial_pivot, "partial_pivot")
    ids, candidates, fresh_oracle = random_pivot_state(3)
    graph = CandidateGraph(ids, candidates.pairs)
    with pytest.raises(ValueError, match="k must be"):
        reference.partial_pivot(graph, 0, Permutation.random(ids, seed=0),
                                fresh_oracle())


# ---------------------------------------------------------------------------
# The ε=0 contract and the binding-waste-bound warning
# ---------------------------------------------------------------------------

# A pivot order over Figure 2 whose second pivot (d) shares two neighbors
# with the first (a): any ε below 1/3 rejects every prefix past k=1.
FIG2_BINDING_ORDER = [FIG2_IDS[x] for x in "adbcef"]


def test_epsilon_zero_contract():
    """ε=0 admits only the waste-free prefix (here a single pivot)."""
    candidates = fig2_candidates()
    graph = CandidateGraph(sorted(FIG2_IDS.values()), candidates.pairs)
    permutation = Permutation(FIG2_BINDING_ORDER)
    assert reference.choose_k(graph, permutation, 0.0) == 1
    assert choose_pivots(
        graph, permutation.ordered(graph.vertices), 0.0
    ) == (1, [0])


def _fig2_warning_events(epsilon, engine="fast"):
    obs = ObsContext()
    with obs.span("generation"):
        PC_PIVOTS[engine](sorted(FIG2_IDS.values()), fig2_candidates(),
                          fig2_oracle(), epsilon=epsilon,
                          permutation=Permutation(FIG2_BINDING_ORDER),
                          obs=obs)
    return [attrs for name, attrs in _collected_events(obs)
            if name == "pivot.waste_bound_binding"]


@pytest.mark.parametrize("engine", tuple(PC_PIVOTS))
def test_waste_bound_binding_warning_emitted(engine):
    """A round forced down to k=1 under a positive ε warns that the waste
    bound is binding (the round runs sequentially)."""
    warnings = _fig2_warning_events(0.01, engine=engine)
    assert warnings
    first = warnings[0]
    assert first["round"] == 1
    assert first["epsilon"] == 0.01
    assert first["live_records"] == 6


def test_waste_bound_warning_absent_when_not_binding():
    # A generous budget parallelizes the round: no warning.
    assert _fig2_warning_events(10.0) == []
    # ε=0 degrades by contract, not pathology: no warning either.
    assert _fig2_warning_events(0.0) == []


# ---------------------------------------------------------------------------
# LiveVertexOrder
# ---------------------------------------------------------------------------


class TestLiveVertexOrder:
    def test_orders_by_permutation_rank(self):
        permutation = Permutation([3, 1, 4, 0, 2])
        order = LiveVertexOrder(permutation, [0, 1, 2, 3, 4])
        assert order.live() == [3, 1, 4, 0, 2]
        assert len(order) == 5

    def test_subset_of_permutation(self):
        permutation = Permutation([3, 1, 4, 0, 2])
        order = LiveVertexOrder(permutation, [4, 2, 3])
        assert order.live() == [3, 4, 2]

    def test_rejects_vertices_missing_from_permutation(self):
        with pytest.raises(ValueError, match="missing"):
            LiveVertexOrder(Permutation([0, 1]), [0, 1, 7])

    def test_discard_compacts_lazily(self):
        order = LiveVertexOrder(Permutation([3, 1, 4, 0, 2]),
                                [0, 1, 2, 3, 4])
        order.discard([1, 0])
        assert len(order) == 3
        assert order.live() == [3, 4, 2]
        order.discard([3])
        assert order.live() == [4, 2]

    def test_first_advances_past_dead(self):
        order = LiveVertexOrder(Permutation([3, 1, 4, 0, 2]),
                                [0, 1, 2, 3, 4])
        assert order.first() == 3
        order.discard([3, 1, 4])
        assert order.first() == 0
        order.discard([0, 2])
        assert order.first() is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_reference_sort_under_random_discards(self, seed):
        rng = random_module.Random(seed)
        ids = list(range(rng.randint(1, 30)))
        permutation = Permutation.random(ids, seed=seed)
        order = LiveVertexOrder(permutation, ids)
        alive = set(ids)
        while alive:
            assert order.live() == permutation.ordered(alive)
            assert order.first() == permutation.first(alive)
            doomed = set(rng.sample(sorted(alive),
                                    rng.randint(1, len(alive))))
            order.discard(doomed)
            alive -= doomed
        assert order.live() == []
        assert order.first() is None


# ---------------------------------------------------------------------------
# Component execution: inline, on the pool, and under streamed pruning
# ---------------------------------------------------------------------------

#: Streamed-pruning shard counts; each seals components in its own order
#: and groups them into different pivot tasks.
SHARD_COUNTS = (1, 2, 3, 5)


def _generation(ids, candidates, answers, seed, epsilon=0.1, workers=0):
    """Pre-pruned generation phase through ``run_acd``."""
    return run_acd(ids, candidates, answers, seed=seed, epsilon=epsilon,
                   refine=False, workers=workers)


class RecordingAnswers:
    """A pair-deterministic pass-through that records every pair asked."""

    pair_deterministic = True

    def __init__(self, inner):
        self._inner = inner
        self.pairs = set()

    @property
    def num_workers(self):
        return self._inner.num_workers

    def confidence(self, a, b):
        self.pairs.add(canonical_pair(a, b))
        return self._inner.confidence(a, b)


_LARGESCALE_CROWD = WorkerPool(difficulty=difficulty_model("largescale"),
                               num_workers=3)


def _streamed_generation(dataset, seed, epsilon, shards):
    """Streamed-pruning generation on a two-worker pool; the parent's
    merged-round replay shows the recorder every pair asked."""
    obs = ObsContext()
    answers = RecordingAnswers(AnswerFile(dataset.gold, _LARGESCALE_CROWD))
    result = run_acd(
        answers=answers, records=dataset.records,
        similarity=jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD, pruning_shards=shards, seed=seed,
        epsilon=epsilon, refine=False, obs=obs, workers=2,
    )
    return result, obs, answers.pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(EPSILONS))
def test_sharded_clustering_identical_to_classic(seed, epsilon):
    """``run_acd``'s generation reproduces the whole-graph oracle's
    clustering — including cluster IDs."""
    ids, candidates, fresh_oracle = random_pivot_state(seed)
    classic = reference.pc_pivot(ids, candidates, fresh_oracle(),
                                 epsilon=epsilon, seed=seed)
    sharded = _generation(ids, candidates, fresh_oracle().source, seed,
                          epsilon)
    sharded.clustering.check_invariants()
    assert sharded.clustering.to_state() == classic.to_state()


def _accounting_invariant_across_shard_counts(seed, epsilon):
    dataset = generate("largescale", scale=0.05, seed=seed, confusion=0.25)
    outcomes = []
    for shards in SHARD_COUNTS:
        result, obs, _ = _streamed_generation(dataset, seed, epsilon, shards)
        diagnostics = result.pivot_diagnostics
        outcomes.append((
            result.clustering.to_state(),
            result.stats.snapshot(),
            list(result.stats.batch_sizes),
            diagnostics.ks,
            diagnostics.predicted_waste,
            diagnostics.issued_per_round,
            [event for event in _collected_events(obs)
             if not event[0].startswith(("runtime", "pipeline.",
                                         "pruning"))],
        ))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


def _pair_set_invariant_and_waste_bounded(seed, epsilon):
    dataset = generate("largescale", scale=0.05, seed=seed, confusion=0.25)
    pair_sets = []
    for shards in (1, 3, 5):
        result, _, issued = _streamed_generation(dataset, seed, epsilon,
                                                 shards)
        pair_sets.append(issued)
        assert len(issued) == result.stats.pairs_issued
        assert issued <= set(result.candidates.pairs)
        # Equation 4, summed per round: predicted waste within ε of issued.
        assert (result.pivot_diagnostics.total_predicted_waste
                <= epsilon * result.stats.pairs_issued + 1e-9)
    assert pair_sets[0] == pair_sets[1] == pair_sets[2]


def test_sharded_accounting_invariant_across_shard_counts():
    """Stats, crowd batch sequence, diagnostics, and the crowd-phase event
    stream are byte-identical for every pruning shard count (component
    accounting is canonical, not sealing-order dependent)."""
    for seed, epsilon in ((0, 0.1), (1, 0.0), (2, 0.3)):
        _accounting_invariant_across_shard_counts(seed, epsilon)


def test_sharded_pair_set_invariant_and_waste_bounded():
    """The issued pair set is invariant across shard counts, stays within
    the candidate set, and honors the per-component Equation-4 bound.
    (The round structure differs from the whole-graph oracle's: the
    global permutation prefix couples components in its Equation-4
    rounds, so only the clustering is pinned across the two.)"""
    for seed, epsilon in ((0, 0.1), (3, 0.05), (4, 1.0)):
        _pair_set_invariant_and_waste_bounded(seed, epsilon)


def test_run_acd_sharded_agrees(tiny_paper):
    """End-to-end generation: every worker count yields the whole-graph
    oracle's clustering (ids included) and byte-identical stats."""
    base = reference.pc_pivot(tiny_paper.record_ids, tiny_paper.candidates,
                              CrowdOracle(tiny_paper.answers), seed=2)
    sharded = {
        workers: _generation(tiny_paper.record_ids, tiny_paper.candidates,
                             tiny_paper.answers, seed=2, workers=workers)
        for workers in (0, 2, 3)
    }
    first = sharded[0]
    for result in sharded.values():
        assert result.clustering.to_state() == base.to_state()
        assert result.stats == first.stats


class TestShardedValidation:
    def test_negative_shards_rejected(self, tiny_paper):
        with pytest.raises(ValueError, match="shards"):
            run_acd(answers=tiny_paper.answers,
                    records=tiny_paper.dataset.records,
                    similarity=jaccard_similarity_function(),
                    pruning_shards=-1)

    def test_processes_without_shards_rejected(self, tiny_paper):
        """There is one executor, so the knobs that picked one are gone:
        ``workers=`` sizes its pool."""
        for knob in ("pipeline", "pipeline_workers"):
            with pytest.raises(TypeError, match=knob):
                run_method("PC-Pivot", tiny_paper, **{knob: 2})

    def test_non_pair_deterministic_source_rejected(self):
        """FallbackAnswers tracks degraded pairs statefully — forking it
        into workers could change answers, so a pool refuses it (inline
        execution takes it)."""
        ids, candidates, _ = random_pivot_state(1)
        source = FallbackAnswers(ScriptedAnswers({}, num_workers=3),
                                 fallback=lambda pair: 0.0)
        with pytest.raises(ValueError, match="pair-deterministic"):
            _generation(ids, candidates, source, seed=1, workers=2)
        _generation(ids, candidates, source, seed=1)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_run_with_reference_engine(self, tmp_path):
        """``repro run`` reports what the oracle composition of the
        production phases computes."""
        output = tmp_path / "run.json"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--output", str(output)]) == 0
        rollup = json.loads(output.read_text())["result"]
        instance = prepare_instance("restaurant", "3w", scale=0.05, seed=1)
        clustering, stats = reference.run_acd(
            instance.record_ids, instance.candidates, instance.answers,
            seed=7, pairs_per_hit=instance.setting.pairs_per_hit,
            generation=pc_pivot, refinement=pc_refine)
        assert rollup["pairs_issued"] == stats.pairs_issued
        assert rollup["iterations"] == stats.iterations
        assert rollup["f1"] == pairwise_scores(clustering,
                                               instance.dataset.gold).f1

    def test_run_with_pivot_shards(self, capsys):
        """``--parallel`` sizes the generation pool too."""
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--method", "PC-Pivot", "--parallel", "2"]) == 0
        assert "F1" in capsys.readouterr().out

"""End-to-end observability tests: the trace layer against the real pipeline.

Three contracts are pinned here:

1. *Byte-identity*: a run with ``obs=None`` (the default) produces exactly
   the same ``ACDResult`` as one with a live ``ObsContext`` — observation
   never perturbs the observed run.
2. *Rollup consistency*: the metrics registry's crowd counters always
   equal the run's ``CrowdStats`` snapshot — the manifest never disagrees
   with the stats the figures are built from.
3. *Structure*: the span tree mirrors the pipeline's phases and the event
   stream covers every crowd round.
"""

import pytest

from repro.core.acd import run_acd
from repro.core.generation import crowd_pivot
from repro.core.refine import crowd_refine
from repro.crowd.oracle import CrowdOracle
from repro.crowd.persistence import JournalingAnswerFile
from repro.experiments.runner import prepare_instance, run_method
from repro.obs import ObsContext, load_manifest, read_events


@pytest.fixture(scope="module")
def instance():
    return prepare_instance("restaurant", scale=0.1, seed=3)


def _run(instance, obs=None, **kwargs):
    return run_acd(instance.record_ids, instance.candidates,
                   instance.answers, seed=kwargs.pop("seed", 11),
                   obs=obs, **kwargs)


class TestByteIdentity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_observed_run_is_identical(self, instance, seed):
        plain = _run(instance, seed=seed)
        observed = _run(instance, obs=ObsContext(), seed=seed)
        assert observed.clustering.as_sets() == plain.clustering.as_sets()
        assert observed.stats.snapshot() == plain.stats.snapshot()
        assert observed.generation_stats == plain.generation_stats
        assert observed.refinement_stats == plain.refinement_stats

    def test_sequential_mode_identical(self, instance):
        def sequential(obs=None):
            oracle = CrowdOracle(instance.answers, obs=obs)
            clustering = crowd_pivot(instance.record_ids,
                                     instance.candidates, oracle, seed=11,
                                     obs=obs)
            clustering = crowd_refine(clustering, instance.candidates,
                                      oracle, obs=obs)
            return clustering, oracle.stats

        plain_clustering, plain_stats = sequential()
        observed_clustering, observed_stats = sequential(obs=ObsContext())
        assert observed_clustering.as_sets() == plain_clustering.as_sets()
        assert observed_stats.snapshot() == plain_stats.snapshot()

    def test_baseline_methods_identical(self, instance):
        for method in ("Crowd-Pivot", "CrowdER+", "TransM"):
            plain = run_method(method, instance, seed=5)
            observed = run_method(method, instance, seed=5, obs=ObsContext())
            assert observed.f1 == plain.f1
            assert observed.pairs_issued == plain.pairs_issued
            assert observed.iterations == plain.iterations


class TestRollupConsistency:
    def test_counters_equal_crowd_stats(self, instance):
        obs = ObsContext()
        result = _run(instance, obs=obs)
        counters = obs.metrics.as_dict()["counters"]
        snapshot = result.stats.snapshot()
        assert counters["crowd_pairs_issued_total"] == snapshot["pairs_issued"]
        assert counters["crowd_iterations_total"] == snapshot["iterations"]
        assert counters["crowd_hits_total"] == snapshot["hits"]
        assert counters["crowd_votes_total"] == snapshot["votes"]

    def test_batch_histogram_totals(self, instance):
        obs = ObsContext()
        result = _run(instance, obs=obs)
        histogram = obs.metrics.histogram("crowd_batch_pairs")
        assert histogram.count == result.stats.iterations
        assert histogram.sum == result.stats.pairs_issued

    def test_final_gauges(self, instance):
        obs = ObsContext()
        result = _run(instance, obs=obs)
        gauges = obs.metrics.as_dict()["gauges"]
        assert gauges["clusters"] == len(result.clustering)
        assert gauges["crowd_cost_cents"] == result.stats.monetary_cost_cents


class TestSpanStructure:
    def test_phase_nesting(self, instance):
        obs = ObsContext()
        _run(instance, obs=obs)
        acd = obs.tracer.roots[0]
        assert acd.name == "acd"
        phase_names = [child.name for child in acd.children]
        assert phase_names == ["generation", "refinement"]
        generation = acd.children[0]
        assert generation.children, "PC-Pivot rounds should nest here"
        assert {child.name for child in generation.children} == {
            "pivot.partial"
        }

    def test_refine_skipped_drops_phase(self, instance):
        obs = ObsContext()
        _run(instance, obs=obs, refine=False)
        acd = obs.tracer.roots[0]
        assert [child.name for child in acd.children] == ["generation"]

    def test_crowd_events_cover_every_iteration(self, instance):
        obs = ObsContext()
        result = _run(instance, obs=obs)
        batches = [event for span in obs.tracer.roots
                   for event in _all_events(span)
                   if event["name"] == "crowd.batch"]
        assert len(batches) == result.stats.iterations
        assert sum(event["attrs"]["pairs"] for event in batches) \
            == result.stats.pairs_issued


def _all_events(span):
    yield from span.events
    for child in span.children:
        yield from _all_events(child)


class TestTraceFileAndManifest:
    def test_traced_run_writes_trace_and_manifest(self, instance, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        with ObsContext.to_path(trace) as obs:
            result = _run(instance, obs=obs)
        records = read_events(trace)
        kinds = {record["type"] for record in records}
        assert kinds == {"span", "event"}
        span_names = {record["name"] for record in records
                      if record["type"] == "span"}
        assert {"acd", "generation", "refinement"} <= span_names

        manifest = load_manifest(tmp_path / "run.trace.manifest.json")
        assert manifest["command"] == "run_acd"
        assert manifest["config"]["epsilon"] == 0.1
        assert manifest["seeds"]["pivot_seed"] == 11
        assert manifest["stats"] == result.stats.snapshot()
        assert (manifest["metrics"]["counters"]["crowd_pairs_issued_total"]
                == result.stats.pairs_issued)
        assert manifest["trace_path"] == str(trace)
        span_table = {entry["name"]: entry for entry in manifest["spans"]}
        assert span_table["acd"]["count"] == 1

    def test_parallel_key_belongs_to_the_cli(self, instance, tmp_path):
        """Regression: the library wrote ``parallel: True`` (the batched
        engines) and the CLI overwrote it with its pruning worker count,
        so the one key meant two things.  Only the CLI writes it now."""
        from repro.cli import main

        trace = tmp_path / "lib.trace.jsonl"
        with ObsContext.to_path(trace) as obs:
            _run(instance, obs=obs)
        manifest = load_manifest(tmp_path / "lib.trace.manifest.json")
        assert "parallel" not in manifest["config"]

        trace = tmp_path / "cli.trace.jsonl"
        assert main(["run", "restaurant", "--scale", "0.05", "--parallel",
                     "2", "--trace", str(trace)]) == 0
        manifest = load_manifest(tmp_path / "cli.trace.manifest.json")
        assert manifest["config"]["parallel"] == 2

    def test_in_memory_obs_writes_nothing(self, instance, tmp_path):
        _run(instance, obs=ObsContext())
        assert list(tmp_path.iterdir()) == []

    def test_journaled_run_traces_identically(self, instance, tmp_path):
        plain = _run(instance)
        obs = ObsContext()
        with JournalingAnswerFile(instance.answers,
                                  tmp_path / "run.wal") as answers:
            journaled = run_acd(instance.record_ids, instance.candidates,
                                answers, seed=11, obs=obs)
        assert journaled.clustering.as_sets() == plain.clustering.as_sets()
        counters = obs.metrics.as_dict()["counters"]
        assert counters["crowd_pairs_issued_total"] \
            == journaled.stats.pairs_issued

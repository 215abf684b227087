"""Tests for repro.perf.timing (meters, stage tables and the BENCH
schema) and the pruning phase's stage spans."""

import pytest

from repro.obs import ObsContext
from repro.perf.timing import (
    SCHEMA_VERSION,
    StageTimings,
    bench_payload,
    read_bench_json,
    run_entry,
    stage_seconds,
    write_bench_json,
)

#: A one-stage rollup in the shape of ``Tracer.span_summaries()``.
BLOCKING = [{"name": "blocking", "count": 1, "total_s": 0.1}]


class TestStageTimings:
    """The BENCH stage table: span wall-clock rolled up per name."""

    def test_stage_records_duration(self):
        obs = ObsContext()
        with obs.span("blocking"):
            pass
        stages = stage_seconds(obs.tracer.span_summaries())
        assert list(stages) == ["blocking"]
        assert stages["blocking"] >= 0.0

    def test_reentry_accumulates(self):
        obs = ObsContext()
        for _ in range(2):
            with obs.span("scoring"):
                pass
        durations = [root.duration_s for root in obs.tracer.roots]
        stages = stage_seconds(obs.tracer.span_summaries())
        assert stages["scoring"] == pytest.approx(sum(durations))


class TestBenchSchema:
    def test_payload_shape(self):
        payload = bench_payload(
            "pruning",
            config={"scale": 2.0},
            runs={"paper/prefix": run_entry(BLOCKING, records=600)},
            derived={"speedup": 4.0},
        )
        assert payload["benchmark"] == "pruning"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["config"] == {"scale": 2.0}
        entry = payload["runs"]["paper/prefix"]
        assert entry["meta"] == {"records": 600}
        assert entry["stages"] == {"blocking": pytest.approx(0.1)}
        assert payload["derived"] == {"speedup": 4.0}

    def test_write_read_roundtrip(self, tmp_path):
        payload = bench_payload("endtoend", runs={})
        path = write_bench_json(tmp_path / "BENCH_test.json", payload)
        assert read_bench_json(path) == payload


class TestPruningInstrumentation:
    def test_build_candidate_set_records_stages(self):
        """Both pruning paths time their stages in ``blocking`` and
        ``scoring`` spans nested under the phase's ``pruning`` span."""
        from repro.datasets.schema import Record
        from repro.pruning.candidate import (
            _prefix_join_eligible,
            build_candidate_set,
        )
        from repro.similarity.composite import (
            jaccard_similarity_function,
            levenshtein_similarity_function,
        )

        records = [Record(record_id=i, text=t)
                   for i, t in enumerate(["a b c", "a b d", "x y"])]
        join = jaccard_similarity_function()
        loop = levenshtein_similarity_function()
        # One input per path: the prefix join and the scoring loop.
        assert _prefix_join_eligible(join, None, True)
        assert not _prefix_join_eligible(loop, None, False)
        for similarity, token_blocking in ((join, True), (loop, False)):
            obs = ObsContext()
            build_candidate_set(records, similarity,
                                use_token_blocking=token_blocking, obs=obs)
            (pruning,) = obs.tracer.roots
            assert pruning.name == "pruning"
            assert [child.name for child in pruning.children] == [
                "blocking", "scoring"], similarity.name


class TestMeters:
    """Gauge meters: peak RSS and derived throughput rates."""

    def test_set_meter_overwrites(self):
        timings = StageTimings()
        timings.set_meter("records_per_second", 10.0)
        timings.set_meter("records_per_second", 20.0)
        assert timings.meters == {"records_per_second": 20.0}

    def test_no_meters_by_default(self):
        assert StageTimings().meters == {}

    def test_peak_rss_positive(self):
        from repro.perf.timing import peak_rss_bytes

        # A running interpreter occupies at least a few MiB.
        assert peak_rss_bytes() > 1 << 20

    def test_record_peak_rss_sets_meter(self):
        timings = StageTimings()
        peak = timings.record_peak_rss()
        assert peak > 0
        assert timings.meters["peak_rss_bytes"] == float(peak)

    def test_record_throughput_from_stage(self):
        timings = StageTimings()
        stages = stage_seconds(
            [{"name": "scoring", "count": 1, "total_s": 2.0}])
        rate = timings.record_throughput("pairs_per_second", 100,
                                         stages["scoring"])
        assert rate == pytest.approx(50.0)
        assert timings.meters["pairs_per_second"] == pytest.approx(50.0)

    def test_record_throughput_unmeasurable_is_zero(self):
        timings = StageTimings()
        assert timings.record_throughput("records_per_second", 400,
                                         0.0) == 0.0

    def test_run_entry_includes_meters(self):
        timings = StageTimings()
        timings.set_meter("records_per_second", 42.0)
        entry = run_entry(BLOCKING, timings, records=7)
        assert entry["meters"] == {"records_per_second": 42.0}
        assert entry["meta"] == {"records": 7}

    def test_run_entry_omits_empty_meters(self):
        assert "meters" not in run_entry(BLOCKING, StageTimings())
        assert "meters" not in run_entry(BLOCKING)

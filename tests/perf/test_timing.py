"""Tests for repro.perf.timing (stage timers and the BENCH schema)."""

import pytest

from repro.perf.timing import (
    SCHEMA_VERSION,
    StageTimings,
    bench_payload,
    read_bench_json,
    run_entry,
    write_bench_json,
)


class TestStageTimings:
    def test_stage_records_duration(self):
        timings = StageTimings()
        with timings.stage("blocking"):
            pass
        assert timings.seconds("blocking") >= 0.0
        assert list(timings.as_dict()) == ["blocking"]

    def test_reentry_accumulates(self):
        timings = StageTimings()
        timings.add("scoring", 1.0)
        timings.add("scoring", 0.5)
        assert timings.seconds("scoring") == pytest.approx(1.5)

    def test_unknown_stage_is_zero(self):
        assert StageTimings().seconds("nope") == 0.0

    def test_total_sums_stages(self):
        timings = StageTimings()
        timings.add("blocking", 1.0)
        timings.add("scoring", 2.0)
        assert timings.total == pytest.approx(3.0)

    def test_total_excludes_explicit_total(self):
        timings = StageTimings()
        timings.add("blocking", 1.0)
        timings.add("total", 9.0)
        assert timings.total == pytest.approx(1.0)
        # ... but an explicit total wins in the serialized view.
        assert timings.with_total()["total"] == pytest.approx(9.0)

    def test_with_total_adds_key(self):
        timings = StageTimings()
        timings.add("scoring", 2.0)
        assert timings.with_total() == {"scoring": 2.0, "total": 2.0}

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            StageTimings().add("x", -0.1)


class TestBenchSchema:
    def test_payload_shape(self):
        timings = StageTimings()
        timings.add("blocking", 0.1)
        payload = bench_payload(
            "pruning",
            config={"scale": 2.0},
            runs={"paper/prefix": run_entry(timings, records=600)},
            derived={"speedup": 4.0},
        )
        assert payload["benchmark"] == "pruning"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["config"] == {"scale": 2.0}
        entry = payload["runs"]["paper/prefix"]
        assert entry["meta"] == {"records": 600}
        assert entry["stages"]["total"] == pytest.approx(0.1)
        assert payload["derived"] == {"speedup": 4.0}

    def test_write_read_roundtrip(self, tmp_path):
        payload = bench_payload("endtoend", runs={})
        path = write_bench_json(tmp_path / "BENCH_test.json", payload)
        assert read_bench_json(path) == payload


class TestPruningInstrumentation:
    def test_build_candidate_set_records_stages(self):
        from repro import reference
        from repro.datasets.schema import Record
        from repro.pruning.candidate import (
            _prefix_join_eligible,
            build_candidate_set,
        )
        from repro.similarity.composite import jaccard_similarity_function

        records = [Record(record_id=i, text=t)
                   for i, t in enumerate(["a b c", "a b d", "x y"])]
        # The production call below must take the join, not the loop.
        assert _prefix_join_eligible(jaccard_similarity_function(), None,
                                     True)
        for build in (reference.candidate_set, build_candidate_set):
            timings = StageTimings()
            build(records, jaccard_similarity_function(), timings=timings)
            stages = timings.as_dict()
            assert "blocking" in stages and "scoring" in stages, build


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
        timings.add("scoring", 2.0)
        rate = timings.record_throughput("pairs_per_second", 100,
                                         stage="scoring")
        assert rate == pytest.approx(50.0)
        assert timings.meters["pairs_per_second"] == pytest.approx(50.0)

    def test_record_throughput_defaults_to_total(self):
        timings = StageTimings()
        timings.add("blocking", 1.0)
        timings.add("scoring", 3.0)
        rate = timings.record_throughput("records_per_second", 400)
        assert rate == pytest.approx(100.0)

    def test_record_throughput_unmeasurable_is_zero(self):
        timings = StageTimings()
        assert timings.record_throughput("records_per_second", 400) == 0.0

    def test_run_entry_includes_meters(self):
        timings = StageTimings()
        timings.add("scoring", 1.0)
        timings.set_meter("records_per_second", 42.0)
        entry = run_entry(timings, records=7)
        assert entry["meters"] == {"records_per_second": 42.0}
        assert entry["meta"] == {"records": 7}

    def test_run_entry_omits_empty_meters(self):
        timings = StageTimings()
        timings.add("scoring", 1.0)
        assert "meters" not in run_entry(timings)

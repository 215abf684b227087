"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"
        assert args.scale == 0.3

    def test_compare_arguments(self):
        args = build_parser().parse_args(
            ["compare", "paper", "--setting", "5w", "--scale", "0.1"]
        )
        assert args.dataset == "paper"
        assert args.setting == "5w"
        assert args.scale == 0.1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "imaginary"])

    def test_run_method_choice(self):
        args = build_parser().parse_args(
            ["run", "product", "--method", "TransM"]
        )
        assert args.method == "TransM"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "product", "--method", "Nope"])


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out
        assert "error 3w" in out

    def test_run_command(self, capsys):
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--method", "TransM"]) == 0
        out = capsys.readouterr().out
        assert "TransM" in out
        assert "F1" in out

    def test_run_gcer_autobudgets(self, capsys):
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--method", "GCER"]) == 0
        assert "GCER" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", "restaurant", "--scale", "0.05",
                     "--repetitions", "1"]) == 0
        out = capsys.readouterr().out
        assert "ACD" in out and "CrowdER+" in out

    def test_sweep_epsilon_command(self, capsys):
        assert main(["sweep-epsilon", "restaurant", "--scale", "0.05",
                     "--repetitions", "1"]) == 0
        assert "Crowd-Pivot" in capsys.readouterr().out

    def test_sweep_threshold_command(self, capsys):
        assert main(["sweep-threshold", "restaurant", "--scale", "0.05",
                     "--repetitions", "1"]) == 0
        assert "N_m/" in capsys.readouterr().out


class TestTraceAndManifest:
    def test_run_with_trace_writes_trace_and_manifest(self, capsys, tmp_path):
        from repro.obs import load_manifest, read_events, summarize_trace
        trace = tmp_path / "run.trace.jsonl"
        # Scale 0.15 is the smallest Restaurant run whose refinement packs
        # a crowd round, so every refine.* stage span appears.
        assert main(["run", "restaurant", "--scale", "0.15",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace: {trace}" in out

        span_names = {record["name"] for record in read_events(trace)
                      if record["type"] == "span"}
        assert {"pruning", "blocking", "scoring", "acd", "generation",
                "refinement", "refine.free", "refine.evaluate",
                "refine.pack", "refine.crowd", "refine.apply"} <= span_names
        summary = summarize_trace(trace)
        assert summary["crowd_rounds"]

        manifest = load_manifest(tmp_path / "run.trace.manifest.json")
        assert manifest["command"] == "run"
        assert manifest["config"]["dataset"] == "restaurant"
        assert manifest["dataset"]["name"] == "restaurant"
        assert manifest["result"]["method"] == "ACD"
        assert (manifest["stats"]["pairs_issued"]
                == manifest["result"]["pairs_issued"])

    def test_trace_summarize_and_validate_commands(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace records:" in out
        assert "crowd rounds:" in out
        assert main(["trace", "validate",
                     str(tmp_path / "run.trace.manifest.json")]) == 0
        assert "valid" in capsys.readouterr().out

    def test_trace_validate_rejects_invalid(self, capsys, tmp_path):
        bad = tmp_path / "bad.manifest.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="manifest"):
            main(["trace", "validate", str(bad)])

    def test_output_json(self, capsys, tmp_path):
        import json
        output = tmp_path / "result.json"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--method", "TransM", "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["config"]["method"] == "TransM"
        assert 0.0 <= payload["result"]["f1"] <= 1.0


class TestRunFlagValidation:
    """The fail-fast guards: every bad flag combination must die with a
    clear message before any crowd work starts (not argparse's exit 2)."""

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit,
                           match=r"--resume requires --journal"):
            main(["run", "restaurant", "--scale", "0.05", "--resume"])

    def test_manifest_requires_trace(self, tmp_path):
        with pytest.raises(SystemExit,
                           match=r"--manifest requires --trace"):
            main(["run", "restaurant", "--scale", "0.05",
                  "--manifest", str(tmp_path / "m.json")])

    def test_journal_and_trace_collision(self, tmp_path):
        shared = tmp_path / "artifact.jsonl"
        with pytest.raises(SystemExit, match="same file"):
            main(["run", "restaurant", "--scale", "0.05",
                  "--journal", str(shared), "--trace", str(shared)])

    def test_trace_and_output_collision(self, tmp_path):
        shared = tmp_path / "artifact.json"
        with pytest.raises(SystemExit, match="same file"):
            main(["run", "restaurant", "--scale", "0.05",
                  "--trace", str(shared), "--output", str(shared)])

    def test_journal_config_mismatch_exits_cleanly(self, capsys, tmp_path):
        journal = tmp_path / "run.wal"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit,
                           match="different run configuration"):
            main(["run", "restaurant", "--scale", "0.1",
                  "--journal", str(journal), "--resume"])

    def test_journal_resume_same_config_succeeds(self, capsys, tmp_path):
        journal = tmp_path / "run.wal"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--journal", str(journal), "--resume"]) == 0
        second = capsys.readouterr().out
        assert "resuming from" in second
        # Replay is deterministic: the resumed run reports the same F1.
        f1 = [line for line in first.splitlines() if "F1" in line]
        assert f1 and f1[0] in second


class TestExecutionKnobs:
    def test_pipeline_workers_without_pipeline_rejected(self):
        """Regression: a worker count without the pipeline computed the
        same thing as no worker count, yet entered the checkpoint and
        journal fingerprints — so two equivalent runs refused to resume
        each other.  Both entry points now reject the combination."""
        from repro.experiments.runner import prepare_instance, run_method

        with pytest.raises(SystemExit,
                           match="--pipeline-workers requires --pipeline"):
            main(["run", "restaurant", "--scale", "0.05",
                  "--pipeline-workers", "2"])
        instance = prepare_instance("restaurant", "3w", scale=0.05)
        with pytest.raises(ValueError, match="pipeline_workers"):
            run_method("ACD", instance, pipeline_workers=2)

    @pytest.mark.parametrize("method",
                             ("CrowdER+", "TransM", "TransNode", "GCER"))
    def test_pipeline_rejected_for_baselines(self, method):
        """Regression: ``--pipeline`` was silently dropped for the
        baselines while the output still recorded ``"pipeline": true``.
        Only ACD and PC-Pivot run through ``run_acd``; both entry points
        now reject pipelining for anything else."""
        from repro.experiments.runner import prepare_instance, run_method

        with pytest.raises(SystemExit, match="--pipeline applies only"):
            main(["run", "restaurant", "--scale", "0.05", "--method",
                  method, "--pipeline", "--pipeline-workers", "2"])
        instance = prepare_instance("restaurant", "3w", scale=0.05)
        with pytest.raises(ValueError, match="pipeline applies only"):
            run_method(method, instance, seed=7, gcer_budget=10,
                       pipeline=True, pipeline_workers=2)

    @pytest.mark.parametrize("flag", ("--engine", "--pivot-engine",
                                      "--refine-engine"))
    def test_engine_flags_are_gone(self, flag, capsys):
        """Each phase has one production path; the reference engines
        are test oracles, not CLI choices."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "restaurant", flag,
                                       "reference"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pipeline_workers_with_pipeline_runs(self, capsys):
        assert main(["run", "restaurant", "--scale", "0.05", "--pipeline",
                     "--pipeline-workers", "2"]) == 0
        assert "F1" in capsys.readouterr().out

    def test_auto_shards_trace_writes_a_valid_manifest(self, capsys,
                                                       tmp_path):
        """``--shards auto`` is the one string-valued knob left; the
        manifest it records must pass ``repro trace validate``."""
        import json

        trace = tmp_path / "auto.trace.jsonl"
        assert main(["run", "restaurant", "--scale", "0.1",
                     "--shards", "auto", "--trace", str(trace)]) == 0
        manifest = tmp_path / "auto.trace.manifest.json"
        assert json.loads(manifest.read_text())["config"]["shards"] == "auto"
        capsys.readouterr()
        assert main(["trace", "validate", str(manifest)]) == 0
        assert "valid" in capsys.readouterr().out


class TestCheckpointCli:
    def test_checkpoint_dir_writes_phase_snapshots(self, capsys, tmp_path):
        checkpoint_dir = tmp_path / "ck"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--checkpoint-dir", str(checkpoint_dir)]) == 0
        assert (checkpoint_dir / "pruning.checkpoint.json").exists()
        assert (checkpoint_dir / "generation.checkpoint.json").exists()

    def test_resume_from_checkpoints_matches(self, capsys, tmp_path):
        checkpoint_dir = tmp_path / "ck"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--checkpoint-dir", str(checkpoint_dir)]) == 0
        first = capsys.readouterr().out
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--checkpoint-dir", str(checkpoint_dir),
                     "--resume"]) == 0
        second = capsys.readouterr().out
        assert "pruning not re-executed" in second
        # Phase restoration is byte-identical: same F1 line.
        f1 = [line for line in first.splitlines() if "F1" in line]
        assert f1 and f1[0] in second

    def test_resume_accepts_checkpoint_dir_without_journal(self, capsys,
                                                           tmp_path):
        # --resume on an empty checkpoint directory is a cold start, not
        # an error: nothing to restore, everything runs.
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--checkpoint-dir", str(tmp_path / "empty"),
                     "--resume"]) == 0

    def test_checkpoint_config_mismatch_exits_cleanly(self, capsys,
                                                      tmp_path):
        checkpoint_dir = tmp_path / "ck"
        assert main(["run", "restaurant", "--scale", "0.05",
                     "--checkpoint-dir", str(checkpoint_dir)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit,
                           match="different run configuration"):
            main(["run", "restaurant", "--scale", "0.1",
                  "--checkpoint-dir", str(checkpoint_dir), "--resume"])

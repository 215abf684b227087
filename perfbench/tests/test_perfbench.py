"""The benchmark's own tests: every workload at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import proxy  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _command(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def test_spec_metrics_have_unit_and_direction():
    names = [metric["name"]
             for section in ("end_to_end", "per_layer")
             for metric in SPEC[section]]
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert metric["unit"]
            assert metric["better"] in ("higher", "lower")
    bounds = {metric["name"]: metric["bound"]
              for metric in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_spec_names_the_benchmark_workloads():
    from workloads import WORKLOADS

    assert WORKLOAD_NAMES == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    completed = _command(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = _result(completed.stdout)
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    assert {name: value["unit"]
            for name, value in result["metrics"].items()} == expected
    env = json.loads(next(line for line in completed.stdout.splitlines()
                          if line.startswith("env: "))[len("env: "):])
    assert {"nproc", "python", "numpy", "kernel_backend",
            "git_revision"} <= set(env)
    values = {name: value["value"]
              for name, value in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
    elif workload == "largescale-pipelined":
        assert values["runtime.tasks"] > 0
        assert values["crowd.component_rounds"] > 0
    else:
        assert all(value == 0 for name, value in values.items()
                   if name.startswith("runtime."))
        assert values["crowd.calls"] > 0


def test_raising_answer_source_counts_as_failed(monkeypatch, capsys):
    def refuse(self, record_a, record_b):
        raise RuntimeError("crowd unavailable")

    monkeypatch.setattr(proxy.CountingAnswers, "confidence", refuse)
    code = run.main(["--workload", "largescale-classic", "--seed", "5",
                     "--seconds", "0", "--trace", "1", "--smoke"])
    assert code == 0
    result = _result(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 2


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _command("paper", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

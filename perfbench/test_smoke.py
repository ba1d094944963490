"""Smoke test of the benchmark itself.

Runs every workload at a few dozen poses, untraced and traced, and checks
that each metric BENCHMARK.json lists is printed with its unit and that
every correctness check passes. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stages

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--scale", "0.02")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "clean-25", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture
def handmcq_importable(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))


def test_wrapping_a_missing_entry_point_fails_and_leaves_nothing_rebound(
        handmcq_importable, monkeypatch):
    from handmcq import dataset
    original = dataset.assemble_mcq
    monkeypatch.setitem(stages.STAGES, "encode", ("call", ["handmcq.dataset._gone"]))
    tracer = stages.Tracer()
    with pytest.raises(stages.TraceError, match="_gone"):
        tracer.install()
    assert dataset.assemble_mcq is original
    assert "open" not in vars(dataset)


def test_a_stage_without_calls_fails():
    totals = {stage: {"calls": 1, "self_s": 0.1} for stage in stages.STAGES}
    stages.check_calls(totals, "clean-25")
    totals["decode"]["calls"] = 0
    with pytest.raises(stages.TraceError, match="decode"):
        stages.check_calls(totals, "clean-25")

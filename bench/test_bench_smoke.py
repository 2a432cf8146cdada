"""Tiny-size smoke runs of the benchmark.

Each workload runs at `--size smoke` in both modes; the result line must
carry exactly the metrics BENCHMARK.json names, each with its unit, and
every output check must pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(out: Path, workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = [
        sys.executable, str(cwd / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace), "--size", "smoke", "--out", str(out),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_named_metric_with_its_unit(tmp_path, workload, trace):
    proc = run_bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
        assert f"metric {name} = " in proc.stdout


def test_same_seed_gives_identical_report_digests(tmp_path):
    digests = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run_bench(out, "sim-revisit-2t", 0, seed=5).returncode == 0
        results = json.loads(
            (out / "sim-revisit-2t-seed5-trace0" / "results.json").read_text(encoding="utf-8")
        )
        assert results["environment"]["seed"] == 5
        digests.append(results["digests"])
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"report.json", "faults.csv"}


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path / "out", "replay-gcc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

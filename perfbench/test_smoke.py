"""Smoke test of the benchmark itself, at tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, shrunk, runs untraced and traced; every metric named in
BENCHMARK.json must be present with its unit, and a corrupted output must
show up as a failed operation.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "0", "--size", "tiny"]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setenv("KFMC_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_a_failed_operation(bench, workload, monkeypatch,
                                                tmp_path):
    from kfmc import cli, ose
    if workload == "ose":
        real = ose.complete_new
        monkeypatch.setattr(ose, "complete_new",
                            lambda *a, **k: real(*a, **k) + 1e-3)
    else:
        real = cli.write_matrix_csv
        monkeypatch.setattr(cli, "write_matrix_csv",
                            lambda path, X: real(path, X + 1e-3))
    record = bench.run_workload(
        bench.parse_args(["--workload", workload, "--trace", "0", *TINY]),
        tmp_path)
    assert record["correct"] is False
    assert 1 <= record["failed"] <= record["attempted"]
    assert any("observed entries changed" in f for f in record["failures"])

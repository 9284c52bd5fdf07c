"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size="tiny") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_json_matches_harness():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (name, unit) for name, unit, _target in spans.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    lines, result = _run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in workloads.WORKLOADS[workload].phases + ("failed_frac",):
        assert any(line.startswith(f"metric {name} ") for line in lines), name

    lines, result = _run(capsys, workload, trace=1)
    assert result["correct"]
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_forced_check_failure_raises_failed_frac(capsys, monkeypatch):
    _, clean = _run(capsys, "ess-scan", trace=0)
    monkeypatch.setattr(workloads, "poison_count", lambda n, epsilon: -1)
    _, broken = _run(capsys, "ess-scan", trace=0)
    assert not broken["correct"]
    assert broken["failed"] / broken["attempted"] > clean["failed"] / clean["attempted"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ess-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

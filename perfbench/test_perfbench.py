"""The benchmark's own smoke tests (minimal-length runs of every workload).

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced in ``--smoke`` mode; the
tests check the result contract, every named metric and unit, a zero error
rate, and that the traced ledger closes (rows plus ``unaccounted`` equal the
traced wall time).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from ledger import Recorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _check_contract(info: dict, result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], info["failures"]
    assert "missing" not in info, info["missing"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    info, result = _result(_run(workload, 0))
    _check_contract(info, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["traced"] is False and info["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_a_closed_ledger(workload):
    info, result = _result(_run(workload, 1))
    _check_contract(info, result, SPEC["per_layer"])
    led = info["ledger"]
    assert led["wall_s"] > 0
    assert sum(led["rows_s"].values()) + led["unaccounted_s"] == pytest.approx(
        led["wall_s"], rel=1e-9)
    # The ledger written with the spans recomputes from the spans alone.
    path = os.path.join(HERE, "out", f"trace-{workload}-seed3-trace1.json")
    with open(path, encoding="utf-8") as fh:
        written = json.load(fh)
    rec = Recorder()
    rec.spans = written["spans"]
    again = rec.ledger()
    assert again["rows_s"] == pytest.approx(written["ledger"]["rows_s"])
    assert again["unaccounted_s"] == pytest.approx(written["ledger"]["unaccounted_s"])
    assert all(s["parent"] is not None or s["name"].startswith("op.")
               for s in written["spans"])


def test_ledger_self_time_subtracts_covered_child_time():
    rec = Recorder()
    root = rec.add("op.x", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent=root)
    rec.add("b", 3.0, 6.0, parent=root)  # overlaps a: covered time is the union
    rec.lay_out(root, [("c", 3.0), ("d", 50.0)], start=8.0)
    assert rec.self_times() == pytest.approx([10.0 - 5.0 - 2.0, 3.0, 3.0, 2.0])
    led = rec.ledger()
    assert led["wall_s"] == 10.0 and led["unaccounted_s"] == pytest.approx(3.0)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

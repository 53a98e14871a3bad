"""Smoke test of the benchmark itself: a few operations per workload.

    python3 -m pytest perfbench/test_smoke.py

Checks that every end-to-end metric named in BENCHMARK.json is printed
with its unit, that a traced run emits every per-layer metric, and that
the operation ledger carries what it promises.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUTCOMES = {"exact", "budget", "ceiling", "wrong"}


def _run(workload: str, trace: int):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    ledger = [json.loads(line[len("ledger "):]) for line in lines if line.startswith("ledger ")]
    assert len(ledger) == result["attempted"]
    for rec in ledger:
        assert rec["workload"] == workload
        assert isinstance(rec["seed"], int)
        assert all(len(h) == 64 for h in rec["inputs_sha256"])
        assert rec["outcome"] in OUTCOMES or rec["outcome"].startswith("exit-")
        assert rec["latency_s"] > 0
    return lines, result, ledger


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result, _ = _run(workload, 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert printed["value"] > 0
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("fail_ratio = ") for line in lines)
    assert any(line.startswith("op_tail_s is p") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    lines, result, ledger = _run(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("trace overhead: ") for line in lines)
    for rec in ledger:
        if rec["traced"] and rec["outcome"] == "ceiling":
            assert rec["open_span"], rec

"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, through the same command the benchmark contract names.

    python3 -m pytest -q perfbench/test_smoke.py     (from the repository root)
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run(cwd, workload, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "12", "--trace", str(trace),
                              "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_at_tiny_size(workload, trace):
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, out.stdout
    assert line["attempted"] >= 1
    assert 0 <= line["failed"] <= line["attempted"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        # self times plus the time outside every span make up the wall time
        v = {k: m["value"] for k, m in line["metrics"].items()}
        self_s = sum(x for k, x in v.items() if k.endswith(".self_s"))
        assert self_s + v["bench.untraced_s"] == pytest.approx(
            v["bench.traced_wall_s"], rel=1e-9)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert out.stdout == ""

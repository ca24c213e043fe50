"""Self-test of the benchmark.

Every workload (those BENCHMARK.json lists, and mc-small) runs at tiny
size and prints every metric BENCHMARK.json names, with its unit; a
deliberately corrupted op output makes fail_ratio non-zero; without the
package sources the benchmark refuses to run.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--tiny", *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=cwd)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric(workload, trace, section):
    res = result(bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_caught(workload):
    res = result(bench(workload, 0, "--corrupt-op", "0"))
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

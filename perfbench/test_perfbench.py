"""Self-tests of the benchmark runner, at toy sizes.

    python3 -m pytest perfbench -q
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
COUNTS = ["graph.edges", "graph.edges_train", "graph.reconnected",
          "numerics.tape_nodes", "fusion.fuse_multi_head.tape_nodes",
          "gnn.sage_layer.bytes", "numerics.f64_outputs"]


def bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(res, declared):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    res = result(bench(workload, trace=0))
    assert_metrics(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first = result(bench(workload, trace=1))
    second = result(bench(workload, trace=1))
    assert_metrics(first, SPEC["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["graph.build_graph.calls"]["value"] == 3


def test_f32_dtype_audit_counts_f64_layers():
    f32 = result(bench("modality10_f32", trace=1))["metrics"]
    f64 = result(bench("cluster500", trace=1))["metrics"]
    assert 0 < f32["numerics.f64_outputs"]["value"] < \
        f64["numerics.f64_outputs"]["value"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("cluster500", trace=0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

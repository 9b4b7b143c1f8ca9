"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests take a few minutes: each runs the traced batch of
every workload twice.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, seconds, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    """Every count, fraction and computed size repeats exactly across two
    traced runs of the same seed, and the run reports every per-layer metric."""
    first, second = (result(run(workload, 11, 1, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names
    exact = [k for k in names if k.endswith((".calls", "_frac", "_mb"))]
    for k in exact:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


def test_timed_run_reports_end_to_end_metrics():
    out = result(run("analyze-deep", 0, 1, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        got = out["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("analyze-deep", 0, 1, 0, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_held_out_pools_are_disjoint():
    def seeds(pools):
        return {e["seed"] for entries in pools.values() for e in entries}

    for name, w in reference.load()["workloads"].items():
        assert seeds(w["pools"]).isdisjoint(seeds(w["held_out_pools"])), name


def test_gate_flags_changed_outputs():
    ref = reference.load()["workloads"]["analyze-deep"]
    entry = next(iter(ref["pools"].values()))[0]
    want, tol = entry["outputs"], ref["tolerance"]
    assert reference.compare(want, want, tol) == []
    moved = dict(want, aux=[v * (1.0 + 1e-6) for v in want["aux"]])
    assert reference.compare(moved, want, tol)
    assert reference.compare({k: v for k, v in want.items() if k != "aux"}, want, tol)
    nan_late = dict(want, hessians=want["hessians"][:-1] + [math.nan])
    assert reference.compare(nan_late, want, tol)

    vsw = reference.load()["workloads"]["verify-small"]
    vs = next(iter(vsw["pools"].values()))[0]["outputs"]
    assert reference.compare(dict(vs, names=vs["names"][:-1]), vs, vsw["tolerance"])

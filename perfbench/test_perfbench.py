"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload, also those BENCHMARK.json leaves out (see README.md).
WORKLOADS = sorted(workloads.WORKLOADS)


def bench(workload, trace, seed=3):
    _, result = run.run(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "tiny"])
    return result


def assert_metrics(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported(workload):
    result = bench(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert_metrics(first, SPEC["per_layer"])
    assert first["correct"] is True, "traced and untraced passes disagree"
    assert first["metrics"]["trace.uncovered"]["value"] == 0
    counts = {name for name, m in first["metrics"].items() if m["unit"] == "count"}
    assert "solvers.iters" in counts
    assert {n: first["metrics"][n] for n in counts} == {
        n: second["metrics"][n] for n in counts}


def test_same_seed_same_inputs_other_seed_other_inputs_same_problem():
    L = run.import_lpreg()
    a = workloads.Family(L, 5, "tiny", None).setup()[0][1]
    b = workloads.Family(L, 5, "tiny", None).setup()[0][1]
    c = workloads.Family(L, 6, "tiny", None).setup()[0][1]
    assert (a.A == b.A).all() and (a.b == b.b).all()
    assert not (a.A == c.A).all()
    assert np.allclose(a.A.T @ a.A, c.A.T @ c.A) and np.allclose(a.A.T @ a.b, c.A.T @ c.b)


def test_oracle_draws_its_harness_instances_from_the_seed_up_to_n3():
    L = run.import_lpreg()
    a = workloads.Oracle(L, 5, "full", None).setup()
    b = workloads.Oracle(L, 5, "full", None).setup()
    c = workloads.Oracle(L, 6, "full", None).setup()
    assert {prob.n for prob in a["harness"]} == {1, 2, 3}
    assert all((x.A == y.A).all() for x, y in zip(a["harness"], b["harness"]))
    assert all(not (x.A == y.A).all() for x, y in zip(a["harness"], c["harness"]))
    assert a["queries"] == b["queries"] != c["queries"]


def test_tail_leaves_ten_samples_beyond_it():
    assert workloads.tail(list(range(48, 0, -1))) == (38, 100.0 * 38 / 48)
    assert workloads.tail(list(range(1, 12))) == (1, 100.0 / 11)
    assert workloads.tail([2.0, 3.0]) == (3.0, 100.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_an_operation_that_never_returns_is_stopped_and_counted():
    rec = workloads.Record(op_limit_s=0.2)
    with rec.op("spin"):
        while True:
            pass
    with rec.op("quick") as check:
        check(True)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert dict(rec.failures) == {"spin:OpTimeout": 1}
    assert 0.2 <= rec.stopped_s < 5.0

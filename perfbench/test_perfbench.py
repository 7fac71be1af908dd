"""Tests of the benchmark itself, on tiny configurations (about 30 s).

    python3 -m pytest perfbench

Each workload runs in smoke mode, untraced and traced, and must print every
metric ``BENCHMARK.json`` names with its unit.  The checks must pass on
the program's real output and fail on outputs broken on purpose.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in _declared()["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    records, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(records) > 0
    assert all(r["ok"] and r["error"] is not None for r in records)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0
                   for name in ("setup_s", "wall_s", "peak_rss_mb"))


def test_traced_self_times_account_for_wall():
    _, result = _run("oracle", 1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_times = sum(v for name, v in values.items()
                     if name.endswith("_s") and not name.startswith("trace."))
    assert self_times + values["trace.unaccounted_s"] == \
        pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["trace.unaccounted_s"] < 0.01 * values["trace.wall_s"]
    assert values["reference.oracle_solves"] == 1  # second seed hits cache
    assert values["reference.oracle_sweeps"] > 0


def test_missing_sources_fail_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name),
                                            "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_declared()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the checks fail on broken outputs ---------------------------------------

def _ex1_rows(noise=1e-6):
    x = np.repeat(np.linspace(0.0, 1.0, 16), 8)
    v = np.tile(np.linspace(-1.0, 1.0, 8), 16)
    exact = 1.0 - x
    return np.column_stack([x, v, exact + noise * np.sin(7 * x), exact])


def test_ex1_dump_check():
    rows = _ex1_rows()
    error = checks.relative_l2(rows[:, 2], 1.0 - rows[:, 0])
    assert checks.check_ex1_dump(rows, error) == []
    assert checks.check_ex1_dump(rows, 2 * error)  # misreported error
    broken = rows.copy()
    broken[:, 3] += 1e-3  # reference drifted from the closed form
    assert checks.check_ex1_dump(broken, error)


def test_table_cell_checks():
    assert checks.check_table_cell("T1", 1e-16, 256, 5e-2, []) == []
    assert checks.check_table_cell("T1", 1e-16, 256, 1e-5, [])  # no stall
    assert checks.check_table_cell("T1", 1e-2, 256, 1e-5, [])  # unresolved
    assert checks.check_table_cell("T4", 1e-2, 32, 1e-6, [1e-6])
    assert checks.check_table_cell("T4", 1e-16, 64, 1e-13,
                                   [1e-16, 1e-15, 1e-14, 1e-13])  # spread
    assert checks.check_table_cell("T4", 1e-2, 8, float("nan"), [])


def _annulus_rows(noise=1e-6):
    g = np.linspace(-0.9, 0.9, 10)
    x1, x2 = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
    exact = np.exp(-x1 - x2)
    return np.column_stack([x1, x2, exact * (1 + noise * np.cos(x1)), exact])


def test_annulus_check():
    rows = _annulus_rows()
    error = checks.relative_l2(rows[:, 2], rows[:, 3])
    assert checks.check_annulus_dump(rows, error) == []
    inaccurate = _annulus_rows(noise=1e-2)
    assert checks.check_annulus_dump(
        inaccurate, checks.relative_l2(inaccurate[:, 2], inaccurate[:, 3]))


def _slab_rows(inflow=1.0):
    """Pure streaming of a left inflow through a vacuum slab: f = inflow
    for v > 0 and 0 for v < 0, everywhere; constant current and density."""
    x = np.repeat(np.linspace(0.0, 1.0, 8), 16)
    v = np.tile(np.linspace(-1.0, 1.0, 16) + 1 / 16, 8)
    f = np.where(v > 0, inflow, 0.0) * (1.0 - 1e-3 * x)
    return np.column_stack([x, v, f * (1 + 1e-3), f])


def test_slab_oracle_checks():
    rows = _slab_rows()
    error = checks.relative_l2(rows[:, 2], rows[:, 3])
    assert checks.check_slab_oracle("ex2", rows, error) == []
    growing = rows.copy()
    growing[:, 3] *= 1.0 + 0.5 * growing[:, 0]  # density rises, current too
    problems = checks.check_slab_oracle(
        "ex2", growing, checks.relative_l2(growing[:, 2], growing[:, 3]))
    assert any("current" in p for p in problems)
    assert any("decreasing" in p for p in problems)
    assert checks.check_slab_oracle("ex3", rows, error)  # above inflow 0.5


def test_square_oracle_checks():
    g = np.linspace(-0.9, 0.9, 10)
    x1, x2 = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
    rho = 1.0 - 0.5 * (x1 ** 2 + x2 ** 2)
    rows = np.column_stack([x1, x2, rho * 1.01, rho])
    error = checks.relative_l2(rows[:, 2], rows[:, 3])
    assert checks.check_square_oracle(rows, error) == []
    tilted = rows.copy()
    tilted[:, 3] += 0.1 * x2
    assert checks.check_square_oracle(tilted, error)

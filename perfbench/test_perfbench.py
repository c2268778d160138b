"""Tests of the benchmark itself, at tiny design scale.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 0.1
#: Dose ranges that each bind on the tiny AES-65 (the benchmark's own
#: ranges bind only on its larger designs).
TINY_RANGES = (0.5, 1.0, 1.5)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _tiny_sweep(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_RANGES", TINY_RANGES)


def _bench(capsys, workload, trace, seed=3):
    code = bench.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        scale=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_untraced_run_reports_the_end_to_end_metrics(capsys):
    code, result, lines = _bench(capsys, "sweep_warm", trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(next(x for x in lines if x.startswith("# env "))[6:])
    assert env["threads"] == dict.fromkeys(bench.THREAD_ENV, "1")


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run_is_complete(capsys, workload):
    if workload == "cells_jobs2" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("cells_jobs2 needs two usable cores")
    code, result, lines = _bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"], lines
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == _units("per_layer")
    value = {n: m["value"] for n, m in result["metrics"].items()}
    assert value["obs.coverage_pct"] >= bench.MIN_COVERAGE_PCT
    assert value["obs.root_wall_pct"] >= bench.MIN_ROOT_WALL_PCT
    assert any(x.startswith("#") and "obs.other_s" in x for x in lines)
    if workload == "dosepl_yield":
        assert value["solver.lu_s"] == 0 and value["solver.lu_count"] == 0


def test_cells_jobs2_is_skipped_on_one_core(monkeypatch, capsys):
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
    args = ["--workload", "cells_jobs2", "--seconds", "0"]
    assert bench.main(args, scale=TINY) == 3
    assert capsys.readouterr().out == ""


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table4_g10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_the_seed_changes_the_generated_inputs(tmp_path):
    (a,), _ = workloads.contexts(["AES-65"], TINY)
    assert not np.array_equal(workloads.seeded_dose_map(a, 1).values,
                              workloads.seeded_dose_map(a, 2).values)
    orders = {
        tuple((c.grid_size, c.mode) for c in workloads.cell_list(s, TINY))
        for s in range(1, 8)
    }
    assert len(orders) > 1
    one = workloads.dosepl_yield(1, TINY, str(tmp_path)).goldens
    two = workloads.dosepl_yield(2, TINY, str(tmp_path)).goldens
    mc = [k for k in one if k.endswith("mc mean")]
    assert mc and all(one[k] != two[k] for k in mc)


def test_checks_fire_on_a_corrupted_dmopt_result(monkeypatch, tmp_path):
    real = workloads.dmopt.optimize_dose_map

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.mct *= 0.99  # claims a better MCT than its map signs off at
        return res

    monkeypatch.setattr(workloads.dmopt, "optimize_dose_map", corrupted)
    rep = workloads.sweep_warm(1, TINY, str(tmp_path))
    assert rep.failures
    assert all("certificate" in f for f in rep.failures)


def test_checks_fire_on_a_missing_sweep_point(monkeypatch, tmp_path):
    real = workloads.sweep.dmopt_dose_range_sweep
    monkeypatch.setattr(workloads.sweep, "dmopt_dose_range_sweep",
                        lambda *a, **k: real(*a, **k)[:-1])
    rep = workloads.sweep_warm(1, TINY, str(tmp_path))
    assert any(f.startswith("sweep points") for f in rep.failures)


def test_checks_fire_when_the_sweep_stops_retargeting(monkeypatch, tmp_path):
    real = workloads.sweep.dmopt_dose_range_sweep

    def first_range_only(ctx, grid, ranges, **kwargs):
        return real(ctx, grid, ranges[:1], **kwargs) * len(ranges)

    monkeypatch.setattr(workloads.sweep, "dmopt_dose_range_sweep",
                        first_range_only)
    rep = workloads.sweep_warm(1, TINY, str(tmp_path))
    assert [f.split(":")[0] for f in rep.failures] == [
        "every sweep point signs off differently"
    ]


def test_checks_fire_on_a_bad_map_and_a_worse_dosepl(monkeypatch, tmp_path):
    real_map = workloads.seeded_dose_map
    real_dosepl = workloads.dosepl.run_dosepl

    def rough(ctx, seed):
        dose_map = real_map(ctx, seed)
        dose_map.values[0, 0] = 2 * workloads.DOSE_RANGE
        return dose_map

    def worse(*args, **kwargs):
        # returns a scrambled placement while reporting the real result
        res = real_dosepl(*args, **kwargs)
        pos = res.placement._pos
        pos.update(zip(pos, reversed(list(pos.values()))))
        return res

    monkeypatch.setattr(workloads, "seeded_dose_map", rough)
    monkeypatch.setattr(workloads.dosepl, "run_dosepl", worse)
    rep = workloads.dosepl_yield(1, TINY, str(tmp_path))
    assert any("in range and smooth" in f for f in rep.failures)
    assert any("dosePl not worse" in f for f in rep.failures)


def test_run_checks_fire_on_drifting_counts_and_goldens():
    a, b = workloads.Rep(), workloads.Rep()
    b.counters["solver.ipm_iters"] = 1
    checks = workloads.Rep()
    bench.check_repeats(checks, [a, b])
    assert checks.failures
    checks = workloads.Rep()
    reference = {"scale": TINY, "workloads": {"sweep_warm": {"x mct": 1.1}}}
    bench.check_reference(checks, "sweep_warm", TINY, {"x mct": 1.0},
                          reference)
    assert checks.failures


def test_layer_checks_fire_on_a_misplaced_solver():
    traced = [(None, {"table": [("sta.full", "sta", 2.0, 1),
                                ("solver.lu", "solver", 1.0, 3)]})]
    for workload, label in (("table4_g10", "solver is the largest layer"),
                            ("dosepl_yield", "solver does no work")):
        checks = workloads.Rep()
        bench.check_layers(checks, workload, traced)
        assert [f.split(":")[0] for f in checks.failures] == [label]


def test_a_missing_tracing_target_fails_the_run(monkeypatch, capsys):
    gone = ("repro.core.dmopt", "no_such_function", "solver.gone")
    real = tracing.installed
    monkeypatch.setattr(tracing, "installed",
                        lambda: real(tracing.TARGETS + (gone,)))
    code = bench.main(["--workload", "sweep_warm", "--seconds", "0",
                       "--trace", "1"], scale=TINY)
    out, err = capsys.readouterr()
    assert code == 1 and not json.loads(out.splitlines()[-1])["correct"]
    assert "FAILED tracing targets found" in err


def test_tracing_wraps_and_restores():
    import scipy.sparse.linalg as spla

    import repro.core.dmopt as dmopt
    import repro.solver.ipm as ipm
    from repro.sta.compiled import VectorTimingAnalyzer

    def current():
        return (dmopt.solve_qcp, ipm.spla,
                VectorTimingAnalyzer.__dict__["analyze"])

    before = current()
    with tracing.installed() as missing:
        assert not missing
        assert dmopt.solve_qcp is not before[0] and ipm.spla is not spla
    assert all(x is y for x, y in zip(before, current()))

#!/usr/bin/env python
"""DMopt formulation/solver benchmark: assembly, warm starts, sweeps.

Times three workloads and writes ``BENCH_dmopt.json`` at the repo root
so the perf trajectory is tracked across PRs (companion to
``BENCH_sta.json``):

``assembly``
    ``build_formulation`` wall clock of the block-COO builder.
    ``vector_cold`` includes the one-time per-design array extraction;
    ``vector_warm`` is the steady-state rebuild cost (what sweeps and
    retries actually pay).
``solve_warm``
    One DMopt solve cold vs re-solved warm-started from the cold
    solution (same formulation cache + IPM workspace), per mode.
``sweep``
    A dose-range sweep: independent cold solves vs the warm-chained
    serial sweep vs the multi-process harness (``run_dmopt_cells`` with
    all cores).  ``cpu_count`` is the number of cores this process may
    run on; the harness run and its ``parallel_speedup`` are recorded
    only when there are at least two, since a pool on one core measures
    its own overhead, not a speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_dmopt.py [--smoke] [--out PATH]

``--smoke`` shrinks designs and repetition counts so the whole run fits
in CI; the JSON then carries ``"smoke": true`` and is not meant for
cross-PR comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from pathlib import Path

from repro.core import DesignContext, dmopt_dose_range_sweep, optimize_dose_map
from repro.core.formulate import build_formulation
from repro.experiments.harness import DMoptCell, run_dmopt_cells
from repro.netlist.designs import make_design

REPO_ROOT = Path(__file__).resolve().parent.parent


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_assembly(design: str, scale: float, grid: float,
                   repeats: int) -> dict:
    ctx = DesignContext(make_design(design, scale=scale))
    out = {
        "design": design,
        "n_gates": ctx.netlist.n_gates,
        "grid_size": grid,
    }
    # cold: the very first vectorized build pays the per-design array
    # extraction (cached on the context afterwards)
    t0 = time.perf_counter()
    build_formulation(ctx, grid)
    out["vector_cold"] = time.perf_counter() - t0
    out["vector_warm"] = _time(lambda: build_formulation(ctx, grid), repeats)
    return out


def bench_solve_warm(design: str, scale: float, grid: float) -> dict:
    out = {"design": design, "grid_size": grid, "modes": {}}
    ctx = DesignContext(make_design(design, scale=scale))
    for mode in ("qp", "qcp"):
        t0 = time.perf_counter()
        cold = optimize_dose_map(ctx, grid, mode=mode)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = optimize_dose_map(ctx, grid, mode=mode, warm_start=cold.solve)
        t_warm = time.perf_counter() - t0
        out["modes"][mode] = {
            "cold_iterations": cold.solve.iterations,
            "warm_iterations": warm.solve.iterations,
            "cold_time": t_cold,
            "warm_time": t_warm,
            "mct": cold.mct,
            "mct_drift": abs(warm.mct - cold.mct),
            "speedup": t_cold / t_warm if t_warm > 0 else float("inf"),
        }
    return out


def bench_sweep(design: str, scale: float, grid: float, ranges: list,
                mode: str) -> dict:
    ctx = DesignContext(make_design(design, scale=scale))
    out = {
        "design": design,
        "grid_size": grid,
        "mode": mode,
        "dose_ranges": list(ranges),
        "cpu_count": len(os.sched_getaffinity(0)),
    }

    t0 = time.perf_counter()
    cold = [
        optimize_dose_map(ctx, grid, mode=mode, dose_range=r) for r in ranges
    ]
    out["serial_cold"] = time.perf_counter() - t0
    out["serial_cold_iterations"] = sum(r.solve.iterations for r in cold)

    t0 = time.perf_counter()
    chained = dmopt_dose_range_sweep(ctx, grid, ranges, mode=mode)
    out["serial_warm"] = time.perf_counter() - t0
    out["serial_warm_iterations"] = sum(r.solve.iterations for r in chained)
    out["warm_speedup"] = out["serial_cold"] / out["serial_warm"]

    if out["cpu_count"] < 2:
        return out
    cells = [
        DMoptCell(design, grid, mode=mode, dose_range=r, scale=scale)
        for r in ranges
    ]
    t0 = time.perf_counter()
    run_dmopt_cells(cells, jobs=0)  # all cores
    out["parallel_all_cores"] = time.perf_counter() - t0
    out["parallel_speedup"] = out["serial_cold"] / out["parallel_all_cores"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny designs / few repeats (CI health check)")
    ap.add_argument("--out", default=None,
                    help="output path (default: BENCH_dmopt.json at the repo "
                         "root, or BENCH_dmopt_smoke.json under --smoke so a "
                         "smoke run never clobbers the tracked numbers)")
    args = ap.parse_args(argv)
    if args.out is None:
        name = "BENCH_dmopt_smoke.json" if args.smoke else "BENCH_dmopt.json"
        args.out = str(REPO_ROOT / name)
    out_path = Path(args.out)
    if not out_path.parent.is_dir():
        ap.error(f"output directory does not exist: {out_path.parent}")

    if args.smoke:
        designs = [("AES-65", 0.3)]
        grid, repeats = 30.0, 3
        sweep_ranges = [4.0, 5.0]
    else:
        designs = [("AES-65", 1.0), ("JPEG-65", 1.0)]
        grid, repeats = 10.0, 5
        sweep_ranges = [3.0, 4.0, 5.0]

    report = {
        "smoke": args.smoke,
        "units": "seconds (median wall clock)",
        "assembly": [],
        "solve_warm": [],
        "sweep": [],
    }
    for design, scale in designs:
        r = bench_assembly(design, scale, grid, repeats)
        print(f"assembly    {design:8s} ({r['n_gates']} gates): "
              f"{r['vector_warm'] * 1e3:.1f}ms warm "
              f"({r['vector_cold'] * 1e3:.1f}ms cold)")
        report["assembly"].append(r)
    for design, scale in designs:
        r = bench_solve_warm(design, scale, grid)
        for mode, m in r["modes"].items():
            print(f"solve_warm  {design:8s} {mode}: "
                  f"cold {m['cold_iterations']} iters/{m['cold_time']:.2f}s  "
                  f"warm {m['warm_iterations']} iters/{m['warm_time']:.2f}s  "
                  f"{m['speedup']:.1f}x")
        report["solve_warm"].append(r)
    for design, scale in designs[:1]:
        r = bench_sweep(design, scale, grid, sweep_ranges, mode="qcp")
        parallel = (
            f"parallel {r['parallel_all_cores']:.2f}s"
            if "parallel_all_cores" in r
            else "parallel not run"
        )
        print(f"sweep       {design:8s} qcp x{len(sweep_ranges)}: "
              f"cold {r['serial_cold']:.2f}s  warm {r['serial_warm']:.2f}s  "
              f"{parallel} ({r['cpu_count']} cores)")
        report["sweep"].append(r)

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

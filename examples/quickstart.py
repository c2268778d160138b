#!/usr/bin/env python3
"""Quickstart: dose-map optimization of a placed design in ~20 lines.

Generates the AES-65 testcase, analyzes it, runs the paper's QCP dose-map
optimization ("minimize clock period subject to no leakage increase") on
a 5x5 um exposure grid, and reports golden signoff numbers before/after.

Run:  python examples/quickstart.py
"""

from repro.core import DesignContext, optimize_dose_map

# 1. build a placed, analyzed design (netlist + placement + STA baseline)
ctx = DesignContext("AES-65")
print(f"design   : {ctx.bundle.name} ({ctx.netlist.n_gates} gates)")
print(f"baseline : MCT {ctx.baseline.mct:.3f} ns, "
      f"leakage {ctx.baseline_leakage:.1f} uW")

# 2. optimize the poly-layer dose map: minimize the clock period subject
#    to dose range +/-5 %, smoothness delta = 2, and *no leakage increase*
result = optimize_dose_map(ctx, grid_size=5.0, mode="qcp")

# 3. golden signoff numbers (doses snapped to manufacturable 0.5 % steps)
print(f"optimized: MCT {result.mct:.3f} ns "
      f"({result.mct_improvement_pct:+.2f}%), "
      f"leakage {result.leakage:.1f} uW "
      f"({result.leakage_improvement_pct:+.2f}%)")
print(f"solver   : {result.solve.status} in {result.runtime:.1f} s "
      f"({result.solve.iterations} solver iterations)")

# 4. the dose map itself is a grid of delta-dose percentages
dm = result.dose_map_poly
print(f"dose map : {dm.partition.m}x{dm.partition.n} grids, "
      f"range [{dm.values.min():+.1f}, {dm.values.max():+.1f}] %, "
      f"equipment-feasible: {dm.is_feasible()}")

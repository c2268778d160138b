"""Corner-aware dose map optimization.

The paper characterizes and optimizes at a single PVT point (TT, nominal
VDD, 25 C).  Production signoff is multi-corner: timing is binding at the
slow corner (SS, low V, hot) while leakage is binding at the fast corner
(FF, high V, hot).  Because the dose map is *one* physical artifact
applied at exposure time, it must satisfy both corners simultaneously.

This module composes the existing machinery: it derives per-corner design
contexts (same netlist + placement, corner-characterized libraries) and
solves the QCP with timing rows built from the slow-corner analysis and
the delta-leakage quadratic fitted at the leakage corner.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.core.formulate import build_formulation
from repro.core.model import DesignContext
from repro.core.snap import SNAP_NEAREST, snap_dose_map
from repro.library import CellLibrary
from repro.solver import solve_qcp
from repro.tech import corner_node


def corner_context(ctx: DesignContext, node) -> DesignContext:
    """A sibling context at a PVT corner: same netlist and placement,
    library re-characterized on the corner node."""
    corner_lib = CellLibrary(
        node,
        dose_sensitivity=ctx.library.dose_sensitivity,
        dose_range=ctx.library.dose_range,
    )
    bundle = dataclasses.replace(ctx.bundle, library=corner_lib)
    return DesignContext(
        bundle, placement=ctx.placement, fit_width=ctx.fit_width
    )


@dataclass
class CornerAwareResult:
    """Outcome of the two-corner QCP.

    Timing numbers are at the slow corner; leakage numbers at the
    leakage corner; the dose map is the single shared artifact.
    """

    dose_map_poly: object
    slow_mct: float
    slow_mct_baseline: float
    leak_corner_leakage: float
    leak_corner_baseline: float
    solve: object
    runtime: float

    @property
    def mct_improvement_pct(self) -> float:
        return (
            (self.slow_mct_baseline - self.slow_mct)
            / self.slow_mct_baseline
            * 100.0
        )

    @property
    def leakage_improvement_pct(self) -> float:
        return (
            (self.leak_corner_baseline - self.leak_corner_leakage)
            / self.leak_corner_baseline
            * 100.0
        )


def optimize_dose_map_corners(
    ctx: DesignContext,
    grid_size: float,
    slow=None,
    leaky=None,
    leakage_budget: float = 0.0,
    leakage_guard: float = 0.01,
) -> CornerAwareResult:
    """Minimize slow-corner MCT s.t. a leak-corner leakage budget.

    Parameters
    ----------
    ctx:
        The nominal design context (supplies netlist + placement).
    slow, leaky:
        Corner :class:`~repro.tech.node.TechNode` objects; default to
        SS/0.9 V/125 C and FF/1.1 V/125 C derived from the design's node.
    leakage_budget:
        Allowed leak-corner leakage increase (uW).
    """
    t_start = time.perf_counter()
    node = ctx.library.node
    if slow is None:
        slow = corner_node(node, "SS", vdd_scale=0.9, temperature_c=125.0)
    if leaky is None:
        leaky = corner_node(node, "FF", vdd_scale=1.1, temperature_c=125.0)

    ctx_slow = corner_context(ctx, slow)
    ctx_leak = corner_context(ctx, leaky)

    # timing rows from the slow corner; leakage quadratic from the
    # leakage corner (same grid assignment: shared placement).  Both are
    # full programs, so the two have the same columns: a pruned slow
    # corner would have fewer than the leak corner's quadratic
    form = build_formulation(ctx_slow, grid_size)
    form_leak = build_formulation(ctx_leak, grid_size)
    assert form.gate_order == form_leak.gate_order

    c = np.zeros(form.n_vars)
    c[form.idx_T] = 1.0
    budget = leakage_budget - leakage_guard * ctx_leak.baseline_leakage
    solve = solve_qcp(
        c,
        form.A,
        form.l,
        form.u,
        form_leak.P_leak,
        form_leak.q_leak,
        s=budget,
    )
    if not solve.ok:
        # sign off only a converged solve: hand back the untouched
        # baseline (zero delta doses), as optimize_dose_map does
        poly, _active, _t = form.split(np.zeros(form.n_vars))
        slow_mct = ctx_slow.baseline.mct
        leak = ctx_leak.baseline_leakage
    else:
        poly, _active, _t = form.split(solve.x)
        poly = snap_dose_map(poly, ctx.library, mode=SNAP_NEAREST)
        slow_mct = ctx_slow.golden_eval(poly)[0].mct
        leak = ctx_leak.golden_eval(poly)[1]
    return CornerAwareResult(
        dose_map_poly=poly,
        slow_mct=slow_mct,
        slow_mct_baseline=ctx_slow.baseline.mct,
        leak_corner_leakage=leak,
        leak_corner_baseline=ctx_leak.baseline_leakage,
        solve=solve,
        runtime=time.perf_counter() - t_start,
    )

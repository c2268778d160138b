"""Per-cell gate-length biasing baseline (Gupta et al., TCAD 2006).

The paper positions DMopt against gate-length biasing: "Optimization of
gate CDs according to setup or hold timing (non-)criticality has been
used by [4].  What we propose below uses a coarser knob (i.e., the dose
map) ... but has the advantage of not requiring any change to the mask or
OPC flows" (Section I, footnote 2).

This module implements that finer-grained baseline: every *cell instance*
independently receives a gate-length bias from the discrete characterized
variant set (no dose-map grid, no smoothness constraint -- it is a mask
change, not an exposure recipe).  The classic sensitivity-driven greedy of
[4]: repeatedly bias up (lengthen) the instance with the best
leakage-savings-per-timing-cost ratio among those whose slack can absorb
the cost, with golden re-analysis checkpoints.

Comparing its results with DMopt quantifies what the dose map's
equipment constraints cost -- and what skipping a mask respin buys.

The golden re-analysis checkpoints hit ``ctx.analyzer.analyze`` with a
slightly different dose dict each iteration; the STA engine re-times
those calls incrementally (only the biased cells' fanout cones are
re-propagated), which is what makes the per-cell greedy affordable at
design scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.power import total_leakage


@dataclass
class GLBiasResult:
    """Outcome of per-cell gate-length biasing.

    ``doses`` maps every gate to its (poly-equivalent dose %, 0.0); the
    dose encoding keeps the result directly comparable with dose maps
    (dose -x%  <=>  +2x nm of gate length at Ds = -2 nm/%).
    """

    doses: dict
    mct: float
    leakage: float
    baseline_mct: float
    baseline_leakage: float
    n_biased: int
    passes: int
    runtime: float

    @property
    def mct_improvement_pct(self) -> float:
        return (self.baseline_mct - self.mct) / self.baseline_mct * 100.0

    @property
    def leakage_improvement_pct(self) -> float:
        return (
            (self.baseline_leakage - self.leakage)
            / self.baseline_leakage
            * 100.0
        )


def _snapped(lib, doses) -> dict:
    """Per-gate (snapped poly dose, 0) for a (poly, active) dose dict."""
    poly = lib.snap_dose(np.array([dp for dp, _da in doses.values()]))
    return dict(zip(doses, ((dp, 0.0) for dp in poly.tolist())))


def bias_gate_lengths(
    ctx,
    timing_bound: float = None,
    bias_step: float = -0.5,
    max_bias: float = -5.0,
    max_passes: int = 12,
    slack_guard: float = 0.002,
) -> GLBiasResult:
    """Greedy leakage-driven per-cell gate-length biasing.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`.
    timing_bound:
        Clock bound to preserve (default: baseline MCT).
    bias_step:
        Dose-equivalent bias per move (%, negative = longer gate); the
        default -0.5 % equals +1 nm at Ds = -2.
    max_bias:
        Largest cumulative dose-equivalent bias per cell.
    max_passes:
        Golden re-analysis rounds; each pass biases every cell whose
        slack can absorb the estimated delay cost.
    slack_guard:
        Fraction of the clock bound kept as slack margin so estimation
        error cannot create violations.
    """
    if bias_step >= 0 or max_bias >= 0:
        raise ValueError("biasing lengthens gates: steps must be negative")
    t_start = time.perf_counter()
    nl = ctx.netlist
    lib = ctx.library
    tau = ctx.baseline.mct if timing_bound is None else float(timing_bound)
    guard = slack_guard * tau

    doses = {g: (0.0, 0.0) for g in nl.gates}
    result = ctx.analyzer.analyze(doses=doses, clock_period=tau)
    ds = lib.dose_sensitivity
    passes = 0

    # longest-path gate count through each gate: a move's slack budget is
    # shared by every gate on its worst path, so a pass may only consume
    # slack[g] / depth_through[g] per gate -- conservative, but golden
    # re-analysis between passes restores the unconsumed slack.  Gates
    # up to and including g number graph.level + 1; `down` counts g and
    # the gates below it, from one pass in reverse graph (topological)
    # order.
    graph = ctx.timing_graph
    down = [1] * graph.n
    for gid in reversed(range(graph.n)):
        for succ in graph.comb_fanout[gid]:
            down[gid] = max(down[gid], 1 + down[succ])
    depth_through = dict(zip(graph.names, (graph.level + down).tolist()))

    for _pass in range(max_passes):
        passes += 1
        moved = 0
        for g in nl.gates:
            cur = doses[g][0]
            if cur <= max_bias:
                continue
            fit = ctx.delay_fit_for(g)
            delay_cost = fit.a * ds * bias_step  # > 0: slower
            if result.slack[g] - guard <= delay_cost * depth_through[g]:
                continue
            doses[g] = (cur + bias_step, 0.0)
            moved += 1
        if moved == 0:
            break
        result = ctx.analyzer.analyze(
            doses=_snapped(lib, doses), clock_period=tau
        )

    # safety trim: while the bound is violated, un-bias cells that sit on
    # violating paths (negative slack), one step per round
    for _trim in range(20):
        if result.worst_slack >= 0:
            break
        for g in nl.gates:
            if result.slack[g] < 0 and doses[g][0] < 0:
                doses[g] = (min(doses[g][0] - bias_step, 0.0), 0.0)
        result = ctx.analyzer.analyze(
            doses=_snapped(lib, doses), clock_period=tau
        )

    final_doses = _snapped(lib, doses)
    final = ctx.analyzer.analyze(doses=final_doses)
    leak = total_leakage(nl, lib, final_doses)
    return GLBiasResult(
        doses=final_doses,
        mct=final.mct,
        leakage=leak,
        baseline_mct=ctx.baseline.mct,
        baseline_leakage=ctx.baseline_leakage,
        n_biased=sum(1 for dp, _da in final_doses.values() if dp < 0),
        passes=passes,
        runtime=time.perf_counter() - t_start,
    )

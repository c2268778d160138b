"""Tests for corner-aware dose map optimization."""

import numpy as np
import pytest

import repro.core.corners as corners
from repro.core import (
    DesignContext,
    corner_context,
    optimize_dose_map_corners,
)
from repro.netlist import make_design
from repro.solver import FAILURE_STATUSES, STATUS_MAX_ITER, SolveResult
from repro.tech import corner_node


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


@pytest.fixture(scope="module")
def result(ctx):
    return optimize_dose_map_corners(ctx, grid_size=10.0)


class TestCornerContext:
    def test_shares_geometry(self, ctx):
        slow = corner_node(ctx.library.node, "SS", 0.9, 125.0)
        cc = corner_context(ctx, slow)
        assert cc.placement is ctx.placement
        assert cc.netlist is ctx.netlist
        assert cc.library.node.name != ctx.library.node.name

    def test_slow_corner_is_slower(self, ctx):
        slow = corner_node(ctx.library.node, "SS", 0.9, 125.0)
        cc = corner_context(ctx, slow)
        assert cc.baseline.mct > ctx.baseline.mct

    def test_leak_corner_is_leakier(self, ctx):
        leaky = corner_node(ctx.library.node, "FF", 1.1, 125.0)
        cc = corner_context(ctx, leaky)
        assert cc.baseline_leakage > ctx.baseline_leakage


class TestCornerAwareDMopt:
    def test_slow_corner_timing_improves(self, result):
        assert result.slow_mct < result.slow_mct_baseline
        assert result.mct_improvement_pct > 1.0

    def test_leak_corner_budget_respected(self, result):
        assert result.leak_corner_leakage <= (
            result.leak_corner_baseline * 1.02
        )

    def test_dose_map_feasible(self, result):
        assert result.dose_map_poly.is_feasible()

    def test_solver_converged(self, result):
        assert result.solve.ok

    def test_nominal_corner_also_benefits(self, ctx, result):
        """The one physical map helps at the nominal corner too (all
        corners share the criticality structure)."""
        golden, leak = ctx.golden_eval(result.dose_map_poly)
        assert golden.mct < ctx.baseline.mct
        assert leak < ctx.baseline_leakage * 1.03

    @pytest.mark.parametrize("status", FAILURE_STATUSES + (STATUS_MAX_ITER,))
    def test_failed_solve_returns_baseline(self, ctx, monkeypatch, status):
        """An unconverged solve (``max_iter`` included) is never signed
        off: its nonzero iterate is neither snapped nor golden-evaluated,
        and the untouched baseline comes back, as from
        ``optimize_dose_map``."""

        def failed(c, *args, **kwargs):
            return SolveResult(status=status, x=np.full(c.size, 3.0),
                               obj=3.0, iterations=60, r_prim=1.0,
                               r_dual=1.0, solve_time=0.0)

        monkeypatch.setattr(corners, "solve_qcp", failed)
        res = optimize_dose_map_corners(ctx, grid_size=10.0)
        assert res.solve.status == status
        assert not res.dose_map_poly.values.any()
        assert res.slow_mct == res.slow_mct_baseline
        assert res.leak_corner_leakage == res.leak_corner_baseline

"""Integration tests for DMopt (QP and QCP dose-map optimization)."""

import dataclasses

import numpy as np
import pytest

import repro.core.dmopt as dmopt
from repro.core import DesignContext, optimize_dose_map
from repro.core.snap import SNAP_CEIL, SNAP_FLOOR, SNAP_NEAREST, snap_dose_map
from repro.dosemap import DoseMap, GridPartition
from repro.library import CellLibrary
from repro.netlist import make_design
from repro.solver import (
    FAILURE_STATUSES,
    STATUS_DIVERGED,
    STATUS_ILL_CONDITIONED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    SolveResult,
    solve_qp,
)


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


@pytest.fixture(scope="module")
def ctx_w():
    return DesignContext(make_design("AES-65", scale=0.25), fit_width=True)


@pytest.fixture(scope="module")
def qp_result(ctx):
    return optimize_dose_map(ctx, grid_size=10.0, mode="qp")


@pytest.fixture(scope="module")
def qcp_result(ctx):
    return optimize_dose_map(ctx, grid_size=10.0, mode="qcp")


class TestQPMode:
    def test_leakage_improves(self, ctx, qp_result):
        """The headline QP claim: leakage reduction without timing loss."""
        assert qp_result.leakage < ctx.baseline_leakage
        assert qp_result.leakage_improvement_pct > 2.0

    def test_timing_not_degraded(self, ctx, qp_result):
        assert qp_result.mct <= ctx.baseline.mct * 1.002

    def test_solver_converged(self, qp_result):
        assert qp_result.solve.ok

    def test_dose_map_is_equipment_feasible(self, qp_result):
        """Constraints (3)-(4): range and smoothness after snapping."""
        dm = qp_result.dose_map_poly
        assert dm.range_violations(5.0) <= 0.25 + 1e-9  # snap can add 1/2 step
        assert dm.smoothness_violations(2.0) <= 0.5 + 1e-9

    def test_doses_on_variant_grid(self, qp_result, ctx):
        doses = qp_result.dose_map_poly.values
        assert np.allclose(doses * 2, np.round(doses * 2))

    def test_noncritical_regions_get_negative_dose(self, qp_result):
        """Leakage reduction comes from lowering dose somewhere."""
        assert qp_result.dose_map_poly.values.min() < -0.4


class TestQCPMode:
    def test_timing_improves(self, ctx, qcp_result):
        """The headline QCP claim: MCT reduction without leakage increase."""
        assert qcp_result.mct < ctx.baseline.mct
        assert qcp_result.mct_improvement_pct > 1.0

    def test_leakage_within_budget(self, ctx, qcp_result):
        # golden leakage stays near baseline (small model/snap slack ok)
        assert qcp_result.leakage <= ctx.baseline_leakage * 1.02

    def test_critical_regions_get_positive_dose(self, qcp_result):
        assert qcp_result.dose_map_poly.values.max() > 0.4

    def test_multiplier_positive(self, qcp_result):
        assert qcp_result.solve.info["lam"] > 0

    def test_predicted_T_close_to_golden(self, qcp_result):
        assert qcp_result.predicted_T == pytest.approx(
            qcp_result.mct, rel=0.05
        )


class TestQCPInactiveBudget:
    def test_least_leakage_on_the_optimal_face(self):
        """JPEG-65 at 5 um, the Table IV cell whose leakage row is
        inactive at the default budget: every point of the T-optimal
        face is optimal, and the solver returns the least-leakage one,
        so golden leakage stays under baseline (a point near the budget
        lands above it once the quadratic model's error is added)."""
        ctx = DesignContext(make_design("JPEG-65"))
        res = optimize_dose_map(ctx, grid_size=5.0, mode="qcp")
        assert res.solve.ok and res.solve.info["lam"] == 0.0
        assert res.predicted_delta_leakage < -0.05 * ctx.baseline_leakage
        assert res.leakage <= ctx.baseline_leakage
        assert res.mct < ctx.baseline.mct


class TestModesAndOptions:
    def test_invalid_mode(self, ctx):
        with pytest.raises(ValueError, match="mode"):
            optimize_dose_map(ctx, 10.0, mode="lp")

    def test_finer_grid_not_worse(self, ctx):
        coarse = optimize_dose_map(ctx, grid_size=30.0, mode="qp")
        fine = optimize_dose_map(ctx, grid_size=5.0, mode="qp")
        # paper: finer grids give more improvement (allow small tolerance)
        assert (
            fine.leakage_improvement_pct
            >= coarse.leakage_improvement_pct - 0.5
        )

    def test_tighter_smoothness_less_improvement(self, ctx):
        loose = optimize_dose_map(ctx, grid_size=10.0, mode="qp", smoothness=2.0)
        tight = optimize_dose_map(ctx, grid_size=10.0, mode="qp", smoothness=0.25)
        assert (
            tight.leakage_improvement_pct
            <= loose.leakage_improvement_pct + 0.5
        )

    def test_zero_range_is_noop(self, ctx):
        """With no dose freedom (and tau = baseline so the problem stays
        feasible), the optimizer must return the unchanged design."""
        res = optimize_dose_map(
            ctx, grid_size=10.0, mode="qp", dose_range=0.0,
            timing_bound=ctx.baseline.mct,
        )
        assert res.mct == pytest.approx(ctx.baseline.mct, rel=1e-9)
        assert res.leakage == pytest.approx(ctx.baseline_leakage, rel=1e-9)

    def test_infeasible_timing_bound_detected(self, ctx):
        """A clock bound below what max dose can reach is infeasible;
        the solver must flag it rather than return a clean status."""
        res = optimize_dose_map(
            ctx, grid_size=10.0, mode="qp", dose_range=0.0,
            timing_bound=ctx.baseline.mct * 0.5,
        )
        assert not res.solve.ok

    @pytest.mark.parametrize("status", FAILURE_STATUSES + (STATUS_MAX_ITER,))
    def test_unconverged_solve_returns_baseline(self, ctx, monkeypatch,
                                                status):
        """Only a converged solve is signed off: an unconverged iterate
        (``max_iter`` included) is neither snapped nor golden-evaluated,
        and the untouched baseline comes back."""

        def unconverged(c, *args, **kwargs):
            return SolveResult(status=status, x=np.full(c.size, 3.0),
                               obj=3.0, iterations=60, r_prim=1.0,
                               r_dual=1.0, solve_time=0.0)

        monkeypatch.setattr(dmopt, "solve_qcp", unconverged)
        res = optimize_dose_map(ctx, grid_size=10.0, mode="qcp")
        assert res.status == status
        assert not res.dose_map_poly.values.any()
        assert res.mct == ctx.baseline.mct
        assert res.leakage == ctx.baseline_leakage

    def test_both_layers_qcp(self, ctx_w):
        poly = optimize_dose_map(ctx_w, 10.0, mode="qcp", both_layers=False)
        both = optimize_dose_map(ctx_w, 10.0, mode="qcp", both_layers=True)
        assert both.dose_map_active is not None
        # paper: both-layer is at most slightly different from poly-only
        assert both.mct == pytest.approx(poly.mct, rel=0.05)

    def test_admm_backend_matches_ipm(self, ctx):
        """The chain's last resort, ADMM at its defaults, signs off the
        guarded G=30 QP at the IPM's golden leakage."""
        tau = ctx.baseline.mct * (1.0 - 0.005)  # the default timing guard
        ipm = optimize_dose_map(ctx, grid_size=30.0, mode="qp",
                                timing_bound=tau)
        form = ipm.formulation
        u = form.u.copy()
        u[form.row_clock] = tau
        admm = solve_qp(form.P_leak, form.q_leak, form.A, form.l, u)
        assert admm.ok
        poly, active, _ = form.split(admm.x)
        poly = snap_dose_map(poly, ctx.library, mode=SNAP_CEIL)
        _, leakage = ctx.golden_eval(poly, active)
        assert leakage == pytest.approx(ipm.leakage, rel=0.02)

    def test_leakage_budget_relaxation_buys_speed(self, ctx):
        tight = optimize_dose_map(ctx, 10.0, mode="qcp", leakage_budget=0.0)
        loose = optimize_dose_map(
            ctx, 10.0, mode="qcp",
            leakage_budget=0.3 * ctx.baseline_leakage,
        )
        assert loose.mct <= tight.mct + 1e-6


class TestFailureDiagnosis:
    """Only an infeasible verdict is attributed to a constraint family."""

    @pytest.mark.parametrize(
        "mode, solver", [("qp", "solve_qp_robust"), ("qcp", "solve_qcp")]
    )
    @pytest.mark.parametrize(
        "status", [STATUS_MAX_ITER, STATUS_DIVERGED, STATUS_ILL_CONDITIONED]
    )
    def test_stopped_solve_blames_no_family(self, ctx, monkeypatch, mode,
                                            solver, status):
        """The real solution of a feasible program, reported as stopped:
        every relaxation probe would succeed, so a diagnosis would name
        a family that does not block.  The status speaks instead."""
        real = getattr(dmopt, solver)

        def stopped(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), status=status)

        monkeypatch.setattr(dmopt, solver, stopped)
        res = optimize_dose_map(ctx, grid_size=10.0, mode=mode)
        assert res.status == status
        assert res.infeasibility is None
        assert "blocking" not in repr(res)
        assert res.mct == ctx.baseline.mct
        assert not res.dose_map_poly.values.any()

    def test_infeasible_verdict_is_diagnosed(self, ctx):
        res = optimize_dose_map(
            ctx, grid_size=10.0, mode="qp", dose_range=0.0,
            timing_bound=ctx.baseline.mct * 0.5,
        )
        assert res.status == STATUS_INFEASIBLE
        assert "timing" in res.infeasibility.blocking


class TestSnapModes:
    def _map(self):
        part = GridPartition(20.0, 20.0, 10.0)
        return DoseMap(part, values=np.full((part.m, part.n), 1.13))

    def test_nearest(self):
        lib = CellLibrary("65nm")
        out = snap_dose_map(self._map(), lib, SNAP_NEAREST)
        assert np.all(out.values == 1.0)

    def test_ceil(self):
        lib = CellLibrary("65nm")
        out = snap_dose_map(self._map(), lib, SNAP_CEIL)
        assert np.all(out.values == 1.5)

    def test_floor(self):
        lib = CellLibrary("65nm")
        out = snap_dose_map(self._map(), lib, SNAP_FLOOR)
        assert np.all(out.values == 1.0)

    def test_ceil_clips_at_range(self):
        lib = CellLibrary("65nm")
        part = GridPartition(20.0, 20.0, 10.0)
        dm = DoseMap(part, values=np.full((part.m, part.n), 4.9))
        out = snap_dose_map(dm, lib, SNAP_CEIL)
        assert np.all(out.values == 5.0)

    def test_unknown_mode(self):
        lib = CellLibrary("65nm")
        with pytest.raises(ValueError, match="snap mode"):
            snap_dose_map(self._map(), lib, "stochastic")


class TestSeamSmoothness:
    def test_seamed_map_tiles_feasibly(self, ctx):
        """With seam constraints, the tiled multi-die field respects the
        scanner smoothness limit everywhere (paper Sec. II-B)."""
        res = optimize_dose_map(ctx, grid_size=10.0, mode="qcp",
                                seam_smoothness=True)
        field = res.dose_map_poly.tiled(2, 2)
        # allow one snap step of slack on top of delta=2
        assert field.smoothness_violations(2.0) <= 0.5 + 1e-9

    def test_seam_constraints_cost_little(self, ctx):
        free = optimize_dose_map(ctx, grid_size=10.0, mode="qcp")
        seamed = optimize_dose_map(ctx, grid_size=10.0, mode="qcp",
                                   seam_smoothness=True)
        # the continuous optimum can only get worse under extra rows,
        # but golden results differ by at most solver tolerance and snap
        # noise -- the observable claim is that seam feasibility is
        # near-free
        assert seamed.mct == pytest.approx(free.mct, rel=0.02)
        assert seamed.mct_improvement_pct > 0.5 * free.mct_improvement_pct

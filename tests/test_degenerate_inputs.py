"""Degenerate-input coverage: diagnostics instead of tracebacks.

The robustness contract (solver fallback chain + prevalidation): no
uncaught exception escapes ``repro.solver``, ``core.dmopt`` or
``core.dosepl`` for infeasible, degenerate, or ill-conditioned inputs --
every such input yields a diagnostic :class:`SolveResult` (or a clear,
early ``ValueError`` for caller bugs like dimension mismatches).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import DesignContext, DoseplConfig, optimize_dose_map
from repro.library import CellLibrary
from repro.netlist import Netlist, make_design
from repro.netlist.designs import DesignBundle
from repro.placement import Die
from repro.solver import (
    FAMILY_LEAKAGE_BUDGET,
    FAMILY_TIMING,
    STATUS_INFEASIBLE,
    solve_qcp,
    solve_qp,
    solve_qp_ipm,
    solve_qp_robust,
)


class TestSolverDegenerates:
    """Both backends and the chain accept pathological problem data."""

    def test_crossed_bounds_qp(self):
        res = solve_qp(sp.eye(2), np.zeros(2), sp.eye(2),
                       np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert res.info["n_bound_conflicts"] == 1
        assert res.info["worst_row"] == 1

    def test_crossed_bounds_ipm(self):
        res = solve_qp_ipm(sp.eye(2), np.zeros(2), sp.eye(2),
                           np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert not res.ok

    def test_crossed_bounds_robust_not_retried(self):
        """Infeasible data must not burn fallback attempts."""
        res = solve_qp_robust(sp.eye(1), np.zeros(1), sp.eye(1),
                              np.array([2.0]), np.array([1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert len(res.info["attempts"]) == 1

    def test_all_infinite_rows_solved_unconstrained(self):
        """+-inf on every row: effectively unconstrained, still answered."""
        n = 3
        l = np.full(n, -np.inf)
        u = np.full(n, np.inf)
        for solver in (solve_qp, solve_qp_ipm):
            res = solver(sp.eye(n), np.array([-1.0, 2.0, 0.5]),
                         sp.eye(n), l, u)
            assert res.ok
            assert np.allclose(res.x, [1.0, -2.0, -0.5], atol=1e-6)
            assert "unconstrained" in res.info["note"]

    def test_empty_constraint_matrix(self):
        """m = 0 rows: unconstrained minimum, no raise."""
        A = sp.csc_matrix((0, 2))
        res = solve_qp_ipm(sp.eye(2), np.array([1.0, -1.0]), A,
                           np.zeros(0), np.zeros(0))
        assert res.ok
        assert np.allclose(res.x, [-1.0, 1.0], atol=1e-6)

    def test_dimension_mismatch_still_raises(self):
        """Caller bugs (not problem data) keep raising ValueError."""
        with pytest.raises(ValueError, match="dimensions"):
            solve_qp_robust(sp.eye(2), np.zeros(3), sp.eye(2),
                            np.zeros(2), np.ones(2))


def _tiny_ctx():
    return DesignContext(make_design("AES-65", scale=0.3))


class TestDMoptDegenerates:
    def test_one_by_one_dose_grid(self):
        """Grid coarser than the die: a single dose variable still works."""
        ctx = _tiny_ctx()
        die = ctx.placement.die
        res = optimize_dose_map(ctx, max(die.width, die.height) * 2, mode="qp")
        assert res.formulation.partition.m == 1
        assert res.formulation.partition.n == 1
        assert res.solve is not None  # diagnostic or solved, never a raise

    def test_combinational_only_netlist(self):
        """No flip-flops: MCT is the max PI->PO arrival; DMopt still runs."""
        lib = CellLibrary("65nm")
        nl = Netlist("comb")
        nl.add_primary_input("a")
        nl.add_primary_input("b")
        nl.add_gate("u1", "NAND2X1", ["a", "b"], "n1")
        nl.add_gate("u2", "INVX1", ["n1"], "y")
        nl.add_primary_output("y")
        bundle = DesignBundle(name="comb", netlist=nl, library=lib,
                              die_width=20.0, die_height=20.0)
        ctx = DesignContext(bundle)
        res = optimize_dose_map(ctx, 30.0, mode="qp")
        assert res.solve is not None
        if res.ok:
            assert res.mct <= res.baseline_mct + 1e-9

    def test_empty_netlist_diagnosed_early(self):
        """Zero gates: one clear ValueError, not a deep numpy error."""
        lib = CellLibrary("65nm")
        nl = Netlist("empty")
        nl.add_primary_input("a")
        nl.add_primary_output("a")
        bundle = DesignBundle(name="empty", netlist=nl, library=lib,
                              die_width=10.0, die_height=10.0)
        with pytest.raises(ValueError, match="no gates"):
            DesignContext(bundle)

    def test_unachievable_timing_bound(self):
        """tau far below tau_min: infeasible verdict with the slack needed."""
        ctx = _tiny_ctx()
        tau = ctx.baseline.mct * 0.1  # no dose map can deliver a 10x speedup
        res = optimize_dose_map(ctx, 30.0, mode="qp", timing_bound=tau)
        assert not res.ok
        assert res.status == STATUS_INFEASIBLE
        # graceful degradation: baseline numbers, zero delta doses
        assert res.mct == ctx.baseline.mct
        assert res.leakage == ctx.baseline_leakage
        assert np.allclose(res.dose_map_poly.values, 0.0)
        # the diagnosis names timing and quantifies the concession
        report = res.infeasibility
        assert report is not None
        assert FAMILY_TIMING in report.blocking
        assert report.tau_min is not None
        assert report.tau_min > tau
        assert report.tau_slack_needed == pytest.approx(
            report.tau_min - tau, abs=1e-9
        )
        assert "tau" in report.summary()

    def test_unattainable_leakage_budget(self):
        """A QCP budget of 10 % of baseline leakage: no dose map reaches
        it, so the verdict is infeasible, the baseline comes back, and
        the diagnosis names the leakage budget -- not the linear
        families, which the linear probes find feasible."""
        ctx = DesignContext(make_design("AES-65", scale=0.1))
        res = optimize_dose_map(ctx, 10.0, mode="qcp",
                                leakage_budget=-0.9 * ctx.baseline_leakage)
        assert res.status == STATUS_INFEASIBLE
        assert res.mct == ctx.baseline.mct
        assert res.leakage == ctx.baseline_leakage
        assert np.allclose(res.dose_map_poly.values, 0.0)
        report = res.infeasibility
        assert report is not None
        assert report.blocking == [FAMILY_LEAKAGE_BUDGET]
        assert report.tau_requested is None
        assert repr(res) == (
            "DMoptResult(qcp, infeasible: blocking families "
            "['leakage_budget'])"
        )


@pytest.fixture(scope="module")
def small_ctx():
    return DesignContext(make_design("AES-65", scale=0.2))


NAN, INF = float("nan"), float("inf")


class TestArgumentValidation:
    """Bad bounds and budgets fail at entry with the argument's name;
    before, most of them solved silently to a wrong dose map."""

    @pytest.mark.parametrize(
        "mode, name, value",
        [
            ("qcp", "dose_range", NAN),
            ("qcp", "dose_range", -1.0),
            ("qcp", "dose_range", INF),
            ("qcp", "smoothness", NAN),
            ("qcp", "smoothness", -0.5),
            ("qcp", "leakage_budget", NAN),
            ("qcp", "leakage_budget", INF),
            ("qcp", "leakage_budget", -INF),
            ("qp", "timing_bound", -1.0),
            ("qp", "timing_bound", 0.0),
            ("qp", "timing_bound", NAN),
            ("qp", "timing_bound", INF),
        ],
    )
    def test_bad_bound_or_budget(self, small_ctx, mode, name, value):
        with pytest.raises(ValueError, match=name):
            optimize_dose_map(small_ctx, 30.0, mode=mode, **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("s", NAN), ("s", INF), ("s", -INF),
         ("c", np.ones(3)), ("c", np.ones((2, 1))),
         ("g", np.zeros(1)), ("Q", sp.eye(3)), ("Q", sp.eye(2, 3))],
    )
    def test_bad_qcp_budget_or_shape(self, name, value):
        """A non-finite budget has no feasible point to return, and a
        misshapen argument fails at entry, not deep in numpy."""
        args = dict(c=np.array([-1.0, -1.0]), A=sp.eye(2, format="csc"),
                    l=np.zeros(2), u=np.full(2, 2.0),
                    Q=sp.eye(2, format="csc"), g=np.zeros(2), s=0.5)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} "):
            solve_qcp(**args)

    @pytest.mark.parametrize("scale", [NAN, INF, 0.0, -1.0])
    def test_bad_design_scale(self, scale):
        """0 and -1 used to build a two-lane design silently (under a
        cache key of their own), and NaN/Inf failed without naming
        the argument."""
        with pytest.raises(ValueError, match="scale"):
            make_design("AES-65", scale=scale)

    @pytest.mark.parametrize("grid_size", [NAN, INF, 0.0, -5.0])
    def test_bad_grid_size(self, small_ctx, grid_size):
        with pytest.raises(ValueError, match="grid_size"):
            optimize_dose_map(small_ctx, grid_size, mode="qcp")

    def test_negative_budget_and_zero_limits_are_legal(self, small_ctx):
        res = optimize_dose_map(small_ctx, 30.0, mode="qcp",
                                leakage_budget=-0.1)
        assert res.solve is not None
        res = optimize_dose_map(small_ctx, 30.0, mode="qp", dose_range=0.0,
                                smoothness=0.0)
        assert res.solve is not None
        if res.ok:
            assert np.allclose(res.dose_map_poly.values, 0.0)

    @pytest.mark.parametrize(
        "name, value",
        [("width", NAN), ("height", INF), ("row_height", 0.0),
         ("site_width", -0.2)],
    )
    def test_degenerate_die(self, name, value):
        geometry = dict(width=20.0, height=9.0, row_height=1.8, site_width=0.2)
        geometry[name] = value
        with pytest.raises(ValueError, match=name):
            Die(**geometry)

    @pytest.mark.parametrize(
        "name, value",
        [("top_k", 0), ("top_k", -3), ("rounds", -1),
         ("swaps_per_path", -1), ("swaps_per_round", -2),
         ("trial_budget", -1), ("distance_factor", NAN),
         ("distance_factor", -1.0), ("hpwl_increase_limit", NAN),
         ("hpwl_increase_limit", INF), ("hpwl_increase_limit", -0.1),
         ("leakage_increase_limit", NAN), ("leakage_increase_limit", INF),
         ("leakage_increase_limit", -0.5)],
    )
    def test_bad_dosepl_config(self, name, value):
        """A NaN limit would make its filter never fire, and a negative
        ``rounds`` would report ``rounds_run=-1``: both fail at entry."""
        with pytest.raises(ValueError, match=name):
            DoseplConfig(**{name: value})

    def test_zero_dosepl_counts_are_legal(self):
        cfg = DoseplConfig(top_k=1, rounds=0, swaps_per_path=0,
                           swaps_per_round=0, trial_budget=0,
                           distance_factor=0.0, hpwl_increase_limit=0.0,
                           leakage_increase_limit=0.0)
        assert cfg.rounds == 0

"""Pruned DMopt programs: the optimum of the full program, a mask that
depends only on its inputs, and the full program wherever the range
opens.

:meth:`DesignContext.formulation_for` serves
:func:`repro.core.formulate.prune_formulation` of the full assembly: the
timing rows that cannot bind at any dose within +-R (R = max(5,
dose_range)) are gone.  The properties run on generated placed DAGs
(``tests/oracles/netlists.py``) and compare optimal objectives of the
two programs solved side by side.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DesignContext,
    dmopt_dose_range_sweep,
    optimize_dose_map,
)
from repro.core.formulate import build_formulation, prune_formulation
from repro.library import CellLibrary
from repro.netlist import make_design
from repro.solver import diagnose_infeasibility, solve_qcp, solve_qp_robust
from tests.oracles.formulate import assert_formulations_identical
from tests.oracles.netlists import random_dag_context

generated = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(0, 10_000)
n_gates = st.integers(8, 60)
grids = st.sampled_from([5.0, 10.0])


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


def _qp_optimum(form, tau):
    """(status, optimal delta leakage) of the QP at clock bound ``tau``."""
    u = form.u.copy()
    u[form.row_clock] = tau
    res = solve_qp_robust(form.P_leak, form.q_leak, form.A, form.l, u)
    return res.status, (form.predicted_delta_leakage(res.x) if res.ok
                        else None)


def _qcp_optimum(form, budget):
    """(status, optimal T) of the QCP at leakage budget ``budget``."""
    c = np.zeros(form.n_vars)
    c[form.idx_T] = 1.0
    res = solve_qcp(c, form.A, form.l, form.u, form.P_leak, form.q_leak,
                    s=budget)
    return res.status, (float(res.x[form.idx_T]) if res.ok else None)


#: The barrier's stopping tolerance on ``mu``: a converged objective is
#: within about ``m * mu`` (its duality gap) of the optimum.
IPM_TOL = 1e-7


def gap_bound(*forms):
    """How far two converged solves' objectives may sit apart, one of
    each program: each is within its own gap of the common optimum."""
    return sum(IPM_TOL * (form.A.shape[0] + 1) for form in forms)


def assert_same_optimum(full, pruned, tol):
    assert pruned[0] == full[0]
    if full[1] is not None:
        assert pruned[1] == pytest.approx(full[1], rel=0, abs=tol)


def _both(ctx, grid, both_layers=False, dose_range=5.0):
    """(full, pruned) programs of one structure and range."""
    full = build_formulation(ctx, grid, both_layers=both_layers,
                             dose_range=dose_range)
    pruned = ctx.formulation_for(grid, both_layers=both_layers,
                                 dose_range=dose_range)
    return full, pruned


class TestEqualOptima:
    @generated
    @given(seed=seeds, n=n_gates, grid=grids,
           tighten=st.floats(0.0, 0.04))
    def test_qp_with_tau(self, lib65, seed, n, grid, tighten):
        ctx = random_dag_context(seed, n, lib65, shared_pins=True)
        full, pruned = _both(ctx, grid)
        assert pruned.A.shape[0] <= full.A.shape[0]
        tau = ctx.baseline.mct * (1.0 - tighten)
        assert_same_optimum(_qp_optimum(full, tau), _qp_optimum(pruned, tau),
                            gap_bound(full, pruned))

    @generated
    @given(seed=seeds, n=n_gates, grid=grids,
           budget=st.floats(-0.02, 0.02))
    def test_qcp_with_budget(self, lib65, seed, n, grid, budget):
        ctx = random_dag_context(seed, n, lib65, shared_pins=True)
        full, pruned = _both(ctx, grid)
        s = budget * ctx.baseline_leakage
        assert_same_optimum(_qcp_optimum(full, s), _qcp_optimum(pruned, s),
                            gap_bound(full, pruned))

    @generated
    @given(seed=seeds, n=n_gates, grid=grids,
           tighten=st.floats(0.0, 0.04), budget=st.floats(-0.02, 0.02))
    def test_both_layers(self, lib65, seed, n, grid, tighten, budget):
        ctx = random_dag_context(seed, n, lib65, shared_pins=True,
                                 fit_width=True)
        full, pruned = _both(ctx, grid, both_layers=True)
        tau = ctx.baseline.mct * (1.0 - tighten)
        assert_same_optimum(_qp_optimum(full, tau), _qp_optimum(pruned, tau),
                            gap_bound(full, pruned))
        s = budget * ctx.baseline_leakage
        assert_same_optimum(_qcp_optimum(full, s), _qcp_optimum(pruned, s),
                            gap_bound(full, pruned))

    @generated
    @given(seed=seeds, n=n_gates, grid=grids)
    def test_wider_range_gets_its_own_mask(self, lib65, seed, n, grid):
        """At 7 % the program is pruned for 7 %: it keeps every row the
        5 % program keeps (the bounds only grow with the range) and
        has the full 7 % program's optimum."""
        ctx = random_dag_context(seed, n, lib65, shared_pins=True)
        at5 = ctx.formulation_for(grid)
        full, at7 = _both(ctx, grid, dose_range=7.0)
        assert (at5.prune_range, at7.prune_range) == (5.0, 7.0)
        assert at5.A.shape[0] <= at7.A.shape[0] <= full.A.shape[0]
        assert at5.n_vars <= at7.n_vars
        s = 0.0
        assert_same_optimum(_qcp_optimum(full, s), _qcp_optimum(at7, s),
                            gap_bound(full, at7))


class TestWarmEqualsCold:
    @generated
    @given(seed=seeds, n=n_gates, grid=grids,
           mode=st.sampled_from(["qp", "qcp"]))
    def test_pruned_sweep(self, lib65, seed, n, grid, mode):
        """One pruned program serves the sweep; warm-started points reach
        the cold-started points' model optimum.  The QP gets its clock
        bound explicitly: the default one is re-solved unguarded when
        golden signoff prefers it, a choice that snapping decides."""
        ctx = random_dag_context(seed, n, lib65, shared_pins=True)
        ranges = [1.0, 2.0, 3.5, 5.0]
        kwargs = {"timing_bound": ctx.baseline.mct} if mode == "qp" else {}
        warm = dmopt_dose_range_sweep(ctx, grid, ranges, mode=mode, **kwargs)
        cold = dmopt_dose_range_sweep(ctx, grid, ranges, mode=mode,
                                      warm_start=False, **kwargs)
        assert ctx.formulation_builds == 1
        for w, c in zip(warm, cold):
            assert w.formulation.A is c.formulation.A
            assert w.status == c.status
            if not c.ok:
                continue
            objective = ("predicted_delta_leakage" if mode == "qp"
                         else "predicted_T")
            assert getattr(w, objective) == pytest.approx(
                getattr(c, objective), rel=0,
                abs=gap_bound(c.formulation, w.formulation))

    def test_seed_of_another_program_cold_starts(self):
        """A sweep that crosses 5 % moves to a program pruned for the
        wider range: the previous point's seed has the wrong length, so
        that point starts cold and still reaches the cold optimum."""
        ctx = DesignContext(make_design("AES-65", scale=0.2))
        warm = dmopt_dose_range_sweep(ctx, 10.0, [4.0, 8.0], mode="qcp")
        at4, at8 = (r.formulation for r in warm)
        assert (at4.prune_range, at8.prune_range) == (5.0, 8.0)
        assert at8.n_vars != at4.n_vars
        assert not warm[1].solve.warm_started
        cold = optimize_dose_map(ctx, 10.0, mode="qcp", dose_range=8.0)
        assert warm[1].predicted_T == pytest.approx(cold.predicted_T,
                                                    rel=1e-9)


class TestMaskDependsOnlyOnInputs:
    def test_independent_of_call_history(self, lib65):
        """Which ranges a context served before does not change the
        program it serves now: a worker that saw other cells first
        builds the same program as a fresh one."""
        busy = random_dag_context(11, 40, lib65)
        busy.formulation_for(10.0, dose_range=7.0)
        busy.formulation_for(10.0, dose_range=6.0)
        seen = busy.formulation_for(10.0, dose_range=3.0)
        fresh = random_dag_context(11, 40, lib65).formulation_for(
            10.0, dose_range=3.0)
        assert_formulations_identical(fresh, seen)
        assert seen.prune_range == fresh.prune_range == 5.0

    def test_retarget_past_prune_range_raises(self, lib65):
        ctx = random_dag_context(3, 30, lib65)
        form = ctx.formulation_for(10.0)
        assert form.retarget(dose_range=5.0).dose_range == 5.0
        with pytest.raises(ValueError, match="pruned for"):
            form.retarget(dose_range=5.5)
        # the full program retargets anywhere
        full = build_formulation(ctx, 10.0)
        assert full.prune_range is None
        assert full.retarget(dose_range=50.0).dose_range == 50.0

    def test_prune_range_follows_the_program_range(self, lib65):
        ctx = random_dag_context(3, 30, lib65)
        for dose_range, prune_range in ((2.0, 5.0), (5.0, 5.0), (6.0, 6.0)):
            full = build_formulation(ctx, 10.0, dose_range=dose_range)
            assert prune_formulation(ctx, full).prune_range == prune_range

    def test_dose_and_bound_rows_stay_in_place(self, lib65):
        ctx = random_dag_context(5, 50, lib65)
        full, pruned = _both(ctx, 5.0)
        head = full.n_range_rows + full.n_smooth_rows
        g = full.n_dose_vars
        assert (pruned.n_range_rows, pruned.n_smooth_rows) == (
            full.n_range_rows, full.n_smooth_rows)
        assert np.array_equal(
            pruned.A[:head, :g].toarray(), full.A[:head, :g].toarray())
        assert pruned.row_clock == pruned.A.shape[0] - 1
        assert pruned.idx_T == pruned.n_vars - 1
        assert pruned.A[pruned.row_clock, pruned.idx_T] == 1.0
        assert np.array_equal(pruned.q_leak[:g], full.q_leak[:g])


class TestDiagnosisSeesTheFullProgram:
    """An infeasible verdict is diagnosed on the full program, rebuilt
    with the solve's bounds: the report is the one a diagnosis of the
    unpruned program gives."""

    @staticmethod
    def _assert_full_report(ctx, res, grid, tau, **bounds):
        full = build_formulation(ctx, grid, **bounds)
        expected = diagnose_infeasibility(full, tau=tau)
        got = res.infeasibility
        assert got.blocking == expected.blocking
        assert got.probes == expected.probes
        assert got.tau_min == expected.tau_min
        assert got.tau_slack_needed == expected.tau_slack_needed

    def test_unachievable_timing_bound(self):
        ctx = DesignContext(make_design("AES-65", scale=0.3))
        tau = ctx.baseline.mct * 0.1
        res = optimize_dose_map(ctx, 30.0, mode="qp", timing_bound=tau)
        self._assert_full_report(ctx, res, 30.0, tau)

    def test_unattainable_leakage_budget(self):
        ctx = DesignContext(make_design("AES-65", scale=0.1))
        res = optimize_dose_map(ctx, 10.0, mode="qcp",
                                leakage_budget=-0.9 * ctx.baseline_leakage)
        self._assert_full_report(ctx, res, 10.0, None)

    def test_infeasible_verdict_is_diagnosed(self):
        ctx = DesignContext(make_design("AES-65", scale=0.25))
        tau = ctx.baseline.mct * 0.5
        res = optimize_dose_map(ctx, grid_size=10.0, mode="qp",
                                dose_range=0.0, timing_bound=tau)
        self._assert_full_report(ctx, res, 10.0, tau, dose_range=0.0)

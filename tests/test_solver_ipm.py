"""Tests for the interior-point QP backend (repro.solver.ipm)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from repro.solver import STATUS_INFEASIBLE, solve_qp, solve_qp_ipm
from repro.solver.ipm import IPMWorkspace


class TestInequalityConversion:
    """IPMWorkspace stacks the finite-bound rows of l <= Ax <= u into
    G x <= h."""

    def test_two_sided_becomes_two_rows(self):
        A = sp.eye(2, format="csc")
        l = np.array([-1.0, -np.inf])
        u = np.array([1.0, 2.0])
        ws = IPMWorkspace(sp.eye(2, format="csc"), A, l, u)
        assert ws.G.shape == (3, 2)  # 2 upper rows + 1 lower row
        assert np.allclose(ws.gather_h(l, u), [1.0, 2.0, 1.0])

    def test_no_finite_bounds_rejected(self):
        A = sp.eye(1, format="csc")
        with pytest.raises(ValueError, match="no finite constraints"):
            IPMWorkspace(A, A, np.array([-np.inf]), np.array([np.inf]))


class TestIPMBasics:
    def test_box_qp(self):
        res = solve_qp_ipm(
            sp.eye(2), np.array([-5.0, -0.3]), sp.eye(2),
            np.zeros(2), np.ones(2),
        )
        assert res.ok
        assert np.allclose(res.x, [1.0, 0.3], atol=1e-5)

    def test_pure_lp_direction(self):
        """P = 0: the IPM must solve plain LPs too."""
        res = solve_qp_ipm(
            sp.csc_matrix((2, 2)), np.array([1.0, -1.0]), sp.eye(2),
            -np.ones(2), np.ones(2),
        )
        assert res.ok
        assert np.allclose(res.x, [-1.0, 1.0], atol=1e-5)

    def test_equality_like_tight_bounds(self):
        res = solve_qp_ipm(
            2 * sp.eye(2), np.zeros(2), sp.csc_matrix([[1.0, 1.0]]),
            np.array([1.0]), np.array([1.0]),
        )
        assert res.ok
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-4)

    def test_infeasible_detected(self):
        """x <= -1 and x >= 1 simultaneously."""
        A = sp.csc_matrix([[1.0], [1.0]])
        res = solve_qp_ipm(
            sp.eye(1), np.zeros(1), A,
            np.array([-np.inf, 1.0]), np.array([-1.0, np.inf]),
        )
        assert not res.ok
        assert res.status in (STATUS_INFEASIBLE, "max_iter")

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            solve_qp_ipm(sp.eye(2), np.zeros(3), sp.eye(2),
                         np.zeros(2), np.ones(2))

    def test_inconsistent_bounds_diagnosed(self):
        """l > u returns a diagnostic infeasible result, not a raise."""
        res = solve_qp_ipm(sp.eye(1), np.zeros(1), sp.eye(1),
                           np.array([2.0]), np.array([1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert not res.ok
        assert res.info["n_bound_conflicts"] == 1

    def test_high_accuracy(self):
        """IPM should reach much tighter KKT residuals than ADMM."""
        rng = np.random.default_rng(0)
        n = 20
        M = rng.normal(size=(n, n))
        P = sp.csc_matrix(M @ M.T + np.eye(n))
        q = rng.normal(size=n)
        res = solve_qp_ipm(P, q, sp.eye(n), -np.ones(n), np.ones(n))
        assert res.ok
        assert res.r_prim < 1e-6 and res.r_dual < 1e-5


class TestIPMAgainstReferences:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 5, 8
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        x_feas = rng.normal(size=n)
        center = A @ x_feas
        l = center - rng.uniform(0.5, 2.0, size=m)
        u = center + rng.uniform(0.5, 2.0, size=m)
        res = solve_qp_ipm(sp.csc_matrix(P), q, sp.csc_matrix(A), l, u)
        assert res.ok

        def f(x):
            return 0.5 * x @ P @ x + q @ x

        cons = []
        for i in range(m):
            cons.append({"type": "ineq",
                         "fun": lambda x, r=A[i], b=u[i]: b - r @ x})
            cons.append({"type": "ineq",
                         "fun": lambda x, r=A[i], b=l[i]: r @ x - b})
        ref = minimize(f, x_feas, constraints=cons, method="SLSQP",
                       options={"maxiter": 500, "ftol": 1e-10})
        assert f(res.x) <= ref.fun + 1e-4 * (1 + abs(ref.fun))
        ax = A @ res.x
        assert np.all(ax >= l - 1e-5) and np.all(ax <= u + 1e-5)

    @settings(deadline=None, max_examples=6)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_admm(self, seed):
        """Both in-house backends agree on random strictly convex QPs."""
        rng = np.random.default_rng(seed)
        n = 8
        M = rng.normal(size=(n, n))
        P = sp.csc_matrix(M @ M.T + np.eye(n))
        q = rng.normal(size=n)
        A = sp.eye(n)
        l, u = -np.ones(n), np.ones(n)
        ipm = solve_qp_ipm(P, q, A, l, u)
        admm = solve_qp(P, q, A, l, u, eps_abs=1e-7, eps_rel=1e-7)
        assert ipm.ok and admm.ok
        assert np.allclose(ipm.x, admm.x, atol=1e-3)

"""Unit tests for the QP/QCP solvers, cross-checked against scipy."""


import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize

import repro.solver.robust as robust
from repro.solver import (
    STATUS_ILL_CONDITIONED,
    STATUS_INFEASIBLE,
    STATUS_SOLVED,
    diagnostic_result,
    solve_qcp,
    solve_qp,
    solve_qp_robust,
)
from repro.solver.qcp import TIE_TOL

#: Relative margin by which a generated binding budget lies below the
#: linear program's quadratic value (see :func:`_qcp_from_seed`).
FEAS_TOL = 1e-4


def _scipy_qp(P, q, A, l, u, x0):
    """Dense reference solution via SLSQP."""
    P = np.asarray(P.todense()) if sp.issparse(P) else np.asarray(P)
    A = np.asarray(A.todense()) if sp.issparse(A) else np.asarray(A)

    def f(x):
        return 0.5 * x @ P @ x + q @ x

    cons = []
    for i in range(A.shape[0]):
        row = A[i]
        if np.isfinite(u[i]):
            cons.append(
                {"type": "ineq", "fun": lambda x, r=row, b=u[i]: b - r @ x}
            )
        if np.isfinite(l[i]):
            cons.append(
                {"type": "ineq", "fun": lambda x, r=row, b=l[i]: r @ x - b}
            )
    res = minimize(f, x0, constraints=cons, method="SLSQP",
                   options={"maxiter": 500, "ftol": 1e-10})
    return res.x, res.fun


def _scipy_qcp(c, A, l, u, Q, g, s, x0):
    """Dense SLSQP reference for ``min c'x  s.t.  l <= Ax <= u,
    (1/2)x'Qx + g'x <= s``."""
    A = A.toarray()
    Q = Q.toarray()
    up, lo = np.isfinite(u), np.isfinite(l)
    G = np.vstack([-A[up], A[lo]])
    h = np.concatenate([u[up], -l[lo]])
    cons = [
        {"type": "ineq", "fun": lambda x: h + G @ x, "jac": lambda x: G},
        {"type": "ineq", "fun": lambda x: s - 0.5 * x @ Q @ x - g @ x,
         "jac": lambda x: -(Q @ x + g)},
    ]
    return minimize(lambda x: c @ x, x0, jac=lambda x: c,
                    constraints=cons, method="SLSQP",
                    options={"maxiter": 500, "ftol": 1e-12})


def _qcp_from_seed(seed, binding, n, m):
    """One small random QCP ``(c, A, l, u, Q, g, s, binding, h0)``, or
    ``None`` when a binding budget cannot be told apart from the linear
    program's quadratic value.

    The last variable plays the DMopt clock period ``T``: it has a zero
    row and column in ``Q = B'B`` and no ``g`` term, like ``P_leak``.
    ``B`` stacks a random square block on an identity, so ``Q`` is
    positive definite on the other variables.  ``A`` is a box on ``x``
    plus random sparse rows, some one-sided, cut around a random point
    ``x_feas``.  A binding budget lies strictly between
    ``quad(x_feas)`` and the quadratic at the ``lam = 0`` (linear
    program) solution, below the latter by more than ``10 * FEAS_TOL``
    relative; a slack one lies above it.  ``h0`` is
    the row's value ``quad - s`` at that linear program solution.
    """
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    A = sp.vstack([sp.eye(n), sp.csr_matrix(R)], format="csc")
    x_feas = rng.uniform(-0.5, 0.5, n)
    ax = A @ x_feas
    width = rng.uniform(0.2, 2.0, n + m)
    l, u = ax - width, ax + width
    kind = rng.integers(0, 3, m)
    l[n:][kind == 1] = -np.inf
    u[n:][kind == 2] = np.inf
    B = np.vstack([rng.standard_normal((n - 1, n - 1)), np.eye(n - 1)])
    Q = np.zeros((n, n))
    Q[:-1, :-1] = B.T @ B
    Q = sp.csc_matrix(Q)
    g = np.append(rng.standard_normal(n - 1), 0.0)
    c = rng.standard_normal(n)

    def quad(x):
        return float(0.5 * x @ (Q @ x) + g @ x)

    lp = solve_qp_robust(0.0 * Q, c, A, l, u)
    q_lp, q_feas = quad(lp.x), quad(x_feas)
    if binding:
        s = q_feas + rng.uniform(0.05, 0.95) * (q_lp - q_feas)
        if not q_lp - s > 10 * FEAS_TOL * max(1.0, abs(s)):
            return None
    else:
        s = q_lp + rng.uniform(0.0, 1.0) * (1.0 + abs(q_lp))
    return c, A, l, u, Q, g, s, binding, q_lp - s


@st.composite
def _random_qcps(draw):
    """:func:`_qcp_from_seed` over drawn ``seed, binding, n, m``."""
    problem = _qcp_from_seed(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
        draw(st.integers(2, 6)),
        draw(st.integers(1, 5)),
    )
    assume(problem is not None)
    return problem


def _row_violation_bound(l, u, s):
    """Largest row value ``quad - s`` a solved barrier may leave: its
    10x-relaxed primal tolerance, relative to the largest of 1, ``|s|``
    and the finite bounds."""
    bounds = np.concatenate([l, u])
    return 1e-6 * max(1.0, abs(s),
                      float(np.abs(bounds[np.isfinite(bounds)]).max()))


class TestQPBasics:
    def test_unconstrained_minimum_inside_box(self):
        P = sp.eye(2)
        q = np.array([-0.3, -0.4])
        A = sp.eye(2)
        res = solve_qp(P, q, A, np.zeros(2), np.ones(2))
        assert res.ok
        assert np.allclose(res.x, [0.3, 0.4], atol=1e-4)

    def test_active_box_constraint(self):
        P = sp.eye(2)
        q = np.array([-5.0, -5.0])
        A = sp.eye(2)
        res = solve_qp(P, q, A, np.zeros(2), np.ones(2))
        assert res.ok
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_equality_constraint(self):
        """min x1^2 + x2^2 s.t. x1 + x2 = 1 -> (0.5, 0.5)."""
        P = 2 * sp.eye(2)
        q = np.zeros(2)
        A = sp.csc_matrix([[1.0, 1.0]])
        res = solve_qp(P, q, A, np.array([1.0]), np.array([1.0]))
        assert res.ok
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-4)

    def test_semidefinite_p(self):
        """P with a zero block (like arrival-time variables in DMopt)."""
        P = sp.diags([1.0, 0.0])
        q = np.array([0.0, 1.0])
        A = sp.eye(2)
        res = solve_qp(P, q, A, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert res.ok
        assert res.x[1] == pytest.approx(-1.0, abs=1e-4)  # pure LP direction

    def test_one_sided_constraints(self):
        P = sp.eye(1)
        q = np.array([-10.0])
        A = sp.eye(1)
        res = solve_qp(P, q, A, np.array([-np.inf]), np.array([2.0]))
        assert res.ok
        assert res.x[0] == pytest.approx(2.0, abs=1e-4)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            solve_qp(sp.eye(2), np.zeros(3), sp.eye(2), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="bounds"):
            solve_qp(sp.eye(2), np.zeros(2), sp.eye(2), np.zeros(3), np.ones(2))

    def test_inconsistent_bounds_diagnosed(self):
        """l > u returns a diagnostic infeasible result, not a raise."""
        res = solve_qp(sp.eye(1), np.zeros(1), sp.eye(1),
                       np.array([2.0]), np.array([1.0]))
        assert res.status == "infeasible"
        assert not res.ok
        assert res.info["n_bound_conflicts"] == 1
        assert "l > u" in res.info["note"]


class TestQPAgainstScipy:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_strictly_convex(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 10
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        # anchor the boxes on a known-feasible point so the random
        # problem is guaranteed feasible even with m > n
        x_feas = rng.normal(size=n)
        center = A @ x_feas
        l = center - rng.uniform(0.5, 2.0, size=m)
        u = center + rng.uniform(0.5, 2.0, size=m)
        res = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), l, u)
        assert res.ok
        x_ref, f_ref = _scipy_qp(P, q, A, l, u, x0=np.zeros(n))
        f_ours = 0.5 * res.x @ P @ res.x + q @ res.x
        assert f_ours <= f_ref + 1e-3 * (1 + abs(f_ref))
        # and feasible
        ax = A @ res.x
        assert np.all(ax >= l - 1e-3) and np.all(ax <= u + 1e-3)

    def test_badly_scaled_problem(self):
        """Ruiz equilibration must handle 6 orders of magnitude spread."""
        P = sp.diags([1e-4, 1e2])
        q = np.array([1e-3, -1e3])
        A = sp.csc_matrix([[1e3, 0.0], [0.0, 1e-2]])
        l = np.array([-1e3, -1e-2])
        u = np.array([1e3, 1e-2])
        res = solve_qp(P, q, A, l, u)
        assert res.ok
        ax = A @ res.x
        assert np.all(ax >= l - 1e-4) and np.all(ax <= u + 1e-4)


class TestQCP:
    def test_inactive_quadratic_constraint(self):
        """Budget so loose the problem is an LP: lam stays 0."""
        c = np.array([1.0, 1.0])
        A = sp.eye(2)
        res = solve_qcp(c, A, np.zeros(2), np.ones(2),
                        sp.eye(2), np.zeros(2), s=100.0)
        assert res.ok
        assert res.info["lam"] == 0.0
        assert np.allclose(res.x, [0.0, 0.0], atol=1e-4)

    def test_active_quadratic_constraint(self):
        """min -x1-x2, 0<=x<=2, x1^2+x2^2<=2 -> (1,1), obj -2."""
        c = np.array([-1.0, -1.0])
        A = sp.eye(2)
        Q = 2.0 * sp.eye(2)
        res = solve_qcp(c, A, np.zeros(2), np.full(2, 2.0), Q, np.zeros(2), 2.0)
        assert res.ok
        assert np.allclose(res.x, [1.0, 1.0], atol=5e-3)
        assert res.obj == pytest.approx(-2.0, abs=1e-2)
        assert res.info["quad"] <= 2.0 + 1e-3

    def test_quadratic_with_linear_term(self):
        """min -x, 0<=x<=10, (x-1)^2 <= 1 i.e. x^2/ -2x +0 <= 0 -> x=2."""
        c = np.array([-1.0])
        A = sp.eye(1)
        Q = 2.0 * sp.eye(1)  # 1/2 x'Qx = x^2
        g = np.array([-2.0])
        res = solve_qcp(c, A, np.zeros(1), np.full(1, 10.0), Q, g, s=0.0)
        assert res.ok
        assert res.x[0] == pytest.approx(2.0, abs=5e-3)

    def test_unattainable_budget_flagged(self):
        """x >= 1 but x^2 <= 0.25 is infeasible."""
        c = np.array([1.0])
        A = sp.eye(1)
        res = solve_qcp(c, A, np.array([1.0]), np.array([2.0]),
                        2.0 * sp.eye(1), np.zeros(1), s=0.25)
        assert res.status == STATUS_INFEASIBLE
        assert not res.ok

    @settings(deadline=None, max_examples=30)
    @given(_random_qcps())
    def test_random_qcp_against_scipy(self, problem):
        """KKT conditions at the returned point, reached by the first
        barrier step alone.

        The barrier drives complementary slackness to its own
        tolerance, so the duality gap ``lam * -h`` is at the 1e-7 level.
        """
        c, A, l, u, Q, g, s, binding, h0 = problem
        res = solve_qcp(c, A, l, u, Q, g, s)
        assert res.ok
        assert [a["step"] for a in res.info["attempts"]] == ["ipm"]

        x, lam = res.x, res.info["lam"]
        ax = A @ x
        assert np.all(ax >= l - 1e-6) and np.all(ax <= u + 1e-6)

        h = 0.5 * x @ (Q @ x) + g @ x - s
        assert res.info["quad"] - s == pytest.approx(h, abs=1e-12)
        assert h <= _row_violation_bound(l, u, s)

        assert lam >= 0.0
        assert (lam == 0.0) == (h0 <= FEAS_TOL * max(1.0, abs(s)))
        assert (lam > 0.0) == binding
        gap = lam * max(-h, 0.0)
        assert gap <= 1e-6 * (1.0 + abs(res.obj))

        # SLSQP's optimum lies between the dual bound lam certifies
        # (obj + lam*h, weak duality) and our objective
        ref = _scipy_qcp(c, A, l, u, Q, g, s, x0=np.zeros(c.size))
        if ref.success:
            tol = 1e-3 * (1.0 + abs(ref.fun))
            assert res.obj + lam * h - tol <= ref.fun <= res.obj + tol

        # Lagrangian optimality: x minimizes c'x + lam*(x'Qx/2 + g'x)
        # over the polytope; an independent ADMM solve agrees.  A
        # first-order method can stall on a degenerate program (about
        # one in a thousand here); an unconverged oracle proves nothing.
        ref_qp = solve_qp(lam * Q, c + lam * g, A, l, u,
                          eps_abs=1e-7, eps_rel=1e-7)
        assume(ref_qp.ok)
        lagrangian = res.obj + lam * (h + s)
        assert lagrangian == pytest.approx(ref_qp.obj, rel=1e-4, abs=1e-4)

    def test_nearly_linear_budget_reaches_optimum(self):
        """min -x, 0<=x<=2, x + 5e-7 x^2 <= 1 -> x ~ 1, obj ~ -1."""
        res = solve_qcp(np.array([-1.0]), sp.eye(1), np.zeros(1),
                        np.full(1, 2.0), 1e-6 * sp.eye(1), np.ones(1), 1.0)
        assert res.ok
        assert res.obj == pytest.approx(-1.0, abs=1e-2)

    # the draws on which warm and cold once disagreed by 1e-4 to 9e-4:
    # the cold solve fell back to an inexact multiplier search while the
    # warm barrier converged
    @example(_qcp_from_seed(30, True, 5, 3), 1e-3)
    @example(_qcp_from_seed(30, True, 5, 3), 2**-7)
    @example(_qcp_from_seed(30, True, 5, 3), 0.01)
    @example(_qcp_from_seed(40, True, 6, 1), 1e-3)
    @example(_qcp_from_seed(40, True, 6, 1), 2**-7)
    @example(_qcp_from_seed(44, True, 5, 1), 1e-3)
    @example(_qcp_from_seed(44, True, 5, 1), 2**-7)
    @example(_qcp_from_seed(47, True, 4, 3), 0.1)
    @settings(deadline=None, max_examples=30)
    @given(_random_qcps(), st.floats(1e-3, 0.1))
    def test_warm_resolve_matches_cold(self, problem, nudge):
        """warm == cold: re-solving at a nudged budget from the first
        solve's warm state (x, z and lam) reaches the cold optimum."""
        c, A, l, u, Q, g, s, _binding, _h0 = problem
        first = solve_qcp(c, A, l, u, Q, g, s)
        assert first.ok
        s_next = s + nudge * (1.0 + abs(s))
        warm = solve_qcp(c, A, l, u, Q, g, s_next, warm=first.warm_state())
        cold = solve_qcp(c, A, l, u, Q, g, s_next)
        assert warm.ok and warm.warm_started
        assert cold.ok and not cold.warm_started
        assert warm.obj == pytest.approx(
            cold.obj, abs=1e-6 * (1.0 + abs(cold.obj))
        )

    def test_inactive_row_returns_least_quadratic_optimum(self):
        """min x1, 0<=x<=1, x2^2 + x2 <= 10: every (0, x2) is optimal
        and the row is slack; the tie-break returns the least x2^2 + x2."""
        Q = sp.diags([0.0, 2.0], format="csc")
        res = solve_qcp(np.array([1.0, 0.0]), sp.eye(2), np.zeros(2),
                        np.ones(2), Q, np.array([0.0, 1.0]), 10.0)
        assert res.ok and res.info["lam"] == 0.0
        assert res.info["inner_solves"] == 2
        assert res.obj <= TIE_TOL
        assert res.x[1] == pytest.approx(0.0, abs=1e-4)
        assert res.info["quad"] == pytest.approx(0.0, abs=1e-6)

    def test_barrier_failure_returns_its_status(self, monkeypatch):
        """With every barrier step failing, solve_qcp returns the
        chain's own verdict, never a solution."""
        real_ipm = robust.solve_qp_ipm

        def no_barrier(P, q, A, l, u, **kwargs):
            if kwargs.get("quad") is not None:
                return diagnostic_result(STATUS_ILL_CONDITIONED, q.size,
                                         "stubbed barrier failure")
            return real_ipm(P, q, A, l, u, **kwargs)

        monkeypatch.setattr(robust, "solve_qp_ipm", no_barrier)
        res = solve_qcp(np.array([-1.0, -1.0]), sp.eye(2), np.zeros(2),
                        np.full(2, 2.0), 2.0 * sp.eye(2), np.zeros(2), 2.0)
        assert res.status == STATUS_ILL_CONDITIONED
        assert not res.ok
        assert [a["step"] for a in res.info["attempts"]] == [
            "ipm", "ipm-regularized"]
        assert res.info["inner_solves"] == 1
        assert "stubbed barrier failure" in res.info["note"]

    @pytest.mark.parametrize("seed, binding, n, m",
                             [(44, True, 5, 1), (30, True, 5, 3),
                              (40, True, 6, 1)])
    def test_barrier_solves_once_cycling_programs(self, seed, binding, n,
                                                   m):
        """Generated programs on which the barrier once cycled to
        ``MAX_ITER`` (3 of the 2,856 from seeds 0-59 at every n, m and
        binding), its corrector treating the row as linear: with the
        row's curvature corrected, the first barrier step solves them."""
        c, A, l, u, Q, g, s, _binding, _h0 = _qcp_from_seed(seed, binding,
                                                             n, m)
        res = solve_qcp(c, A, l, u, Q, g, s)
        [(step, status, iterations)] = [
            (a["step"], a["status"], a["iterations"])
            for a in res.info["attempts"]]
        assert (step, status) == ("ipm", STATUS_SOLVED)
        assert iterations <= 15
        assert res.ok and res.info["lam"] > 0.0
        h = 0.5 * res.x @ (Q @ res.x) + g @ res.x - s
        assert h <= _row_violation_bound(l, u, s)


class TestResultAPI:
    def test_repr_and_ok(self):
        res = solve_qp(sp.eye(1), np.zeros(1), sp.eye(1),
                       np.array([-1.0]), np.array([1.0]))
        assert res.ok
        assert res.status == STATUS_SOLVED
        assert "solved" in repr(res)
        assert res.solve_time >= 0.0

"""Sparse convex QP solver (OSQP-style ADMM).

Solves

    minimize    (1/2) x' P x + q' x
    subject to  l <= A x <= u

with P positive semidefinite, using the operator-splitting ADMM of
Stellato et al. (the OSQP algorithm): a quasi-definite KKT system is
factorized once per rho setting -- symmetrically, without pivoting --
and reused every iteration.  Includes modified Ruiz equilibration,
over-relaxation, per-constraint rho (stiffer on equalities), and
adaptive rho updates with refactorization.

This is the repository's replacement for the CPLEX solver the paper uses;
it is validated against ``scipy.optimize`` on small instances and against
KKT residuals on the full dose-map programs.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs, telemetry
from repro.solver.guards import SYMMETRIC_SPLU, prevalidate
from repro.solver.result import (
    STATUS_DIVERGED,
    STATUS_MAX_ITER,
    STATUS_SOLVED,
    SolveResult,
)

_SIGMA = 1e-6
_ALPHA = 1.6
_RHO_EQ_SCALE = 1e3
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO0 = 0.1
_MAX_ITER = 20000
_CHECK_EVERY = 25  # iterations between residual checkpoints
_ADAPT_EVERY = 100  # iterations between adaptive rho updates
_SCALING_ITERS = 10


def _ruiz_equilibrate(P, q, A, l, u):
    """Modified Ruiz equilibration of the stacked KKT data.

    Returns scaled (P, q, A, l, u) plus the scalings (d, e, c) such that
    x = d * x_scaled, y = e * y_scaled / c, obj = obj_scaled / c.
    """
    n, m = P.shape[0], A.shape[0]
    d = np.ones(n)
    e = np.ones(m)
    c = 1.0
    P = P.copy().tocsc()
    A = A.copy().tocsc()
    q = q.copy()
    l = l.copy()
    u = u.copy()
    for _ in range(_SCALING_ITERS):
        # column norms of [P; A] give the x-variable scaling
        pc = np.abs(P).max(axis=0).toarray().ravel() if P.nnz else np.zeros(n)
        ac = np.abs(A).max(axis=0).toarray().ravel() if A.nnz else np.zeros(n)
        dx = np.maximum(pc, ac)
        dx[dx == 0] = 1.0
        delta_d = 1.0 / np.sqrt(dx)
        # row norms of A give the constraint scaling
        ar = np.abs(A).max(axis=1).toarray().ravel() if A.nnz else np.zeros(m)
        ar[ar == 0] = 1.0
        delta_e = 1.0 / np.sqrt(ar)

        Dd = sp.diags(delta_d)
        De = sp.diags(delta_e)
        P = (Dd @ P @ Dd).tocsc()
        A = (De @ A @ Dd).tocsc()
        q = delta_d * q
        l = delta_e * l
        u = delta_e * u
        d *= delta_d
        e *= delta_e

        # cost scaling
        pc = np.abs(P).max(axis=0).toarray().ravel() if P.nnz else np.zeros(n)
        denom = max(float(np.mean(pc)), float(np.linalg.norm(q, np.inf)), 1e-12)
        gamma = 1.0 / denom
        gamma = min(max(gamma, 1e-6), 1e6)
        P = P * gamma
        q = q * gamma
        c *= gamma
    return P, q, A, l, u, d, e, c


class _KKT:
    """Factorized quasi-definite KKT system for a given rho vector."""

    def __init__(self, P, A, sigma: float, rho: np.ndarray):
        n, m = P.shape[0], A.shape[0]
        kkt = sp.bmat(
            [
                [P + sigma * sp.eye(n), A.T],
                [A, -sp.diags(1.0 / rho)],
            ],
            format="csc",
        )
        self._lu = spla.splu(kkt, permc_spec="MMD_AT_PLUS_A",
                             **SYMMETRIC_SPLU)
        self._n = n

    def solve(self, rhs: np.ndarray):
        sol = self._lu.solve(rhs)
        return sol[: self._n], sol[self._n :]


def solve_qp(
    P,
    q,
    A,
    l,
    u,
    eps_abs: float = 1e-5,
    eps_rel: float = 1e-5,
) -> SolveResult:
    """Solve the QP (see module docstring), always from a cold start.

    In the solver chain ADMM is the cold last resort
    (:func:`repro.solver.robust.solve_qp_robust`); tests also use it,
    at tight tolerances, as an independent oracle.

    Parameters
    ----------
    P:
        (n, n) PSD sparse/dense matrix (only its symmetric part is used).
    q:
        (n,) linear cost.
    A:
        (m, n) constraint matrix.
    l, u:
        (m,) lower/upper constraint bounds; use ``-np.inf``/``np.inf``
        for one-sided constraints and ``l == u`` for equalities.
    eps_abs, eps_rel:
        Absolute and relative residual tolerances of the stopping rule.

    Returns
    -------
    SolveResult
        ``status`` is ``solved`` on convergence, else ``max_iter`` with
        the best iterate.
    """
    t_start = time.perf_counter()
    P = sp.csc_matrix(P)
    A = sp.csc_matrix(A)
    q = np.asarray(q, dtype=float).ravel()
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    n, m = P.shape[0], A.shape[0]
    if q.size != n:
        raise ValueError("inconsistent problem dimensions")
    short_circuit = prevalidate(P, q, A, l, u, t_start)
    if short_circuit is not None:
        _emit_solve(short_circuit)
        return short_circuit
    P = 0.5 * (P + P.T)

    Ps, qs, As, ls, us, d, e, c = _ruiz_equilibrate(P, q, A, l, u)

    def rho_vector(rho_scalar: float) -> np.ndarray:
        rho = np.full(m, rho_scalar)
        eq = np.isclose(ls, us)
        rho[eq] *= _RHO_EQ_SCALE
        return np.clip(rho, _RHO_MIN, _RHO_MAX)

    rho_scalar = _RHO0
    rho = rho_vector(rho_scalar)
    kkt = _KKT(Ps, As, _SIGMA, rho)

    x = np.zeros(n)
    z = np.clip(As @ x, ls, us)
    # duals live in the scaled space: y_unscaled = e * y / c
    y = np.zeros(m)

    r_prim_u = r_dual_u = np.inf
    iters_done = _MAX_ITER
    diverged = False
    finite_snapshot = None
    # per-checkpoint convergence trace (ring buffer; entries are
    # (iter, r_prim, r_dual, rho)), attached to info["trace"]
    trace = deque(maxlen=obs.TRACE_MAXLEN)
    for k in range(1, _MAX_ITER + 1):
        rhs = np.concatenate([_SIGMA * x - qs, z - y / rho])
        x_tilde, nu = kkt.solve(rhs)
        z_tilde = z + (nu - y) / rho
        x = _ALPHA * x_tilde + (1 - _ALPHA) * x
        z_relax = _ALPHA * z_tilde + (1 - _ALPHA) * z
        z_new = np.clip(z_relax + y / rho, ls, us)
        y = y + rho * (z_relax - z_new)
        z = z_new

        if k % _CHECK_EVERY == 0 or k == _MAX_ITER:
            if not (
                np.all(np.isfinite(x))
                and np.all(np.isfinite(z))
                and np.all(np.isfinite(y))
            ):
                # numeric blow-up: fall back to the last finite
                # checkpoint and stamp the result as diverged
                diverged = True
                iters_done = k
                if finite_snapshot is not None:
                    x, z, y = finite_snapshot
                break
            finite_snapshot = (x.copy(), z.copy(), y.copy())
            # unscaled quantities
            x_u = d * x
            z_u = z / e
            y_u = e * y / c
            ax_u = A @ x_u
            r_prim_u = float(np.linalg.norm(ax_u - z_u, np.inf)) if m else 0.0
            px_u = P @ x_u
            aty_u = A.T @ y_u
            r_dual_u = float(np.linalg.norm(px_u + q + aty_u, np.inf))
            eps_p = eps_abs + eps_rel * max(
                np.linalg.norm(ax_u, np.inf) if m else 0.0,
                np.linalg.norm(z_u, np.inf) if m else 0.0,
            )
            eps_d = eps_abs + eps_rel * max(
                np.linalg.norm(px_u, np.inf),
                np.linalg.norm(q, np.inf),
                np.linalg.norm(aty_u, np.inf),
            )
            trace.append((k, r_prim_u, r_dual_u, rho_scalar))
            if r_prim_u <= eps_p and r_dual_u <= eps_d:
                iters_done = k
                break
            if k % _ADAPT_EVERY == 0 and k < _MAX_ITER:
                # adaptive rho (OSQP heuristic)
                num = r_prim_u / max(eps_p, 1e-12)
                den = r_dual_u / max(eps_d, 1e-12)
                ratio = np.sqrt(num / max(den, 1e-12))
                if ratio > 5.0 or ratio < 0.2:
                    rho_scalar = float(
                        np.clip(rho_scalar * ratio, _RHO_MIN, _RHO_MAX)
                    )
                    rho = rho_vector(rho_scalar)
                    kkt = _KKT(Ps, As, _SIGMA, rho)

    x_u = d * x
    obj = float(0.5 * x_u @ (P @ x_u) + q @ x_u)
    if diverged:
        status = STATUS_DIVERGED
    else:
        status = STATUS_SOLVED if iters_done < _MAX_ITER or (
            r_prim_u <= eps_abs + eps_rel and r_dual_u <= eps_abs + eps_rel
        ) else STATUS_MAX_ITER
    # the break sets iters_done < _MAX_ITER only on convergence; a final-
    # iteration convergence is caught by the residual check above
    if status == STATUS_MAX_ITER and r_prim_u < np.inf:
        x_u2 = d * x
        # recheck final residuals against plain tolerances
        ax_u = A @ x_u2
        z_u = z / e
        y_u = e * y / c
        r_p = float(np.linalg.norm(ax_u - z_u, np.inf)) if m else 0.0
        r_d = float(np.linalg.norm(P @ x_u2 + q + A.T @ y_u, np.inf))
        if r_p <= eps_abs * 10 and r_d <= eps_abs * 10:
            status = STATUS_SOLVED

    info = {"rho": rho_scalar, "y": e * y / c, "trace": list(trace)}
    if diverged:
        info["note"] = (
            "non-finite iterate: last finite checkpoint returned"
            if finite_snapshot is not None
            else "non-finite iterate before the first checkpoint"
        )
        info["failed_at_iter"] = iters_done
    result = SolveResult(
        status=status,
        x=x_u,
        obj=obj,
        iterations=iters_done,
        r_prim=r_prim_u,
        r_dual=r_dual_u,
        solve_time=time.perf_counter() - t_start,
        info=info,
    )
    _emit_solve(result)
    return result


def _emit_solve(result: SolveResult):
    if not telemetry.enabled():
        return
    telemetry.emit(
        "solve",
        backend="admm",
        status=result.status,
        iterations=result.iterations,
        r_prim=result.r_prim,
        r_dual=result.r_dual,
        seconds=result.solve_time,
        warm_started=result.warm_started,
        trace=result.info.get("trace"),
        note=result.info.get("note"),
    )

"""Shared degenerate-input handling for the QP backends.

Both :func:`repro.solver.qp.solve_qp` (ADMM) and
:func:`repro.solver.ipm.solve_qp_ipm` route their inputs through these
checks before touching any factorization, so degenerate problems --
trivially inconsistent bounds, constraint systems with no finite row,
or zero-row constraint matrices -- come back as diagnostic
:class:`~repro.solver.result.SolveResult` objects rather than
exceptions raised from deep inside an iteration loop.  The SuperLU
keyword set every solver factorization shares lives here too.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.solver.result import (
    STATUS_ILL_CONDITIONED,
    STATUS_INFEASIBLE,
    STATUS_SOLVED,
    SolveResult,
    diagnostic_result,
)

#: SuperLU keywords for a symmetric matrix that needs no pivoting: SPD
#: (the IPM normal matrix, the unconstrained solve) or quasi-definite
#: (ADMM's KKT system), which factors stably under any symmetric
#: permutation (Vanderbei 1995).  The factorization keeps to the
#: diagonal and orders the columns on the pattern of ``A + A'``; pair it
#: with ``permc_spec="MMD_AT_PLUS_A"``, or with ``"NATURAL"`` when the
#: matrix comes already permuted.
SYMMETRIC_SPLU = {"diag_pivot_thresh": 0.0,
                  "options": {"SymmetricMode": True}}


def bounds_conflicts(l, u, tol: float = 1e-12) -> np.ndarray:
    """Row indices where ``l > u`` (trivial primal infeasibility)."""
    return np.nonzero(l > u + tol)[0]


def infeasible_bounds_result(l, u, n: int, t_start: float) -> SolveResult:
    """Diagnostic ``infeasible`` result for ``l > u`` rows."""
    rows = bounds_conflicts(l, u)
    worst = int(rows[np.argmax((l - u)[rows])])
    return diagnostic_result(
        STATUS_INFEASIBLE,
        n,
        f"trivially infeasible bounds: l > u on {rows.size} row(s)",
        solve_time=time.perf_counter() - t_start,
        bound_conflicts=rows.tolist()[:16],
        n_bound_conflicts=int(rows.size),
        worst_row=worst,
        worst_gap=float((l - u)[worst]),
    )


def solve_unconstrained(P, q, t_start: float,
                        reg: float = 1e-9) -> SolveResult:
    """Minimize ``(1/2)x'Px + q'x`` with no (finite) constraints.

    An all-infinite bound set leaves a plain regularized least-squares
    problem; solving it directly keeps "no finite constraints" a valid
    input instead of a :class:`ValueError`.
    """
    n = q.size
    N = (sp.csc_matrix(P) + reg * sp.eye(n)).tocsc()
    try:
        x = spla.splu(
            N, permc_spec="MMD_AT_PLUS_A", **SYMMETRIC_SPLU
        ).solve(-np.asarray(q, dtype=float))
    except RuntimeError:
        return diagnostic_result(
            STATUS_ILL_CONDITIONED,
            n,
            "unconstrained normal matrix is singular",
            solve_time=time.perf_counter() - t_start,
        )
    if not np.all(np.isfinite(x)):
        return diagnostic_result(
            STATUS_ILL_CONDITIONED,
            n,
            "unconstrained solve produced non-finite iterate",
            solve_time=time.perf_counter() - t_start,
        )
    obj = float(0.5 * x @ (P @ x) + q @ x)
    return SolveResult(
        status=STATUS_SOLVED,
        x=x,
        obj=obj,
        iterations=1,
        r_prim=0.0,
        r_dual=float(np.linalg.norm(P @ x + q, np.inf)),
        solve_time=time.perf_counter() - t_start,
        info={"note": "no finite constraints: solved unconstrained"},
    )


def prevalidate(P, q, A, l, u, t_start: float):
    """Common degenerate-input screen for both QP backends.

    Returns a diagnostic :class:`SolveResult` when the problem cannot
    (or need not) enter the iterative solver, else ``None``.
    Dimension mismatches still raise ``ValueError`` -- those are caller
    bugs, not properties of the problem data.
    """
    n = q.size
    m = A.shape[0]
    if P.shape != (n, n) or A.shape[1] != n:
        raise ValueError("inconsistent problem dimensions")
    if l.size != m or u.size != m:
        raise ValueError("bounds must match the constraint count")
    if bounds_conflicts(l, u).size:
        return infeasible_bounds_result(l, u, n, t_start)
    if m == 0 or not (np.isfinite(l).any() or np.isfinite(u).any()):
        return solve_unconstrained(P, q, t_start)
    return None

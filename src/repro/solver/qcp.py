"""Quadratically constrained program solver: one barrier IPM.

The paper's QCP ("minimize T subject to ... DeltaLeakage <= xi") has a
linear objective, linear constraints, and exactly **one convex quadratic
constraint**.  Like the paper's CPLEX barrier, :func:`solve_qcp` solves
it directly: :func:`repro.solver.ipm.solve_qp_ipm` carries the quadratic
row as one more barrier pair (slack ``t``, multiplier ``lam``) in the
Mehrotra loop that solves the QPs, so a cold G=10 dose-map QCP (AES-65
or JPEG-65) is one solve of about 15 iterations.

When the row is inactive (``lam = 0``) the linear objective's optimum
may be a whole face.  The barrier would return a point inside it, so
one more QP picks the face's point with the least quadratic value (the
least modeled leakage): the ``lam -> 0+`` limit of the dualized program
below.

The barrier runs through the one solver chain,
:func:`repro.solver.robust.solve_qp_robust`: warm barrier, a cold
re-check of a warm ``infeasible`` verdict, then the barrier with
``RETRY_REG``.  ADMM has no quadratic row, so when that chain ends
without a solution the last resort is a cold bisection on the
multiplier.  Dualizing the row with lam >= 0 gives the QP

    min  c'x + lam * ((1/2) x'Q x + g'x - s)   s.t.  l <= A x <= u,

whose constraint value h(lam) = (1/2)x'Qx + g'x - s is non-increasing
in lam.  Each step is one QP over the full chain, ADMM included.  The
search starts at lam = 0, which names the failures the barrier cannot
tell apart: a failed lam = 0 solve means the linear constraints fail,
and a multiplier past 1e12 that still violates the row means the
budget is unattainable (status ``infeasible``, so no caller signs the
point off).  The bisection stays because it is reached:
on 3 of 2,856 generated test programs (``tests/test_solver.py``,
seeds 0-59 at every size and binding) both barrier steps stop at
``max_iter`` and the bisection returns the accepted point.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.solver.robust import solve_qp_robust
from repro.solver.result import (
    STATUS_INFEASIBLE,
    SolveResult,
)

#: Relative width of the multiplier bracket at which the bisection stops.
LAM_TOL = 1e-3

#: Acceptance tolerance of the quadratic constraint: a point is accepted
#: when ``h = (1/2)x'Qx + g'x - s <= FEAS_TOL * max(|h0|, 1, |s|)``, with
#: ``h0`` the h of the lam = 0 (linear program) solution.  The larger
#: the lam = 0 violation, the larger the absolute one accepted.  The
#: barrier meets the row to its own 1e-7 tolerance.
FEAS_TOL = 1e-4

#: Cap on chain solves per QCP (the barrier, lam = 0 and the bisection's
#: bracketing included).
MAX_ROOT_STEPS = 30

#: Objective slack of the inactive-row tie-break: among the points whose
#: objective is within ``TIE_TOL * (1 + |obj|)`` of the optimum, the one
#: with the least quadratic value is returned.
TIE_TOL = 1e-6


def _quad_value(Q, g, x) -> float:
    return float(0.5 * x @ (Q @ x) + g @ x)


def solve_qcp(
    c,
    A,
    l,
    u,
    Q,
    g,
    s,
    warm: dict = None,
    workspace: dict = None,
) -> SolveResult:
    """Solve ``min c'x  s.t.  l <= Ax <= u,  (1/2)x'Qx + g'x <= s``.

    Parameters
    ----------
    c:
        Linear objective (n,), with ``n = A.shape[1]``.
    A, l, u:
        Linear constraints.
    Q, g, s:
        The convex quadratic constraint (Q PSD, (n, n); g (n,); s
        finite).  Its acceptance rule is stated on :data:`FEAS_TOL`.
    warm:
        Optional previous solution state, a result's
        :meth:`~repro.solver.SolveResult.warm_state` (``x``, ``z`` and
        the multiplier ``lam``), seeding the barrier.
    workspace:
        Mutable dict carrying the barrier's pattern workspace across
        calls (see :func:`repro.solver.ipm.solve_qp_ipm`).

    Returns
    -------
    SolveResult
        ``info`` carries the multiplier ``lam`` (0.0 when the row is
        inactive), the constraint value ``quad``, the number of chain
        solves ``inner_solves`` (1 for an active row, 2 with the
        inactive row's tie-break, more when the bisection ran), the
        barrier's (or the bisection's final solve's) ``z`` and
        convergence ``trace`` (the barrier's has ``(lam, t)`` per
        entry) and the ``attempts`` trail (the barrier chain's steps,
        then one ``bisect`` entry per bisection solve with its ``lam``
        and ``h``).

    Raises
    ------
    ValueError
        Naming the argument when ``s`` is not finite, ``c`` or ``g`` is
        not shape ``(n,)``, or ``Q`` is not ``(n, n)``.
    """
    t_start = time.perf_counter()
    n = A.shape[1]
    c = np.asarray(c, dtype=float)
    g = np.asarray(g, dtype=float)
    Q = sp.csc_matrix(Q)
    for name, shape, want in (("c", c.shape, (n,)), ("g", g.shape, (n,)),
                              ("Q", Q.shape, (n, n))):
        if shape != want:
            raise ValueError(f"{name} must have shape {want}, got {shape}")
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    s = float(s)
    scale = max(1.0, abs(s))

    def package(res, lam, status=None, note=None):
        info = dict(res.info)
        info.update(lam=lam, quad=_quad_value(Q, g, res.x),
                    inner_solves=steps, attempts=attempts)
        if note:
            info["note"] = note
        final_status = status or res.status
        telemetry.emit(
            "qcp",
            status=final_status,
            lam=lam,
            inner_solves=steps,
            iterations=iters,
            seconds=time.perf_counter() - t_start,
            note=note,
        )
        return SolveResult(
            status=final_status,
            x=res.x,
            obj=float(c @ res.x),
            iterations=iters,
            r_prim=res.r_prim,
            r_dual=res.r_dual,
            solve_time=time.perf_counter() - t_start,
            info=info,
            # the barrier ignores a seed of another program's shape
            warm_started=barrier.warm_started,
        )

    def least_quad(res):
        """The inactive row's tie-break: min quad s.t. the linear
        constraints and ``c'x`` within TIE_TOL of ``res``'s objective;
        ``res`` itself unless that QP lowers the quadratic value."""
        nonlocal steps, iters
        obj = float(c @ res.x)
        tie = solve_qp_robust(
            Q, g, sp.vstack([A, sp.csr_matrix(c)], format="csc"),
            np.append(l, -np.inf),
            np.append(u, obj + TIE_TOL * (1.0 + abs(obj))),
            warm={"x": res.x}, workspace={},
        )
        steps += 1
        iters += tie.iterations
        if tie.ok and _quad_value(Q, g, tie.x) <= _quad_value(Q, g, res.x):
            return replace(res, x=tie.x)
        return res

    barrier = solve_qp_robust(
        sp.csc_matrix((n, n)), c, A, l, u, warm=warm or None,
        workspace=workspace, quad=(Q, g, s),
    )
    steps, iters = 1, barrier.iterations
    attempts = list(barrier.info["attempts"])
    if barrier.ok:
        lam = barrier.info["lam"]
        return package(least_quad(barrier) if lam == 0.0 else barrier, lam)

    # The cold last resort: bisection on h(lam) over the chain, from
    # lam = 0, bracketing the root in tenfold steps from 1e-4 and then
    # halving it in log space.
    bisect_ws = {}  # one pattern workspace for every bisection step

    def h_at(lam):
        nonlocal steps, iters
        res = solve_qp_robust(lam * Q, c + lam * g, A, l, u,
                              workspace=bisect_ws)
        h = _quad_value(Q, g, res.x) - s
        steps += 1
        iters += res.iterations
        attempts.append({"step": "bisect",
                         "backend": res.info["attempts"][-1]["backend"],
                         "status": res.status,
                         "iterations": res.iterations, "lam": lam, "h": h})
        return res, h

    res, h0 = h_at(0.0)
    if res.failed:
        return package(res, 0.0, note="linear constraint system failed at "
                       "lam=0: " + res.info.get("note", res.status))
    if h0 <= FEAS_TOL * scale:
        return package(least_quad(res), 0.0)
    h_tol = FEAS_TOL * max(abs(h0), scale)

    lo, hi = 0.0, 1e-4
    while True:
        res, h_hi = h_at(hi)
        if res.failed:
            return package(res, hi, note="inner solve failed in the "
                           "bisection")
        if h_hi <= h_tol:
            break
        if hi >= 1e12:
            return package(res, hi, status=STATUS_INFEASIBLE,
                           note="quadratic budget appears unattainable")
        lo, hi = hi, 10.0 * hi

    best = res
    while (
        steps < MAX_ROOT_STEPS
        and hi - lo > LAM_TOL * hi
        and abs(h_hi) > 0.1 * h_tol
    ):
        mid = float(np.sqrt(lo * hi)) if lo > 0 else 0.5 * hi
        res, h = h_at(mid)
        if res.failed:
            break  # keep the best bracketed iterate
        if h <= h_tol:
            hi, h_hi, best = mid, h, res
        else:
            lo = mid
    return package(best, hi)

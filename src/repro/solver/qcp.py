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
least modeled leakage): the ``lam -> 0+`` limit of the Lagrangian
``c'x + lam * ((1/2)x'Qx + g'x - s)`` over the linear constraints.

The barrier runs through the one solver chain,
:func:`repro.solver.robust.solve_qp_robust`: warm barrier, a cold
re-check of a warm ``infeasible`` verdict, then the barrier with
``RETRY_REG``.  ADMM has no quadratic row, so the chain ends there, and
a program the barrier cannot solve comes back with the chain's own
status (never ``solved``, so no caller signs it off).  An unattainable
budget is the barrier's ``infeasible`` verdict.  On the 2,856 generated
test programs (``tests/test_solver.py``, seeds 0-59 at every size and
binding) the first barrier step solves every one.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.solver.robust import solve_qp_robust
from repro.solver.result import SolveResult

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
        finite), met to the barrier's tolerance.
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
        inactive row's tie-break), the barrier's ``z`` and convergence
        ``trace`` (with ``(lam, t)`` per entry) and the chain's
        ``attempts`` trail.

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

    def package(res, lam):
        info = dict(res.info)
        info.update(lam=lam, quad=_quad_value(Q, g, res.x),
                    inner_solves=steps)
        telemetry.emit(
            "qcp",
            status=res.status,
            lam=lam,
            inner_solves=steps,
            iterations=iters,
            seconds=time.perf_counter() - t_start,
            note=info.get("note"),
        )
        return SolveResult(
            status=res.status,
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
    # a failed chain's result may carry no lam
    lam = barrier.info.get("lam", 0.0)
    if barrier.ok and lam == 0.0:
        return package(least_quad(barrier), lam)
    return package(barrier, lam)

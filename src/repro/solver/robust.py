"""The one QP solve chain: IPM -> cold IPM check -> regularized IPM -> ADMM.

The dose-map programs are usually well behaved, but a sweep can hit an
ill-conditioned normal matrix (singular SuperLU factorization), a
diverging Mehrotra step, or a warm-start seed that blows up the first
scaling matrix.  :func:`solve_qp_robust` runs every QP through one fixed,
status-driven chain so callers (:func:`repro.core.dmopt.optimize_dose_map`,
the QCP barrier, the infeasibility probes) never see an uncaught
exception for a recoverable numeric failure.  There is no backend choice
and no tuning: every step runs its solver's defaults.

1. ``ipm``: the interior-point solver with the caller's warm state and
   pattern workspace;
2. ``ipm-cold``: only after a *warm-started* ``infeasible`` verdict --
   a pathological seed can blow up the duals and fake infeasibility,
   so the verdict is confirmed cold once before it is reported;
3. ``ipm-regularized``: on ``diverged`` / ``ill_conditioned`` /
   ``max_iter``, a **cold, diagonally regularized** IPM (``reg`` raised
   from 1e-9 to :data:`RETRY_REG` -- enough to factor rank-deficient
   normal systems without visibly perturbing the optimum);
4. ``admm``: the last resort, the cold first-order solver (it
   factorizes a quasi-definite KKT system, immune to the normal-matrix
   conditioning that stops the IPM).  ADMM has no quadratic row, so a
   program with one (``quad``, the QCP's barrier) ends after step 3.

A cold ``infeasible`` verdict ends the chain -- no solver can fix an
infeasible problem.  The full attempt trail is recorded in
``info["attempts"]`` and, when telemetry is on, as ``fallback`` events
in the run manifest.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.resilience import chaos
from repro.solver.ipm import solve_qp_ipm
from repro.solver.qp import solve_qp
from repro.solver.result import (
    STATUS_DIVERGED,
    STATUS_INFEASIBLE,
    SolveResult,
)

#: Normal-matrix regularization used by the chain's IPM retry step.
RETRY_REG = 1e-6


def _residual_score(res: SolveResult) -> float:
    score = max(res.r_prim, res.r_dual)
    return score if np.isfinite(score) else np.inf


def solve_qp_robust(
    P,
    q,
    A,
    l,
    u,
    warm: dict = None,
    workspace: dict = None,
    quad: tuple = None,
) -> SolveResult:
    """QP solve through the fallback/retry chain (see module docstring).

    Parameters
    ----------
    warm:
        Previous IPM solution state ``{"x": ..., "z": ...}`` (and
        ``"lam"`` with ``quad``) seeding the first step.  Every later
        step runs cold -- a bad seed is one of the failure modes the
        chain exists to shed.
    workspace:
        IPM pattern workspace dict, shared by the first two steps and
        across calls.
    quad:
        Optional quadratic row ``(Q, g, b)`` handed to every IPM step
        (see :func:`repro.solver.ipm.solve_qp_ipm`); the chain then has
        no ADMM step.

    Returns
    -------
    SolveResult
        The first converged attempt, else the infeasibility verdict,
        else the attempt with the smallest KKT residual.
        ``info["attempts"]`` lists every step taken as
        ``{step, backend, status, iterations}`` dicts.
    """
    attempts = []
    results = []

    def run(step: str, **call_kwargs):
        backend = "admm" if step == "admm" else "ipm"
        if chaos.solver_nan():
            # injected numeric failure: a fabricated diverged verdict,
            # exercising the same path as a real NaN blow-up
            res = SolveResult(
                status=STATUS_DIVERGED,
                x=np.zeros(np.asarray(q).size),
                obj=float("nan"),
                iterations=0,
                r_prim=float("inf"),
                r_dual=float("inf"),
                solve_time=0.0,
                info={"note": "chaos: injected solver NaN"},
            )
        else:
            if quad is not None:
                call_kwargs["quad"] = quad
            # looked up by module-level name on every call, so tracing
            # and tests can wrap either solver
            solver = solve_qp if backend == "admm" else solve_qp_ipm
            res = solver(P, q, A, l, u, **call_kwargs)
        attempts.append(
            {
                "step": step,
                "backend": backend,
                "status": res.status,
                "iterations": res.iterations,
            }
        )
        telemetry.emit("fallback", step=step, backend=backend,
                       status=res.status, iterations=res.iterations,
                       r_prim=res.r_prim, r_dual=res.r_dual)
        results.append(res)
        return res

    def finish(res: SolveResult) -> SolveResult:
        res.info["attempts"] = attempts
        return res

    def best_effort(note: str) -> SolveResult:
        for candidate in results:
            if candidate.status == STATUS_INFEASIBLE:
                return finish(candidate)
        best = min(results, key=_residual_score)
        if best.info.get("note"):
            note += f" (best attempt: {best.info['note']})"
        best.info["note"] = note
        return finish(best)

    res = run("ipm", warm=warm, workspace=workspace)
    if res.ok:
        return finish(res)

    if res.status == STATUS_INFEASIBLE:
        if not res.warm_started:
            return finish(res)
        res = run("ipm-cold", workspace=workspace)
        if res.ok or res.status == STATUS_INFEASIBLE:
            return finish(res)

    res = run("ipm-regularized", reg=RETRY_REG)
    if res.ok or res.status == STATUS_INFEASIBLE:
        return finish(res)
    if quad is not None:
        return best_effort("barrier steps exhausted without convergence")

    res = run("admm")
    if res.ok:
        return finish(res)

    return best_effort("fallback chain exhausted without convergence")

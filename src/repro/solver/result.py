"""Solver result container and status codes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Converged within tolerances.
STATUS_SOLVED = "solved"
#: Iteration limit reached before convergence (best iterate returned).
STATUS_MAX_ITER = "max_iter"
#: The problem was detected to be (primal) infeasible.
STATUS_INFEASIBLE = "infeasible"
#: Iterates left the numeric range (NaN/Inf); the last finite iterate is
#: returned but must not be signed off as a solution.
STATUS_DIVERGED = "diverged"
#: A linear system inside the solver was numerically singular; the best
#: iterate so far is returned.
STATUS_ILL_CONDITIONED = "ill_conditioned"

#: Statuses that mark a failed solve (the fallback chain retries these,
#: except ``infeasible``, which no backend change can fix).
FAILURE_STATUSES = (STATUS_INFEASIBLE, STATUS_DIVERGED,
                    STATUS_ILL_CONDITIONED)


@dataclass
class SolveResult:
    """Outcome of a QP/QCP solve.

    Attributes
    ----------
    status:
        One of the STATUS_* constants.
    x:
        Primal solution (best iterate when not converged).
    obj:
        Objective value at ``x``.
    iterations:
        Solver iterations used (summed over every solve for QCP).
    r_prim, r_dual:
        Final unscaled primal/dual residual infinity norms.
    solve_time:
        Wall-clock seconds.
    info:
        Solver-specific extras (e.g. QCP's multiplier ``lam``, the
        fallback chain's ``attempts`` trail, or a diagnostic ``note``).
    warm_started:
        True when the solve was seeded from a previous solution (sweep
        neighbor or guard retry) rather than the solver's cold default
        point.
    """

    status: str
    x: np.ndarray
    obj: float
    iterations: int
    r_prim: float
    r_dual: float
    solve_time: float
    info: dict = field(default_factory=dict)
    warm_started: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SOLVED

    @property
    def failed(self) -> bool:
        """True for diagnostic statuses whose iterate must not be used."""
        return self.status in FAILURE_STATUSES

    def warm_state(self) -> dict:
        """IPM warm-start seed ``{"x": ..., "z": ...}`` from this result,
        plus the quadratic row's multiplier ``"lam"`` for a QCP."""
        state = {"x": self.x}
        for key in ("z", "lam"):
            if self.info.get(key) is not None:
                state[key] = self.info[key]
        return state

    def __repr__(self):
        warm = ", warm" if self.warm_started else ""
        return (
            f"SolveResult({self.status}, obj={self.obj:.6g}, "
            f"iters={self.iterations}, r_prim={self.r_prim:.2e}, "
            f"r_dual={self.r_dual:.2e}, {self.solve_time:.2f}s{warm})"
        )


def diagnostic_result(status: str, n: int, note: str,
                      solve_time: float = 0.0, **info) -> SolveResult:
    """A zero-iterate :class:`SolveResult` for degenerate inputs.

    Used when a solve cannot even start (``l > u`` bounds, empty
    problems): the caller gets a structured diagnosis instead of a
    traceback, per the robustness contract of :mod:`repro.solver.robust`.
    """
    payload = {"note": note}
    payload.update(info)
    return SolveResult(
        status=status,
        x=np.zeros(int(n)),
        obj=float("nan"),
        iterations=0,
        r_prim=float("inf"),
        r_dual=float("inf"),
        solve_time=solve_time,
        info=payload,
    )

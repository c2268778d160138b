"""Infeasibility diagnosis for DMopt programs (relax-and-resolve probing).

When a DMopt solve comes back ``infeasible`` the interesting question
is *which constraint family kills it*: the dose range ``L <= d <= U``
(paper eq. 3/8), the smoothness bound ``delta`` (eq. 4/9), the clock
bound ``tau`` (eq. 6/11), or in QCP mode the quadratic leakage budget
``xi``.  :func:`diagnose_infeasibility` probes this by re-solving
feasibility problems with one family relaxed at a time; a family whose
relaxation restores feasibility is implicated.  The probes are linear,
so relaxing the leakage budget means probing the linear rows as they
stand: when those are feasible, the budget alone is to blame.

For the timing family the diagnosis is quantitative: the tightest
achievable clock bound ``tau_min`` is found by minimizing ``T`` subject
to every *other* constraint, so the report carries the minimal slack
``tau_min - tau`` a caller must concede -- the paper's tau/delta
trade-off surfaced as data instead of a dead solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.solver.robust import solve_qp_robust

#: Constraint family labels used in reports and probes.
FAMILY_DOSE_RANGE = "dose_range"
FAMILY_SMOOTHNESS = "smoothness"
FAMILY_TIMING = "timing"
FAMILY_LEAKAGE_BUDGET = "leakage_budget"


@dataclass
class InfeasibilityReport:
    """Outcome of relax-and-resolve probing on an infeasible DMopt solve.

    Attributes
    ----------
    blocking:
        Constraint families whose relaxation (alone) restores
        feasibility, in probe order.  Empty when no single family
        explains the conflict (structurally infeasible program).
    tau_requested:
        The clock bound that was asked for (``None`` in QCP mode).
    tau_min:
        Tightest achievable clock bound under the dose-range and
        smoothness limits (``None`` when even the clock-free program is
        infeasible).
    tau_slack_needed:
        ``max(0, tau_min - tau_requested)`` -- the minimal concession
        that would make the program feasible, when both are known.
    probes:
        Per-family probe outcome: family -> solver status string.
    seconds:
        Wall-clock cost of the diagnosis.
    """

    blocking: list = field(default_factory=list)
    tau_requested: float = None
    tau_min: float = None
    tau_slack_needed: float = None
    probes: dict = field(default_factory=dict)
    seconds: float = 0.0

    def summary(self) -> str:
        """The diagnosis; the verdict is the solve's status."""
        if not self.blocking:
            return "no single constraint family explains it"
        parts = [f"blocking families {self.blocking}"]
        if self.tau_min is not None and self.tau_requested is not None:
            parts.append(
                f"tau={self.tau_requested:.4f} requested but "
                f"tau_min={self.tau_min:.4f} achievable "
                f"(needs +{self.tau_slack_needed:.4f} ns slack)"
            )
        elif self.tau_min is not None:
            parts.append(f"tau_min={self.tau_min:.4f} achievable")
        return "; ".join(parts)


def _relaxed_bounds(form, family, tau):
    """(l, u) with one constraint family's rows opened to +-inf.

    The leakage budget is the quadratic row, which no probe carries, so
    relaxing it leaves the linear rows as they stand.
    """
    l = form.l.copy()
    u = form.u.copy()
    u[form.row_clock] = np.inf if tau is None else float(tau)
    nr, ns = form.n_range_rows, form.n_smooth_rows
    if family == FAMILY_DOSE_RANGE:
        l[:nr] = -np.inf
        u[:nr] = np.inf
    elif family == FAMILY_SMOOTHNESS:
        l[nr : nr + ns] = -np.inf
        u[nr : nr + ns] = np.inf
    elif family == FAMILY_TIMING:
        u[form.row_clock] = np.inf
    return l, u


def _feasibility_probe(form, l, u):
    """Solve a pure feasibility problem over the given bounds.

    A tiny ridge keeps the IPM's normal matrix positive definite; the
    objective value is irrelevant, only the status matters.
    """
    n = form.n_vars
    ridge = sp.eye(n, format="csc") * 1e-8
    return solve_qp_robust(ridge, np.zeros(n), form.A, l, u)


def min_achievable_tau(form):
    """Tightest clock bound achievable under the non-timing constraints.

    Minimizes ``T`` subject to every constraint except the clock row.
    Returns ``(tau_min, SolveResult)``; ``tau_min`` is ``None`` when
    even that program fails to solve.
    """
    n = form.n_vars
    c = np.zeros(n)
    c[form.idx_T] = 1.0
    l = form.l.copy()
    u = form.u.copy()
    u[form.row_clock] = np.inf
    ridge = sp.eye(n, format="csc") * 1e-10
    res = solve_qp_robust(ridge, c, form.A, l, u)
    if res.ok:
        return float(res.x[form.idx_T]), res
    return None, res


def diagnose_infeasibility(form, tau: float = None) -> InfeasibilityReport:
    """Attribute an infeasible DMopt program to a constraint family.

    Parameters
    ----------
    form:
        The :class:`~repro.core.formulate.Formulation` that produced the
        infeasible solve.
    tau:
        The clock bound in force during that solve (``None`` when the
        clock row was open, i.e. QCP mode, whose quadratic leakage
        budget is then probed first: ``blocking == ["leakage_budget"]``
        when the linear rows alone are feasible).

    Returns
    -------
    InfeasibilityReport
    """
    t0 = time.perf_counter()
    report = InfeasibilityReport(tau_requested=tau)

    families = [FAMILY_TIMING, FAMILY_DOSE_RANGE, FAMILY_SMOOTHNESS]
    if tau is None:
        # QCP mode: the clock row is open, so the timing family cannot
        # be the culprit, and every probe drops the quadratic row
        families = [FAMILY_LEAKAGE_BUDGET, FAMILY_DOSE_RANGE,
                    FAMILY_SMOOTHNESS]
    for family in families:
        l, u = _relaxed_bounds(form, family, tau)
        probe = _feasibility_probe(form, l, u)
        report.probes[family] = probe.status
        if probe.ok:
            report.blocking.append(family)
            if family == FAMILY_LEAKAGE_BUDGET:
                # the linear rows hold as they stand: relaxing one of
                # them cannot be what the program needs
                break

    if tau is not None and FAMILY_TIMING in report.blocking:
        tau_min, _ = min_achievable_tau(form)
        report.tau_min = tau_min
        if tau_min is not None:
            report.tau_slack_needed = max(0.0, tau_min - float(tau))

    report.seconds = time.perf_counter() - t0
    telemetry.emit(
        "infeasibility",
        blocking=report.blocking,
        tau_requested=report.tau_requested,
        tau_min=report.tau_min,
        tau_slack_needed=report.tau_slack_needed,
        probes=report.probes,
        seconds=report.seconds,
    )
    return report

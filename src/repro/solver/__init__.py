"""Convex QP/QCP solvers (the CPLEX substitute) with a robustness layer."""

from repro.solver.diagnose import (
    FAMILY_DOSE_RANGE,
    FAMILY_LEAKAGE_BUDGET,
    FAMILY_SMOOTHNESS,
    FAMILY_TIMING,
    InfeasibilityReport,
    diagnose_infeasibility,
    min_achievable_tau,
)
from repro.solver.ipm import solve_qp_ipm
from repro.solver.qcp import solve_qcp
from repro.solver.qp import solve_qp
from repro.solver.result import (
    FAILURE_STATUSES,
    STATUS_DIVERGED,
    STATUS_ILL_CONDITIONED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    STATUS_SOLVED,
    SolveResult,
    diagnostic_result,
)
from repro.solver.robust import solve_qp_robust

__all__ = [
    "solve_qp",
    "solve_qp_ipm",
    "solve_qp_robust",
    "solve_qcp",
    "diagnose_infeasibility",
    "min_achievable_tau",
    "InfeasibilityReport",
    "FAMILY_DOSE_RANGE",
    "FAMILY_LEAKAGE_BUDGET",
    "FAMILY_SMOOTHNESS",
    "FAMILY_TIMING",
    "SolveResult",
    "diagnostic_result",
    "STATUS_SOLVED",
    "STATUS_MAX_ITER",
    "STATUS_INFEASIBLE",
    "STATUS_DIVERGED",
    "STATUS_ILL_CONDITIONED",
    "FAILURE_STATUSES",
]

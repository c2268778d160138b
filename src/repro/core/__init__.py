"""Core: the paper's dose map + placement co-optimization."""

from repro.core.certify import (
    CertificateReport,
    CertificationError,
    certify_result,
    enforce_certificate,
)
from repro.core.dmopt import DMoptResult, MODE_QCP, MODE_QP, optimize_dose_map
from repro.core.dosepl import DoseplConfig, DoseplResult, run_dosepl
from repro.core.flow import FlowResult, run_flow
from repro.core.formulate import (
    Formulation,
    build_formulation,
    prune_formulation,
)
from repro.core.corners import (
    CornerAwareResult,
    corner_context,
    optimize_dose_map_corners,
)
from repro.core.glbias import GLBiasResult, bias_gate_lengths
from repro.core.model import DesignContext
from repro.core.pareto import (
    ParetoPoint,
    is_frontier_monotone,
    knee_point,
    tradeoff_curve,
)
from repro.core.snap import snap_dose_map
from repro.core.sweep import (
    SweepPoint,
    bias_critical_paths,
    dmopt_dose_range_sweep,
    slack_profile,
    uniform_dose_sweep,
)

__all__ = [
    "DesignContext",
    "CertificateReport",
    "CertificationError",
    "certify_result",
    "enforce_certificate",
    "Formulation",
    "build_formulation",
    "prune_formulation",
    "optimize_dose_map",
    "DMoptResult",
    "MODE_QP",
    "MODE_QCP",
    "snap_dose_map",
    "run_dosepl",
    "DoseplConfig",
    "DoseplResult",
    "run_flow",
    "FlowResult",
    "uniform_dose_sweep",
    "dmopt_dose_range_sweep",
    "SweepPoint",
    "bias_critical_paths",
    "slack_profile",
    "tradeoff_curve",
    "ParetoPoint",
    "is_frontier_monotone",
    "knee_point",
    "bias_gate_lengths",
    "GLBiasResult",
    "corner_context",
    "optimize_dose_map_corners",
    "CornerAwareResult",
]

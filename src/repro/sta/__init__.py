"""Static timing analysis substrate.

Two interchangeable engines produce identical :class:`TimingResult`
objects:

``vector`` (default)
    :class:`~repro.sta.compiled.VectorTimingAnalyzer` -- compiled
    timing graph, level-parallel NumPy propagation, incremental
    re-timing.  The production hot path.
``reference``
    :class:`~repro.sta.timing.TimingAnalyzer` -- the per-gate dict
    engine, kept as the readable golden model for differential testing.

Pick one with :func:`make_analyzer` or the ``REPRO_STA_BACKEND``
environment variable.
"""

import os

from repro.sta.compiled import CompiledTimingGraph, VectorTimingAnalyzer
from repro.sta.erc import ErcResult, check_electrical_rules, default_limits
from repro.sta.hold import DEFAULT_HOLD_NS, HoldResult, analyze_hold
from repro.sta.paths import TimingPath, criticality_histogram, top_k_paths
from repro.sta.report import report_dose_map, report_power, report_timing
from repro.sta.timing import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_PO_LOAD,
    TimingAnalyzer,
    TimingResult,
)
from repro.sta.wire import arc_wire_delay, net_wire_cap

#: Engine used when callers don't specify one ("vector" | "reference").
DEFAULT_STA_BACKEND = os.environ.get("REPRO_STA_BACKEND", "vector")

_BACKENDS = {
    "vector": VectorTimingAnalyzer,
    "reference": TimingAnalyzer,
}


def make_analyzer(netlist, library, placement, backend: str = None, **kwargs):
    """Construct an STA engine for the requested backend.

    ``backend`` defaults to :data:`DEFAULT_STA_BACKEND`.  Both engines
    share the ``analyze(doses, clock_period) -> TimingResult`` contract;
    only the ``vector`` engine additionally offers ``rebind``,
    ``update_placement``, ``mct``, ``trial_mct`` and ``revert_trial``
    (undo the last forward pass, e.g. a rejected trial swap).
    """
    name = DEFAULT_STA_BACKEND if backend is None else backend
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown STA backend {name!r}; expected one of {sorted(_BACKENDS)}"
        ) from None
    return cls(netlist, library, placement, **kwargs)


__all__ = [
    "TimingAnalyzer",
    "VectorTimingAnalyzer",
    "CompiledTimingGraph",
    "TimingResult",
    "make_analyzer",
    "DEFAULT_STA_BACKEND",
    "DEFAULT_INPUT_SLEW",
    "DEFAULT_PO_LOAD",
    "TimingPath",
    "top_k_paths",
    "criticality_histogram",
    "net_wire_cap",
    "arc_wire_delay",
    "analyze_hold",
    "HoldResult",
    "DEFAULT_HOLD_NS",
    "report_timing",
    "report_power",
    "report_dose_map",
    "check_electrical_rules",
    "ErcResult",
    "default_limits",
]

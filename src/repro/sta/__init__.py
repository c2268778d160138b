"""Static timing analysis substrate.

One engine: :class:`~repro.sta.compiled.VectorTimingAnalyzer` over a
:class:`~repro.sta.compiled.CompiledTimingGraph` -- level-parallel NumPy
propagation with incremental re-timing.  Top-K paths and the signoff
reports read the same compiled graph.  :func:`make_analyzer` builds one.
"""

from repro.sta.compiled import CompiledTimingGraph, VectorTimingAnalyzer
from repro.sta.paths import TimingPath, criticality_histogram, top_k_paths
from repro.sta.report import report_dose_map, report_power, report_timing
from repro.sta.timing import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_PO_LOAD,
    TimingArrays,
    TimingResult,
)
from repro.sta.wire import arc_wire_delay, net_wire_cap


def make_analyzer(netlist, library, placement, graph=None):
    """Compile the design's timing graph and bind it to ``placement``.

    ``graph`` shares an existing :class:`CompiledTimingGraph` of the
    same design instead.  Primary inputs switch with
    ``DEFAULT_INPUT_SLEW`` and primary outputs drive ``DEFAULT_PO_LOAD``.
    """
    return VectorTimingAnalyzer(netlist, library, placement, graph=graph)


__all__ = [
    "VectorTimingAnalyzer",
    "CompiledTimingGraph",
    "TimingResult",
    "TimingArrays",
    "make_analyzer",
    "DEFAULT_INPUT_SLEW",
    "DEFAULT_PO_LOAD",
    "TimingPath",
    "top_k_paths",
    "criticality_histogram",
    "net_wire_cap",
    "arc_wire_delay",
    "report_timing",
    "report_power",
    "report_dose_map",
]

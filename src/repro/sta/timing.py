"""The golden timer's result type and defaults.

The golden timer of the flow (PrimeTime's role in the paper) is
:class:`repro.sta.compiled.VectorTimingAnalyzer`: forward arrival/slew
propagation over the combinational graph -- with sequential cells acting
as path sources (clk->q) and path endpoints (D-pin arrival + setup) per
the paper's unrolling -- followed by a backward required-time pass for
slacks.

Besides MCT and slacks, each pass reports every instance's **input slew
and output load**, which is exactly what the dose-map optimizer's
coefficient fitting consumes ("timing analysis can be performed to
generate the input slews and output load capacitances of all the cell
instances", Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default primary-input transition time (ns).
DEFAULT_INPUT_SLEW = 0.05
#: Fixed load (fF) seen by nets that drive a primary output.
DEFAULT_PO_LOAD = 2.0


@dataclass
class TimingResult:
    """Result of one STA pass.

    All per-gate dictionaries are keyed by gate name.  ``arrival`` and
    ``slack`` refer to the gate's *output* node; ``gate_delay`` is the
    delay through the gate along its critical input; ``input_slew`` and
    ``load`` are the fitting inputs; ``wire_delay`` maps (driver, sink)
    gate pairs to the interconnect arc delay between them.
    """

    mct: float
    arrival: dict
    slack: dict
    gate_delay: dict
    input_slew: dict
    load: dict
    wire_delay: dict
    endpoint_arrival: dict = field(default_factory=dict)

    @property
    def worst_slack(self) -> float:
        return min(self.slack.values())

    def critical_gates(self, threshold: float = 0.0):
        """Gates with slack <= threshold."""
        return [g for g, s in self.slack.items() if s <= threshold]

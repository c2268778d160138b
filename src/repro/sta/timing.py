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

from dataclasses import dataclass

import numpy as np

#: Default primary-input transition time (ns).
DEFAULT_INPUT_SLEW = 0.05
#: Fixed load (fF) seen by nets that drive a primary output.
DEFAULT_PO_LOAD = 2.0


@dataclass(frozen=True)
class TimingArrays:
    """One STA pass as arrays, laid out on its compiled timing graph.

    Per-gate arrays are in ``graph.names`` order; ``fi_wire`` is the wire
    delay of each real fan-in arc (``graph.real_fi`` order) and
    ``ff_wire`` of each flip-flop data-pin arc.  Every array is the
    pass's own copy: later passes of the engine do not change it.
    """

    arrival: np.ndarray
    slack: np.ndarray
    gate_delay: np.ndarray
    input_slew: np.ndarray
    load: np.ndarray
    fi_wire: np.ndarray
    ff_wire: np.ndarray


class _DictField:
    """A :class:`TimingResult` dict: given, or built on first read by the
    zero-argument callable given in its place."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


_DICT_FIELDS = (
    "arrival", "slack", "gate_delay", "input_slew", "load", "wire_delay",
    "endpoint_arrival",
)


class TimingResult:
    """Result of one STA pass.

    All per-gate dictionaries are keyed by gate name.  ``arrival`` and
    ``slack`` refer to the gate's *output* node; ``gate_delay`` is the
    delay through the gate along its critical input; ``input_slew`` and
    ``load`` are the fitting inputs; ``wire_delay`` maps (driver, sink)
    gate pairs to the interconnect arc delay between them.

    The STA engine passes each dict as a builder and ``arrays`` as the
    pass's :class:`TimingArrays`; a dict is then built on its first read
    (most passes are read only for ``mct`` or through ``arrays``).
    Results compare equal when their MCT and every dict are equal.
    """

    arrival = _DictField()
    slack = _DictField()
    gate_delay = _DictField()
    input_slew = _DictField()
    load = _DictField()
    wire_delay = _DictField()
    endpoint_arrival = _DictField()

    def __init__(self, mct: float, arrival, slack, gate_delay, input_slew,
                 load, wire_delay, endpoint_arrival=None,
                 arrays: TimingArrays = None):
        self.mct = mct
        self.arrival = arrival
        self.slack = slack
        self.gate_delay = gate_delay
        self.input_slew = input_slew
        self.load = load
        self.wire_delay = wire_delay
        self.endpoint_arrival = (
            {} if endpoint_arrival is None else endpoint_arrival
        )
        self.arrays = arrays

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mct == other.mct and all(
            getattr(self, f) == getattr(other, f) for f in _DICT_FIELDS
        )

    __hash__ = None

    def __repr__(self):
        return f"TimingResult(mct={self.mct!r})"

    @property
    def worst_slack(self) -> float:
        return min(self.slack.values())

    def critical_gates(self, threshold: float = 0.0):
        """Gates with slack <= threshold."""
        return [g for g, s in self.slack.items() if s <= threshold]

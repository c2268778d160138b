"""Min-delay (hold) analysis.

The paper's introduction distinguishes setup-critical devices (want more
dose, shorter gates) from hold-critical devices ("for devices that are on
hold timing-critical paths ... a smaller than nominal dose on poly layer
... will be desirable").  Its formulations optimize setup timing only;
this module supplies the complementary check: shortest-path arrival
analysis and per-endpoint hold slack, so a dose map can be *validated*
against hold safety after optimization (more dose on a short path could
otherwise race the clock).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sta.wire import arc_wire_delay

#: Default flip-flop hold requirement (ns): data must stay stable this
#: long after the clock edge.
DEFAULT_HOLD_NS = 0.012


@dataclass
class HoldResult:
    """Min-delay analysis result.

    ``min_arrival`` maps gate names to the *earliest* output transition
    (ns after the launching clock edge); ``hold_slack`` maps capture
    endpoints (``"FF:<flop>:<net>"``) to min-arrival minus the hold
    requirement.  Negative slack = hold violation.
    """

    min_arrival: dict
    hold_slack: dict

    @property
    def worst_hold_slack(self) -> float:
        if not self.hold_slack:
            return float("inf")
        return min(self.hold_slack.values())

    @property
    def violations(self) -> list:
        return [ep for ep, s in self.hold_slack.items() if s < 0]


def gate_variants(library, graph, doses=None) -> list:
    """Characterized cell per gate, in graph order, under ``doses``."""
    if doses is None:
        return [library.nominal(m) for m in graph.masters]
    return [
        library.characterized(m, *doses.get(name, (0.0, 0.0)))
        for name, m in zip(graph.names, graph.masters)
    ]


def analyze_hold(analyzer, doses=None, hold_ns: float = DEFAULT_HOLD_NS) -> HoldResult:
    """Shortest-path (early-mode) timing over an analyzer's design.

    Mirrors the max-mode pass of
    :class:`~repro.sta.compiled.VectorTimingAnalyzer` but propagates the
    *minimum* arrival: for each gate the earliest input transition plus
    the gate delay at that input's slew.  Sequential cells launch at
    clk->q as in max-mode.  Gate order and net loads come from the
    analyzer's compiled graph.
    """
    graph = analyzer.graph
    nl = analyzer.netlist
    place = analyzer.placement
    node = analyzer.node
    loads = analyzer.output_loads(doses).tolist()
    variants = gate_variants(analyzer.library, graph, doses)
    is_seq = graph.is_seq.tolist()

    min_arrival: dict = {}
    out_slew: dict = {}
    hold_slack: dict = {}

    for i, name in enumerate(graph.names):
        gate = nl.gates[name]
        cc = variants[i]
        load = loads[i]
        if is_seq[i]:
            delay = cc.delay_at(analyzer.input_slew, load)
            min_arrival[name] = delay
            out_slew[name] = cc.slew_at(analyzer.input_slew, load)
            continue
        # early mode minimizes the full per-pin (arrival + delay at that
        # pin's slew), which guarantees min-arrival <= max-arrival: the
        # max-mode value is one particular pin's sum, and this is the
        # minimum over all pins' sums
        best_total, best_slew = None, analyzer.input_slew
        for net_name in gate.inputs:
            net = nl.nets[net_name]
            if net.driver is None:
                arr, slew = 0.0, analyzer.input_slew
            else:
                drv = net.driver
                wd = arc_wire_delay(nl, place, drv, name, cc.input_cap_ff, node)
                arr, slew = min_arrival[drv] + wd, out_slew[drv]
            total = arr + cc.delay_at(slew, load)
            if best_total is None or total < best_total:
                best_total, best_slew = total, slew
        min_arrival[name] = (
            best_total
            if best_total is not None
            else cc.delay_at(analyzer.input_slew, load)
        )
        out_slew[name] = cc.slew_at(best_slew, load)

    # hold endpoints: FF data pins driven by gates
    for i, name in enumerate(graph.names):
        if not is_seq[i]:
            continue
        gate = nl.gates[name]
        cc = variants[i]
        for net_name in gate.inputs:
            net = nl.nets[net_name]
            if net.driver is None:
                continue
            drv = net.driver
            wd = arc_wire_delay(nl, place, drv, name, cc.input_cap_ff, node)
            arrival = min_arrival[drv] + wd
            hold_slack[f"FF:{name}:{net_name}"] = arrival - hold_ns

    return HoldResult(min_arrival=min_arrival, hold_slack=hold_slack)

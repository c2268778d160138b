"""Wire parasitics and delay from placement geometry.

The paper's flow extracts golden wire parasitics once (dose-map changes on
poly/active do not move wires) and adds wire delay "in between gates"
(Section III).  We estimate per-net capacitance from HPWL and per-arc
delay from the driver-to-sink Manhattan distance with a first-order Elmore
model of a distributed RC line loaded by the sink pin.
"""

from __future__ import annotations

from repro.constants import KOHM_FF_TO_NS
from repro.placement.hpwl import net_hpwl


def net_wire_cap(netlist, placement, net_name: str, node) -> float:
    """Total capacitance (fF) of one net from its HPWL estimate."""
    return node.wire_c_per_um * net_hpwl(netlist, placement, net_name)


def arc_wire_delay(
    netlist, placement, driver_gate: str, sink_gate: str, sink_cap_ff: float, node
) -> float:
    """Elmore delay (ns) from a driver output to one sink pin.

    Distributed line of length d: ``R_wire * (C_wire/2 + C_sink)`` with
    R_wire and C_wire proportional to the Manhattan driver-sink distance.
    Unplaced endpoints (primary I/O) contribute zero wire delay.
    """
    if not (placement.is_placed(driver_gate) and placement.is_placed(sink_gate)):
        return 0.0
    dist = placement.distance(driver_gate, sink_gate)
    r_w = node.wire_r_per_um * dist
    c_w = node.wire_c_per_um * dist
    return r_w * (0.5 * c_w + sink_cap_ff) * KOHM_FF_TO_NS

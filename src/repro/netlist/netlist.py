"""Gate-level netlist model.

A :class:`Netlist` is a set of named gates connected by named nets, with
primary inputs/outputs.  Sequential cells (flip-flops/latches) are
ordinary gates whose masters carry ``is_sequential``; for timing, their
outputs are treated as path start points (clk->q) and their data inputs as
path end points (setup) -- the standard "unrolling" the paper invokes in
Section II-C, which reduces the design to a combinational graph between a
fictitious source (index n+1) and sink (index 0).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Gate:
    """One cell instance.

    Attributes
    ----------
    name:
        Unique instance name.
    master:
        Library master name (e.g. ``"NAND2X1"``).
    inputs:
        Input net names, in pin order.
    output:
        Output net name (single-output cells only, as in the paper's
        model; multi-output masters are decomposed by the generators).
    """

    name: str
    master: str
    inputs: tuple
    output: str


@dataclass
class Net:
    """A net: one driver (gate output or primary input) and its sinks."""

    name: str
    driver: str = None  # gate name, or None when driven by a primary input
    sinks: list = field(default_factory=list)  # (gate_name, pin_index)
    is_primary_input: bool = False
    is_primary_output: bool = False

    @property
    def fanout(self) -> int:
        return len(self.sinks) + (1 if self.is_primary_output else 0)


class NetlistError(ValueError):
    """Structural problem in a netlist (multiple drivers, cycles, ...)."""


class Netlist:
    """A gate-level design.

    Gates and nets are stored in insertion order, which together with the
    seeded generators makes every derived artifact (placement, STA,
    optimization) fully deterministic.
    """

    def __init__(self, name: str, node_name: str = "65nm"):
        self.name = name
        self.node_name = node_name
        self.gates: dict = {}
        self.nets: dict = {}
        self.primary_inputs: list = []
        self.primary_outputs: list = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _net(self, net_name: str) -> Net:
        net = self.nets.get(net_name)
        if net is None:
            net = Net(net_name)
            self.nets[net_name] = net
        return net

    def add_primary_input(self, net_name: str) -> None:
        net = self._net(net_name)
        if net.driver is not None:
            raise NetlistError(f"net {net_name!r} already driven by {net.driver!r}")
        if net.is_primary_input:
            raise NetlistError(f"primary input {net_name!r} declared twice")
        net.is_primary_input = True
        self.primary_inputs.append(net_name)

    def add_primary_output(self, net_name: str) -> None:
        net = self._net(net_name)
        if net.is_primary_output:
            raise NetlistError(f"primary output {net_name!r} declared twice")
        net.is_primary_output = True
        self.primary_outputs.append(net_name)

    def add_gate(self, name: str, master: str, inputs, output: str) -> Gate:
        """Add a cell instance; validates single-driver nets."""
        if name in self.gates:
            raise NetlistError(f"gate {name!r} declared twice")
        gate = Gate(name=name, master=master, inputs=tuple(inputs), output=output)
        out_net = self._net(output)
        if out_net.driver is not None or out_net.is_primary_input:
            raise NetlistError(f"net {output!r} has multiple drivers")
        out_net.driver = name
        for pin, net_name in enumerate(gate.inputs):
            self._net(net_name).sinks.append((name, pin))
        self.gates[name] = gate
        return gate

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def gate(self, name: str) -> Gate:
        try:
            return self.gates[name]
        except KeyError:
            raise KeyError(f"unknown gate {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise KeyError(f"unknown net {name!r}") from None

    def fanin_gates(self, gate_name: str):
        """Names of gates driving the inputs of ``gate_name`` (no PIs)."""
        result = []
        for net_name in self.gate(gate_name).inputs:
            driver = self.nets[net_name].driver
            if driver is not None:
                result.append(driver)
        return result

    def fanout_gates(self, gate_name: str):
        """Names of gates driven by the output of ``gate_name``."""
        out = self.gate(gate_name).output
        return [sink for sink, _pin in self.nets[out].sinks]

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    def master_histogram(self) -> dict:
        """Instance count per master name."""
        hist: dict = {}
        for g in self.gates.values():
            hist[g.master] = hist.get(g.master, 0) + 1
        return hist

    def dose_array(self, doses) -> np.ndarray:
        """Per-gate (poly %, active %) doses as an (n, 2) array in gate order.

        ``doses`` is a mapping gate name -> (poly, active), where missing
        gates are at nominal dose, or already such an array.
        """
        if isinstance(doses, Mapping):
            zero = (0.0, 0.0)
            get = doses.get
            return np.array(
                [get(name, zero) for name in self.gates], dtype=float
            ).reshape(-1, 2)
        doses = np.asarray(doses, dtype=float)
        if doses.shape != (len(self.gates), 2):
            raise ValueError(
                f"dose array of shape {doses.shape}, expected "
                f"({len(self.gates)}, 2)"
            )
        return doses

    # ------------------------------------------------------------------
    # validation and ordering
    # ------------------------------------------------------------------
    def validate(self, library) -> None:
        """Check structural sanity against a :class:`CellLibrary`.

        * every master exists and pin counts match,
        * every net has a driver (gate or primary input),
        * no combinational cycles (flip-flop outputs break cycles).
        """
        for g in self.gates.values():
            master = library.cell(g.master)  # raises on unknown master
            expected = master.n_inputs + (1 if master.is_sequential else 0)
            # Sequential cells carry an implicit clock pin that we do not
            # model as a net; data pins only.
            if len(g.inputs) != master.n_inputs:
                raise NetlistError(
                    f"gate {g.name!r} ({g.master}): {len(g.inputs)} inputs, "
                    f"master expects {master.n_inputs} (+clock: {expected})"
                )
        for net in self.nets.values():
            if net.driver is None and not net.is_primary_input:
                raise NetlistError(f"net {net.name!r} has no driver")
        self.topological_order(library)  # raises on cycles

    def topological_order(self, library) -> list:
        """Gate names in combinational topological order.

        Sequential gates appear first (they are timing sources); a cycle
        through combinational gates raises :class:`NetlistError`.
        """
        is_seq = {
            name: library.cell(g.master).is_sequential
            for name, g in self.gates.items()
        }
        indeg = {}
        for name in self.gates:
            if is_seq[name]:
                indeg[name] = 0  # FF: launches at clk edge, no comb fanin dep
            else:
                indeg[name] = len(self.fanin_gates(name))
        queue = deque(name for name in self.gates if indeg[name] == 0)
        seen_in_queue = set(queue)
        order = []
        visited = set()
        while queue:
            name = queue.popleft()
            if name in visited:
                continue
            visited.add(name)
            order.append(name)
            for succ in self.fanout_gates(name):
                if is_seq[succ]:
                    continue  # data arc into a FF ends the path
                indeg[succ] -= 1
                if indeg[succ] == 0 and succ not in seen_in_queue:
                    queue.append(succ)
                    seen_in_queue.add(succ)
        if len(order) != len(self.gates):
            missing = sorted(set(self.gates) - visited)[:5]
            raise NetlistError(
                f"combinational cycle detected; unplaced gates include {missing}"
            )
        return order

    def __repr__(self):
        return (
            f"Netlist({self.name!r}, {self.n_gates} gates, {self.n_nets} nets, "
            f"{len(self.primary_inputs)} PIs, {len(self.primary_outputs)} POs)"
        )

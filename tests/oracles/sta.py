"""Reference STA engine: the per-gate dict timer, kept as a test oracle.

:class:`TimingAnalyzer` walks the netlist gate by gate with plain
dictionaries.  It is the readable golden model that the production
engine (:class:`repro.sta.compiled.VectorTimingAnalyzer`) must match
to the last ulp; the differential suites compare the two.
"""

from __future__ import annotations

from repro.sta.timing import DEFAULT_INPUT_SLEW, DEFAULT_PO_LOAD, TimingResult
from repro.sta.wire import arc_wire_delay, net_wire_cap


def beats_worst_pin(arr, slew, best_arr, best_slew) -> bool:
    """Deterministic worst-pin order: lexicographic max on (arrival, slew).

    The critical input of a gate is the latest-arriving pin; among pins
    with *exactly* equal arrival the larger slew wins.  Every STA backend
    must implement this precise ordering (the vectorized engine mirrors
    it in :func:`repro.sta.compiled.lex_max_reduce`), otherwise
    equal-arrival pins would make gate delays backend-dependent.
    """
    return arr > best_arr or (arr == best_arr and slew > best_slew)


class TimingAnalyzer:
    """STA engine bound to one (netlist, library, placement).

    Parameters
    ----------
    netlist, library, placement:
        The design under analysis.
    input_slew:
        Transition time assumed at primary inputs and clock pins (ns).
    po_load:
        Capacitive load on primary outputs (fF).

    The expensive topological preprocessing is done once; ``analyze`` can
    then be called repeatedly with different dose assignments (the golden
    signoff after each DMopt / dosePl step).
    """

    def __init__(
        self,
        netlist,
        library,
        placement,
        input_slew: float = DEFAULT_INPUT_SLEW,
        po_load: float = DEFAULT_PO_LOAD,
    ):
        self.netlist = netlist
        self.library = library
        self.placement = placement
        self.input_slew = float(input_slew)
        self.po_load = float(po_load)
        self.node = library.node
        self._order = netlist.topological_order(library)
        self._is_seq = {
            name: library.cell(g.master).is_sequential
            for name, g in netlist.gates.items()
        }
        self._nominal_loads = None

    def invalidate_caches(self) -> None:
        """Drop cached nominal net loads (call after moving cells)."""
        self._nominal_loads = None

    # ------------------------------------------------------------------
    def _variant(self, gate_name: str, doses):
        """Characterized cell for a gate under the dose assignment."""
        master = self.netlist.gate(gate_name).master
        if doses is None:
            return self.library.nominal(master)
        dp, da = doses.get(gate_name, (0.0, 0.0))
        return self.library.characterized(master, dp, da)

    def _net_loads(self, doses):
        """Capacitive load (fF) per net: wire + sink pins (+ PO load).

        The nominal (``doses is None``) loads depend only on geometry and
        the zero-dose library, so they are computed once per analyzer and
        reused across calls (``invalidate_caches`` resets them).
        """
        if doses is None and self._nominal_loads is not None:
            return self._nominal_loads
        loads = {}
        for net_name, net in self.netlist.nets.items():
            cap = net_wire_cap(
                self.netlist, self.placement, net_name, self.node
            )
            for sink, _pin in net.sinks:
                cap += self._variant(sink, doses).input_cap_ff
            if net.is_primary_output:
                cap += self.po_load
            loads[net_name] = cap
        if doses is None:
            self._nominal_loads = loads
        return loads

    # ------------------------------------------------------------------
    def analyze(self, doses=None, clock_period: float = None) -> TimingResult:
        """Run one STA pass.

        Parameters
        ----------
        doses:
            Optional mapping ``gate name -> (poly dose %, active dose %)``;
            missing gates are at nominal dose.
        clock_period:
            Required time budget for slack computation; defaults to the
            computed MCT (so the worst slack is exactly 0).
        """
        nl, place, node = self.netlist, self.placement, self.node
        loads = self._net_loads(doses)

        # One characterized-cell fetch per gate per call: the endpoint
        # and backward passes revisit sequential cells already resolved
        # in the forward pass.
        variants: dict = {}

        def variant(name):
            cc = variants.get(name)
            if cc is None:
                cc = variants[name] = self._variant(name, doses)
            return cc

        arrival: dict = {}
        out_slew: dict = {}
        gate_delay: dict = {}
        input_slew_used: dict = {}
        load_used: dict = {}
        wire_delay: dict = {}
        endpoint_arrival: dict = {}

        for name in self._order:
            gate = nl.gates[name]
            cc = variant(name)
            load = loads[gate.output]
            load_used[name] = load
            if self._is_seq[name]:
                # clk->q launch: arrival measured from the clock edge
                delay = cc.delay_at(self.input_slew, load)
                arrival[name] = delay
                gate_delay[name] = delay
                input_slew_used[name] = self.input_slew
                out_slew[name] = cc.slew_at(self.input_slew, load)
                continue
            # Single delay per gate, evaluated at the latest-arriving
            # pin's slew -- the same abstraction as the paper's constraint
            # set (5): a_r + t_q <= a_q with one t_q per gate.
            best_arr, best_slew = 0.0, self.input_slew
            for net_name in gate.inputs:
                net = nl.nets[net_name]
                if net.driver is None:
                    arr, slew = 0.0, self.input_slew
                else:
                    drv = net.driver
                    wd = arc_wire_delay(nl, place, drv, name, cc.input_cap_ff, node)
                    wire_delay[(drv, name)] = wd
                    arr, slew = arrival[drv] + wd, out_slew[drv]
                if beats_worst_pin(arr, slew, best_arr, best_slew):
                    best_arr, best_slew = arr, slew
            delay = cc.delay_at(best_slew, load)
            gate_delay[name] = delay
            arrival[name] = best_arr + delay
            input_slew_used[name] = best_slew
            out_slew[name] = cc.slew_at(best_slew, load)

        # ---- endpoints: PO drivers and FF D-pins ----
        mct = 0.0
        for name in self._order:
            gate = nl.gates[name]
            if nl.nets[gate.output].is_primary_output:
                endpoint_arrival[f"PO:{gate.output}"] = arrival[name]
                mct = max(mct, arrival[name])
        for name in self._order:
            if not self._is_seq[name]:
                continue
            gate = nl.gates[name]
            cc = variant(name)
            for net_name in gate.inputs:
                net = nl.nets[net_name]
                if net.driver is None:
                    continue
                drv = net.driver
                wd = arc_wire_delay(nl, place, drv, name, cc.input_cap_ff, node)
                wire_delay[(drv, name)] = wd
                t = arrival[drv] + wd + cc.setup_ns
                endpoint_arrival[f"FF:{name}:{net_name}"] = t
                mct = max(mct, t)

        # ---- backward pass: required times and slacks ----
        period = mct if clock_period is None else float(clock_period)
        inf = float("inf")
        required = {name: inf for name in self._order}
        for name in self._order:
            gate = nl.gates[name]
            if nl.nets[gate.output].is_primary_output:
                required[name] = min(required[name], period)
        for name in reversed(self._order):
            gate = nl.gates[name]
            for succ in nl.fanout_gates(name):
                wd = wire_delay.get((name, succ), 0.0)
                if self._is_seq[succ]:
                    setup = variant(succ).setup_ns
                    required[name] = min(required[name], period - setup - wd)
                else:
                    required[name] = min(
                        required[name], required[succ] - gate_delay[succ] - wd
                    )
        slack = {}
        for name in self._order:
            req = required[name]
            slack[name] = (req - arrival[name]) if req < inf else period

        return TimingResult(
            mct=mct,
            arrival=arrival,
            slack=slack,
            gate_delay=gate_delay,
            input_slew=input_slew_used,
            load=load_used,
            wire_delay=wire_delay,
            endpoint_arrival=endpoint_arrival,
        )

"""Reference pruning mask: per-gate longest-path loops, kept as a test
oracle.

:func:`reference_row_mask` walks the netlist in the reference
assembler's row order (``tests/oracles/formulate.py``: each gate's
launch/PI row, then its fanin arcs; then every gate's endpoint rows)
and keeps a row when the longest path through it, with every gate at
its slowest, reaches the longest path with every gate at its fastest.
The production mask (:func:`repro.core.formulate._timing_row_mask`,
level-batched numpy) must keep exactly the same rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.formulate import PRUNE_RTOL


def reference_row_mask(ctx, both_layers: bool, prune_range: float):
    nl = ctx.netlist
    lib = ctx.library
    base = ctx.baseline
    ds = lib.dose_sensitivity
    gates = list(nl.gates)
    seq = {name: lib.cell(nl.gates[name].master).is_sequential
           for name in gates}

    t_slow, t_fast = {}, {}
    for name in gates:
        fit = ctx.delay_fit_for(name)
        swing = abs(fit.a * ds) + (abs(fit.b * ds) if both_layers else 0.0)
        t_slow[name] = base.gate_delay[name] + swing * prune_range
        t_fast[name] = base.gate_delay[name] - swing * prune_range

    def wire(drv, snk):
        return base.wire_delay.get((drv, snk), 0.0)

    def launches(name):
        return seq[name] or any(
            nl.nets[net].driver is None for net in nl.gates[name].inputs
        )

    def fanin(name):
        """Distinct drivers of a combinational gate, in input-pin order."""
        if seq[name]:
            return []
        return list(dict.fromkeys(
            nl.nets[net].driver for net in nl.gates[name].inputs
            if nl.nets[net].driver is not None
        ))

    def endpoint_extras(name):
        """Wire + setup of each endpoint row of ``name``, in row order."""
        extras = []
        if nl.nets[nl.gates[name].output].is_primary_output:
            extras.append(0.0)
        for succ in dict.fromkeys(nl.fanout_gates(name)):
            if seq[succ]:
                setup = lib.cell(nl.gate(succ).master).setup_ns
                extras.append(wire(name, succ) + setup)
        return extras

    order = nl.topological_order(lib)

    def arrival(t):
        arr = {}
        for name in order:
            paths = [t[name]] if launches(name) else []
            paths += [arr[d] + wire(d, name) + t[name] for d in fanin(name)]
            arr[name] = max(paths, default=-np.inf)
        return arr

    arr_slow, arr_fast = arrival(t_slow), arrival(t_fast)
    down = {}
    for name in reversed(order):
        paths = endpoint_extras(name)
        for succ in dict.fromkeys(nl.fanout_gates(name)):
            if not seq[succ]:
                paths.append(wire(name, succ) + t_slow[succ] + down[succ])
        down[name] = max(paths, default=-np.inf)
    mct_fast = max(
        (arr_fast[name] + e for name in gates for e in endpoint_extras(name)),
        default=-np.inf,
    )
    floor = mct_fast - PRUNE_RTOL * abs(mct_fast)

    keep = []
    for name in gates:
        if launches(name):
            keep.append(t_slow[name] + down[name] >= floor)
        for drv in fanin(name):
            keep.append(arr_slow[drv] + wire(drv, name) + t_slow[name]
                        + down[name] >= floor)
    for name in gates:
        keep += [arr_slow[name] + e >= floor for e in endpoint_extras(name)]
    return np.array(keep, dtype=bool)

"""Generated placed netlists and dose assignments for the oracle suites."""

from __future__ import annotations

import random

from repro.core import DesignContext
from repro.netlist import Netlist
from repro.netlist.designs import DesignBundle
from repro.placement import Die, Placement

COMB_MASTERS = ("INVX1", "INVX2", "NAND2X1", "NOR2X1", "BUFX1")
DIE_WIDTH, DIE_HEIGHT = 60.0, 10.8


def _random_netlist(rng, seed, n_gates, lib, shared_pins):
    """Random DAG mixing combinational and sequential cells.

    With ``shared_pins`` one extra two-input gate reads the same gate
    output on both pins, so paths through that pair exist twice.
    """
    comb = [m for m in COMB_MASTERS if m in lib.masters]
    seq = lib.sequential_names[:1]
    nl = Netlist(f"rand{seed}")
    nl.add_primary_input("pi0")
    nl.add_primary_input("pi1")
    nets = ["pi0", "pi1"]
    for i in range(n_gates):
        out = f"n{i}"
        if seq and rng.random() < 0.15:
            nl.add_gate(f"g{i}", seq[0], [rng.choice(nets)], out)
        else:
            master = rng.choice(comb)
            n_in = 2 if ("NAND" in master or "NOR" in master) else 1
            ins = [rng.choice(nets) for _ in range(n_in)]
            nl.add_gate(f"g{i}", master, ins, out)
        nets.append(out)
    if shared_pins:
        net = rng.choice(nets[2:])
        nl.add_gate("dup", "NAND2X1", [net, net], "ndup")
    # every sink-less net becomes a primary output
    for name, net in nl.nets.items():
        if not net.sinks and not net.is_primary_input:
            nl.add_primary_output(name)
    return nl


def random_dag(seed, n_gates, lib, shared_pins=False, placed=0.9):
    """``(netlist, placement)``: a random DAG with a ``placed`` share of
    its cells placed.  Arcs at unplaced cells have no wire, so at
    ``placed=0`` equal masters under equal loads tie exactly."""
    rng = random.Random(seed)
    nl = _random_netlist(rng, seed, n_gates, lib, shared_pins)
    die = Die(width=DIE_WIDTH, height=DIE_HEIGHT, row_height=1.8,
              site_width=0.2)
    pl = Placement(die)
    for g in nl.gates:
        if rng.random() < placed:
            pl.place(g, round(rng.uniform(0, 58.0), 1),
                     1.8 * rng.randrange(6))
    return nl, pl


def random_dag_context(seed, n_gates, lib, shared_pins=False,
                       fit_width=False):
    """A :class:`DesignContext` over a random DAG (every cell placed);
    ``fit_width`` fits the both-layer coefficients too."""
    nl = _random_netlist(random.Random(seed), seed, n_gates, lib, shared_pins)
    bundle = DesignBundle(
        name=f"rand{seed}",
        netlist=nl,
        library=lib,
        die_width=DIE_WIDTH,
        die_height=DIE_HEIGHT,
    )
    return DesignContext(bundle, fit_width=fit_width)


def random_doses(netlist, library, seed, fraction=1.0):
    """Snapped (poly, active) doses on all gates or an even subset."""
    rng = random.Random(seed)
    gates = list(netlist.gates)
    if fraction < 1.0:
        gates = gates[:: max(1, int(1 / fraction))]
    return {
        g: (
            library.snap_dose(rng.uniform(-6.0, 6.0)),
            library.snap_dose(rng.uniform(-6.0, 6.0)),
        )
        for g in gates
    }

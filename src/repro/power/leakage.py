"""Chip leakage power analysis.

The role of SOC Encounter's leakage report in the paper: total and
per-cell leakage under a dose assignment, using the characterized library
variants (exact exponential device model -- *not* the optimizer's
quadratic approximation, so golden numbers capture approximation error
exactly as the paper's signoff does).
"""

from __future__ import annotations


def gate_leakage(netlist, library, gate_name: str, doses=None) -> float:
    """Leakage power (uW) of one cell instance under a dose assignment."""
    master = netlist.gate(gate_name).master
    if doses is None:
        return library.nominal(master).leakage_uw
    dp, da = doses.get(gate_name, (0.0, 0.0))
    return library.characterized(master, dp, da).leakage_uw


def total_leakage(netlist, library, doses=None) -> float:
    """Total leakage power (uW) of all cell instances.

    Parameters
    ----------
    doses:
        Optional mapping ``gate name -> (poly dose %, active dose %)``,
        missing gates at nominal dose, or an (n, 2) array of them in
        netlist gate order.
    """
    if doses is None:
        # fast path: histogram by master
        return sum(
            library.nominal(master).leakage_uw * count
            for master, count in netlist.master_histogram().items()
        )
    d = netlist.dose_array(doses)
    vids = library.variant_ids(
        library.master_ids(g.master for g in netlist.gates.values()),
        d[:, 0],
        d[:, 1],
    )
    # a sequential sum in gate order, as the per-gate sum adds up
    return sum(library.variant_table().leakage[vids].tolist())


def leakage_by_master(netlist, library, doses=None) -> dict:
    """Leakage power (uW) aggregated per master name."""
    result: dict = {}
    for name, gate in netlist.gates.items():
        result[gate.master] = result.get(gate.master, 0.0) + gate_leakage(
            netlist, library, name, doses
        )
    return result

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
        Optional mapping ``gate name -> (poly dose %, active dose %)``;
        missing gates are at nominal dose.
    """
    if doses is None:
        # fast path: histogram by master
        return sum(
            library.nominal(master).leakage_uw * count
            for master, count in netlist.master_histogram().items()
        )
    # memoized per (master, doses) within the call; summed in gate order
    memo: dict = {}
    leaks = []
    get = doses.get
    for name, gate in netlist.gates.items():
        dp, da = get(name, (0.0, 0.0))
        key = (gate.master, dp, da)
        leak = memo.get(key)
        if leak is None:
            leak = memo[key] = library.characterized(
                gate.master, dp, da
            ).leakage_uw
        leaks.append(leak)
    return sum(leaks)


def leakage_by_master(netlist, library, doses=None) -> dict:
    """Leakage power (uW) aggregated per master name."""
    result: dict = {}
    for name, gate in netlist.gates.items():
        result[gate.master] = result.get(gate.master, 0.0) + gate_leakage(
            netlist, library, name, doses
        )
    return result

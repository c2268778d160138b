"""Cell characterization: analytical device model -> NLDM tables.

This is the repository's counterpart of the paper's "pre-characterized
cell libraries with gate length and gate width variants" (Section V): for
a given master and a (delta-L, delta-W) printing bias, we compute Liberty
style delay and output-slew tables over a slew x load window, plus the
cell's input pin capacitance and state-averaged leakage power.

Multi-stage cells (BUF, AND2, XOR2, flops, ...) are characterized by
chaining stage models with slew propagation, so their delay sensitivity to
gate length is correspondingly larger than single-stage cells' -- the
per-master A_p spread the paper's fitting step exists to capture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.library.cell import CellMaster
from repro.library.nldm import NLDMTable, default_load_axis, default_slew_axis
from repro.tech import device
from repro.tech.node import TechNode

#: Width ratio of internal (non-output) stages relative to the output stage.
_INTERNAL_STAGE_SCALE = 0.5


@dataclass(frozen=True)
class CharacterizedCell:
    """Characterization result for one (master, delta-L, delta-W) variant.

    Attributes
    ----------
    master:
        The characterized :class:`~repro.library.cell.CellMaster`.
    dl_nm, dw_nm:
        Gate length / width bias (nm) relative to nominal printing.
    delay:
        NLDM propagation-delay table (ns), averaged over rise/fall.
    out_slew:
        NLDM output transition table (ns).
    input_cap_ff:
        Input pin capacitance (fF) -- per data pin.
    leakage_uw:
        State-averaged leakage power (uW).
    setup_ns:
        Setup time for sequential cells (0 for combinational).
    """

    master: CellMaster
    dl_nm: float
    dw_nm: float
    delay: NLDMTable
    out_slew: NLDMTable
    input_cap_ff: float
    leakage_uw: float
    setup_ns: float

    @property
    def name(self) -> str:
        return self.master.name

    def delay_at(self, slew_ns: float, load_ff: float) -> float:
        """Interpolated propagation delay (ns)."""
        return self.delay.lookup(slew_ns, load_ff)

    def slew_at(self, slew_ns: float, load_ff: float) -> float:
        """Interpolated output transition time (ns)."""
        return self.out_slew.lookup(slew_ns, load_ff)


def _stage_resistances(node: TechNode, master: CellMaster, length: float,
                       widths) -> list:
    """Effective resistance of stages given as ``(w_n, w_p)`` pairs.

    Averages the pull-up and pull-down networks (rise/fall averaging) and
    applies the series-stack factors.  One device call serves every
    stage: Vth(L) and the drive term are evaluated once for the shared
    length.
    """
    r = device.on_resistance(node, length, np.array(widths).ravel())
    return [
        0.5 * (float(r_n) * master.stack_n + float(r_p) * master.stack_p)
        for r_n, r_p in r.reshape(-1, 2)
    ]


def input_capacitance(node: TechNode, master: CellMaster, dw_nm: float = 0.0) -> float:
    """Input pin capacitance (fF): each pin gates one N and one P device."""
    return float(device.gate_input_cap(node, master.w_n + master.w_p + 2.0 * dw_nm))


def cell_leakage(
    node: TechNode, master: CellMaster, dl_nm: float = 0.0, dw_nm: float = 0.0
) -> float:
    """State-averaged leakage power (uW) of one cell instance.

    Averages the pull-up and pull-down network off-currents (each network
    is off roughly half the input states), derated by the per-master
    ``leak_states`` factor, with series stacks leaking proportionally less.
    """
    length = node.l_nominal + dl_nm
    i_n, i_p = device.leakage_current(
        node,
        length,
        np.array([master.w_n + dw_nm, master.w_p + dw_nm]),
        stack=np.array([master.stack_n, master.stack_p]),
    )
    return master.leak_states * 0.5 * (float(i_n) + float(i_p)) * node.vdd


def characterize_cell(
    node: TechNode,
    master: CellMaster,
    dl_nm: float = 0.0,
    dw_nm: float = 0.0,
    slew_axis: np.ndarray = None,
    load_axis: np.ndarray = None,
) -> CharacterizedCell:
    """Produce NLDM tables for one (master, delta-L, delta-W) variant.

    Raises
    ------
    ValueError
        If the bias drives gate length or any transistor width to zero or
        below (physically meaningless variant).
    """
    length = node.l_nominal + dl_nm
    if length <= 0:
        raise ValueError(f"gate length bias {dl_nm} nm yields non-positive length")
    if master.w_n + dw_nm <= 0 or master.w_p + dw_nm <= 0:
        raise ValueError(f"gate width bias {dw_nm} nm yields non-positive width")

    if slew_axis is None:
        slew_axis = default_slew_axis()
    if load_axis is None:
        load_axis = default_load_axis(input_capacitance(node, master))

    # the output stage, then (multi-stage cells) the internal one
    w_n = master.w_n + dw_nm
    w_p = master.w_p + dw_nm
    widths = [(w_n, w_p)]
    if master.stages > 1:
        w_int_n = master.w_n * _INTERNAL_STAGE_SCALE + dw_nm
        w_int_p = master.w_p * _INTERNAL_STAGE_SCALE + dw_nm
        widths.append((w_int_n, w_int_p))
    r_out, *r_internal = _stage_resistances(node, master, length, widths)
    c_par_out = float(device.parasitic_cap(node, w_n + w_p))
    pin_cap = input_capacitance(node, master, dw_nm)

    slews = np.asarray(slew_axis, dtype=float)[:, None]  # (S, 1)
    loads = np.asarray(load_axis, dtype=float)[None, :]  # (1, C)

    # Chain the internal stages (if any) before the output stage.  Internal
    # stages see a fixed load: the gate cap of the next (scaled) stage.
    delay = np.zeros((slews.size, loads.shape[1]))
    cur_slew = np.empty_like(delay)
    cur_slew[...] = slews
    ln2 = np.log(2.0)
    for _stage in range(master.stages - 1):
        r_int = r_internal[0]
        c_int = float(device.parasitic_cap(node, w_int_n + w_int_p)) + pin_cap
        stage_d = ln2 * r_int * c_int * 1e-3 + device._SLEW_DELAY_FACTOR * cur_slew
        delay += stage_d + master.intrinsic_ns
        cur_slew = np.full_like(cur_slew, device._SLEW_RC_FACTOR * r_int * c_int * 1e-3)

    # Output stage drives the external load.
    c_total = c_par_out + loads
    delay += (
        ln2 * r_out * c_total * 1e-3
        + device._SLEW_DELAY_FACTOR * cur_slew
        + master.intrinsic_ns
    )
    out_slew = np.empty_like(delay)
    out_slew[...] = device._SLEW_RC_FACTOR * r_out * c_total * 1e-3

    if master.is_sequential:
        delay = delay + master.clk_q_extra_ns

    return CharacterizedCell(
        master=master,
        dl_nm=dl_nm,
        dw_nm=dw_nm,
        delay=NLDMTable(slew_axis, load_axis, delay),
        out_slew=NLDMTable(slew_axis, load_axis, out_slew),
        input_cap_ff=pin_cap,
        leakage_uw=cell_leakage(node, master, dl_nm, dw_nm),
        setup_ns=master.setup_ns,
    )

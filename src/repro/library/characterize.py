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


def _stage_resistances(node: TechNode, master: CellMaster, lengths,
                       widths) -> list:
    """Per-variant effective resistance (V,) of stages given as
    ``(w_n, w_p)`` pairs, for the gate lengths ``lengths`` (V,).

    Averages the pull-up and pull-down networks (rise/fall averaging) and
    applies the series-stack factors.  The device terms follow
    :func:`repro.tech.device.on_resistance`, except that the alpha power
    is taken per variant on a float: that is libm ``pow``, as the
    numpy-scalar power of a one-variant call is, while an array power
    may round differently in the last bit.
    """
    overdrive = node.vdd - node.vth(lengths)
    if (overdrive <= 0).any():
        raise ValueError("device does not turn on: Vdd <= Vth(L)")
    drive = np.array([od ** node.alpha for od in overdrive.tolist()])
    w_um = np.asarray(widths, dtype=float) / 1000.0  # (stages, 2)
    r = (
        node.k_drive * (lengths / node.l_nominal)[:, None, None]
        / (w_um[None] * drive[:, None, None])
    )
    return [
        0.5 * (r[:, k, 0] * master.stack_n + r[:, k, 1] * master.stack_p)
        for k in range(len(widths))
    ]


def input_capacitance(node: TechNode, master: CellMaster, dw_nm: float = 0.0) -> float:
    """Input pin capacitance (fF): each pin gates one N and one P device."""
    return float(device.gate_input_cap(node, master.w_n + master.w_p + 2.0 * dw_nm))


def _leakage(node: TechNode, master: CellMaster, lengths, dw_nm: float):
    """State-averaged leakage (uW) per gate length in ``lengths`` (V,)."""
    i = device.leakage_current(
        node,
        lengths[:, None],
        np.array([master.w_n + dw_nm, master.w_p + dw_nm]),
        stack=np.array([master.stack_n, master.stack_p]),
    )
    return master.leak_states * 0.5 * (i[:, 0] + i[:, 1]) * node.vdd


def cell_leakage(
    node: TechNode, master: CellMaster, dl_nm: float = 0.0, dw_nm: float = 0.0
) -> float:
    """State-averaged leakage power (uW) of one cell instance.

    Averages the pull-up and pull-down network off-currents (each network
    is off roughly half the input states), derated by the per-master
    ``leak_states`` factor, with series stacks leaking proportionally less.
    """
    return float(_leakage(node, master, np.array([node.l_nominal + dl_nm]),
                          dw_nm)[0])


@dataclass(frozen=True)
class VariantRow:
    """Characterization of V variants of one master at one width bias.

    ``delay`` and ``out_slew`` are (V, S, L) table stacks over the shared
    ``slew_axis`` (S,) and ``load_axis`` (L,); ``leakage_uw`` is (V,).
    The input capacitance depends on the width bias only, and the setup
    time is the master's.
    """

    dl_nm: np.ndarray
    dw_nm: float
    slew_axis: np.ndarray
    load_axis: np.ndarray
    delay: np.ndarray
    out_slew: np.ndarray
    input_cap_ff: float
    leakage_uw: np.ndarray
    setup_ns: float


def characterize_variants(
    node: TechNode,
    master: CellMaster,
    dl_nm,
    dw_nm: float = 0.0,
    slew_axis: np.ndarray = None,
    load_axis: np.ndarray = None,
) -> VariantRow:
    """NLDM tables for a row of length biases ``dl_nm`` (V,) at one width
    bias, in one vectorized evaluation.

    Each variant's numbers equal a one-variant call's to the last bit:
    every expression is evaluated element by element in the same order.

    Raises
    ------
    ValueError
        If a bias drives gate length or any transistor width to zero or
        below (physically meaningless variant).
    """
    dl_nm = np.asarray(dl_nm, dtype=float).reshape(-1)
    lengths = node.l_nominal + dl_nm
    if (lengths <= 0).any():
        bad = dl_nm[lengths <= 0][0]
        raise ValueError(f"gate length bias {bad} nm yields non-positive length")
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
    r_out, *r_internal = (
        r[:, None, None] for r in _stage_resistances(node, master, lengths, widths)
    )
    c_par_out = float(device.parasitic_cap(node, w_n + w_p))
    pin_cap = input_capacitance(node, master, dw_nm)

    slews = np.asarray(slew_axis, dtype=float)[:, None]  # (S, 1)
    loads = np.asarray(load_axis, dtype=float)[None, :]  # (1, C)

    # Chain the internal stages (if any) before the output stage.  Internal
    # stages see a fixed load: the gate cap of the next (scaled) stage.
    shape = (dl_nm.size, slews.size, loads.shape[1])
    delay = np.zeros(shape)
    cur_slew = np.empty(shape)
    cur_slew[...] = slews
    ln2 = np.log(2.0)
    for _stage in range(master.stages - 1):
        r_int = r_internal[0]
        c_int = float(device.parasitic_cap(node, w_int_n + w_int_p)) + pin_cap
        stage_d = ln2 * r_int * c_int * 1e-3 + device._SLEW_DELAY_FACTOR * cur_slew
        delay += stage_d + master.intrinsic_ns
        cur_slew = np.empty(shape)
        cur_slew[...] = device._SLEW_RC_FACTOR * r_int * c_int * 1e-3

    # Output stage drives the external load.
    c_total = c_par_out + loads
    delay += (
        ln2 * r_out * c_total * 1e-3
        + device._SLEW_DELAY_FACTOR * cur_slew
        + master.intrinsic_ns
    )
    out_slew = np.empty(shape)
    out_slew[...] = device._SLEW_RC_FACTOR * r_out * c_total * 1e-3

    if master.is_sequential:
        delay = delay + master.clk_q_extra_ns

    return VariantRow(
        dl_nm=dl_nm,
        dw_nm=dw_nm,
        slew_axis=np.asarray(slew_axis, dtype=float),
        load_axis=np.asarray(load_axis, dtype=float),
        delay=delay,
        out_slew=out_slew,
        input_cap_ff=pin_cap,
        leakage_uw=_leakage(node, master, lengths, dw_nm),
        setup_ns=master.setup_ns,
    )


def characterize_cell(
    node: TechNode,
    master: CellMaster,
    dl_nm: float = 0.0,
    dw_nm: float = 0.0,
    slew_axis: np.ndarray = None,
    load_axis: np.ndarray = None,
) -> CharacterizedCell:
    """Produce NLDM tables for one (master, delta-L, delta-W) variant:
    :func:`characterize_variants` with one variant.

    Raises
    ------
    ValueError
        If the bias drives gate length or any transistor width to zero or
        below (physically meaningless variant).
    """
    row = characterize_variants(
        node, master, [dl_nm], dw_nm, slew_axis, load_axis
    )
    return row_cell(master, row, 0)


def row_cell(master: CellMaster, row: VariantRow, k: int) -> CharacterizedCell:
    """Variant ``k`` of a :class:`VariantRow` as a :class:`CharacterizedCell`."""
    return CharacterizedCell(
        master=master,
        dl_nm=float(row.dl_nm[k]),
        dw_nm=row.dw_nm,
        delay=NLDMTable(row.slew_axis, row.load_axis, row.delay[k]),
        out_slew=NLDMTable(row.slew_axis, row.load_axis, row.out_slew[k]),
        input_cap_ff=row.input_cap_ff,
        leakage_uw=float(row.leakage_uw[k]),
        setup_ns=row.setup_ns,
    )

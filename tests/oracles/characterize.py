"""Reference characterization arithmetic, kept as a test oracle.

:func:`repro.library.characterize_cell` evaluates a variant's device
terms once per shared gate length, and
:meth:`repro.library.NLDMTable.lookup` interpolates on plain floats.
These are the per-transistor, numpy-scalar forms they must match bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro.library.characterize import _INTERNAL_STAGE_SCALE, input_capacitance
from repro.library.nldm import default_load_axis, default_slew_axis
from repro.tech import device


def lookup(table, slew_ns: float, load_ff: float) -> float:
    """Bilinear interpolation with numpy scalars, clamped to the window."""
    s = float(np.clip(slew_ns, table.slew_axis[0], table.slew_axis[-1]))
    c = float(np.clip(load_ff, table.load_axis[0], table.load_axis[-1]))
    i = int(np.searchsorted(table.slew_axis, s, side="right") - 1)
    j = int(np.searchsorted(table.load_axis, c, side="right") - 1)
    i = min(i, table.slew_axis.size - 2)
    j = min(j, table.load_axis.size - 2)
    s0, s1 = table.slew_axis[i], table.slew_axis[i + 1]
    c0, c1 = table.load_axis[j], table.load_axis[j + 1]
    fs = (s - s0) / (s1 - s0)
    fc = (c - c0) / (c1 - c0)
    v = table.values
    return float(
        v[i, j] * (1 - fs) * (1 - fc)
        + v[i + 1, j] * fs * (1 - fc)
        + v[i, j + 1] * (1 - fs) * fc
        + v[i + 1, j + 1] * fs * fc
    )


def _stage_r(node, master, length, w_n, w_p) -> float:
    return 0.5 * (
        float(device.on_resistance(node, length, w_n)) * master.stack_n
        + float(device.on_resistance(node, length, w_p)) * master.stack_p
    )


def characterize(node, master, dl_nm: float, dw_nm: float):
    """``(delay values, out_slew values, input cap, leakage)`` of one
    variant, one device call per transistor."""
    length = node.l_nominal + dl_nm
    slew_axis = default_slew_axis()
    load_axis = default_load_axis(input_capacitance(node, master))
    w_n, w_p = master.w_n + dw_nm, master.w_p + dw_nm
    r_out = _stage_r(node, master, length, w_n, w_p)
    c_par_out = float(device.parasitic_cap(node, w_n + w_p))
    pin_cap = input_capacitance(node, master, dw_nm)

    slews = slew_axis[:, None]
    loads = load_axis[None, :]
    delay = np.zeros((slews.size, loads.shape[1]))
    cur_slew = np.broadcast_to(slews, delay.shape).copy()
    ln2 = np.log(2.0)
    for _stage in range(master.stages - 1):
        w_int_n = master.w_n * _INTERNAL_STAGE_SCALE + dw_nm
        w_int_p = master.w_p * _INTERNAL_STAGE_SCALE + dw_nm
        r_int = _stage_r(node, master, length, w_int_n, w_int_p)
        c_int = float(device.parasitic_cap(node, w_int_n + w_int_p)) + pin_cap
        stage_d = ln2 * r_int * c_int * 1e-3 + device._SLEW_DELAY_FACTOR * cur_slew
        delay += stage_d + master.intrinsic_ns
        cur_slew = np.full_like(
            cur_slew, device._SLEW_RC_FACTOR * r_int * c_int * 1e-3
        )
    c_total = c_par_out + loads
    delay += (
        ln2 * r_out * c_total * 1e-3
        + device._SLEW_DELAY_FACTOR * cur_slew
        + master.intrinsic_ns
    )
    out_slew = np.broadcast_to(
        device._SLEW_RC_FACTOR * r_out * c_total * 1e-3, delay.shape
    )
    if master.is_sequential:
        delay = delay + master.clk_q_extra_ns

    i_n = float(device.leakage_current(node, length, w_n, stack=master.stack_n))
    i_p = float(device.leakage_current(node, length, w_p, stack=master.stack_p))
    leakage = master.leak_states * 0.5 * (i_n + i_p) * node.vdd
    return delay, out_slew, pin_cap, leakage

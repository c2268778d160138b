"""Analytical transistor delay and leakage models.

This module is the repository's stand-in for the SPICE simulations the
paper uses to generate Figs. 3-6 and to characterize the standard-cell
libraries.  It implements:

* an **alpha-power-law drive model** -- switching resistance proportional
  to ``L / (W * (Vdd - Vth(L))^alpha)`` -- which makes gate delay
  approximately linear in gate length and in gate width near the nominal
  point (the linearity the paper verifies in Figs. 3-4 and exploits in its
  problem formulation), and

* a **subthreshold leakage model** -- off current proportional to
  ``W * exp(-(Vth(L) - Vth_nom) / (n * vT))`` -- which makes leakage
  exponential in gate length and linear in gate width (Figs. 5-6).

All functions are vectorized over ``l_nm`` / ``w_nm`` (numpy broadcasting).

Units follow :mod:`repro.constants`: nm for L and W, fF for capacitance,
kOhm for resistance, ns for time, uA for current, uW for power.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import KOHM_FF_TO_NS
from repro.tech.node import TechNode

#: 0->50 % switching point of an RC step response, used for propagation delay.
_LN2 = math.log(2.0)

#: 10-90 % rise of an RC step response, used for the output transition time.
_SLEW_RC_FACTOR = 2.2

#: Fraction of the input transition time that adds to stage delay.  Standard
#: first-order slew-dependence of CMOS gate delay (cf. Sakurai-Newton).
_SLEW_DELAY_FACTOR = 0.12


def threshold_voltage(node: TechNode, l_nm) -> np.ndarray:
    """Threshold voltage (V) at printed gate length ``l_nm`` (nm)."""
    return node.vth(l_nm)


def on_resistance(node: TechNode, l_nm, w_nm) -> np.ndarray:
    """Effective switching resistance (kOhm) of a transistor.

    Alpha-power law: the saturation drive current scales as
    ``(W/L) * (Vdd - Vth(L))^alpha``; resistance is its reciprocal scaled
    by the node's ``k_drive`` constant.
    """
    l_nm = np.asarray(l_nm, dtype=float)
    w_nm = np.asarray(w_nm, dtype=float)
    if (l_nm <= 0).any() or (w_nm <= 0).any():
        raise ValueError("gate length and width must be positive")
    overdrive = node.vdd - node.vth(l_nm)
    if (overdrive <= 0).any():
        raise ValueError("device does not turn on: Vdd <= Vth(L)")
    w_um = w_nm / 1000.0
    return node.k_drive * (l_nm / node.l_nominal) / (w_um * overdrive**node.alpha)


def gate_input_cap(node: TechNode, w_nm) -> np.ndarray:
    """Gate (input pin) capacitance in fF for channel width ``w_nm``."""
    return node.cg_per_um * np.asarray(w_nm, dtype=float) / 1000.0


def parasitic_cap(node: TechNode, w_nm) -> np.ndarray:
    """Drain diffusion (self-load) capacitance in fF for width ``w_nm``."""
    return node.cd_per_um * np.asarray(w_nm, dtype=float) / 1000.0


def stage_delay(
    node: TechNode,
    l_nm,
    w_nm,
    c_load_ff,
    input_slew_ns=0.0,
    stack: float = 1.0,
) -> np.ndarray:
    """Propagation delay (ns) of one switching stage.

    Parameters
    ----------
    l_nm, w_nm:
        Printed gate length and effective pull width (nm).
    c_load_ff:
        External load capacitance (fF); the stage's own diffusion
        parasitic is added internally.
    input_slew_ns:
        Input transition time; contributes ``_SLEW_DELAY_FACTOR`` of
        itself to the delay (first-order slew dependence).
    stack:
        Series-stack factor for multi-input gates (a k-high series stack
        drives like a single device with ``stack`` times the resistance).
    """
    r = on_resistance(node, l_nm, w_nm) * stack
    c_total = np.asarray(c_load_ff, dtype=float) + parasitic_cap(node, w_nm)
    return (
        _LN2 * r * c_total * KOHM_FF_TO_NS
        + _SLEW_DELAY_FACTOR * np.asarray(input_slew_ns, dtype=float)
    )


def output_slew(
    node: TechNode,
    l_nm,
    w_nm,
    c_load_ff,
    stack: float = 1.0,
) -> np.ndarray:
    """Output transition time (ns, 10-90 %) of one switching stage."""
    r = on_resistance(node, l_nm, w_nm) * stack
    c_total = np.asarray(c_load_ff, dtype=float) + parasitic_cap(node, w_nm)
    return _SLEW_RC_FACTOR * r * c_total * KOHM_FF_TO_NS


def leakage_current(node: TechNode, l_nm, w_nm, stack: float = 1.0) -> np.ndarray:
    """Subthreshold off-state current (uA) of a transistor.

    Normalized so a device at nominal gate length leaks
    ``i_leak0 * (W / 1 um)`` uA; shorter channels leak exponentially more
    through the Vth roll-off.  ``stack`` models series-stack leakage
    reduction in multi-input gates (divides the current).
    """
    l_nm = np.asarray(l_nm, dtype=float)
    w_nm = np.asarray(w_nm, dtype=float)
    if (l_nm <= 0).any() or (w_nm <= 0).any():
        raise ValueError("gate length and width must be positive")
    vth_nom = node.vth0 - node.dibl_v0  # Vth at nominal gate length
    dvth = node.vth(l_nm) - vth_nom
    n_vt = node.subthreshold_swing_n * node.thermal_voltage
    w_um = w_nm / 1000.0
    return node.i_leak0 * w_um * np.exp(-dvth / n_vt) / stack


def leakage_power(node: TechNode, l_nm, w_nm, stack: float = 1.0) -> np.ndarray:
    """Off-state leakage power (uW) = I_off * Vdd."""
    return leakage_current(node, l_nm, w_nm, stack=stack) * node.vdd


def dose_to_delta_cd(dose_percent, dose_sensitivity: float) -> np.ndarray:
    """Convert a percentage dose change into a CD change in nm.

    ``delta_CD = Ds * dose`` with Ds the (negative) dose sensitivity in
    nm/%: increasing dose shrinks the printed feature (paper Fig. 2).
    """
    return np.asarray(dose_percent, dtype=float) * dose_sensitivity

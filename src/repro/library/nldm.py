"""Nonlinear delay model (NLDM) lookup tables.

Liberty-style 2-D tables indexed by (input transition time, output load
capacitance), with bilinear interpolation inside the characterized window
and clamped extrapolation outside it -- the same access pattern a signoff
timer uses, and the raw material the paper's coefficient fitting consumes
("the coefficients of the delay functions may be calibrated for each entry
in each delay table", Section IV-B).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class NLDMTable:
    """One 2-D lookup table: value = f(input slew, output load).

    Attributes
    ----------
    slew_axis:
        Strictly increasing input-transition axis (ns).
    load_axis:
        Strictly increasing output-load axis (fF).
    values:
        2-D array of shape ``(len(slew_axis), len(load_axis))``.
    """

    slew_axis: np.ndarray
    load_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        slew = np.asarray(self.slew_axis, dtype=float)
        load = np.asarray(self.load_axis, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (slew.size, load.size):
            raise ValueError(
                f"values shape {vals.shape} does not match axes "
                f"({slew.size}, {load.size})"
            )
        if slew.size < 2 or load.size < 2:
            raise ValueError("axes need at least two points each")
        # np.diff's test on plain floats, without numpy's per-call
        # overhead: a characterization builds two tables per variant
        for axis in (slew.tolist(), load.tolist()):
            if any(b - a <= 0 for a, b in zip(axis, axis[1:])):
                raise ValueError("axes must be strictly increasing")
        object.__setattr__(self, "slew_axis", slew)
        object.__setattr__(self, "load_axis", load)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _grid(self) -> tuple:
        """Axes and values as plain floats, for the scalar lookup."""
        return (
            self.slew_axis.tolist(), self.load_axis.tolist(),
            self.values.tolist(),
        )

    def lookup(self, slew_ns: float, load_ff: float) -> float:
        """Bilinear interpolation, clamped to the table window."""
        # scalar work on plain floats: the same IEEE operations as the
        # numpy form, without its per-call overhead
        slews, loads, v = self._grid
        s = min(max(float(slew_ns), slews[0]), slews[-1])
        c = min(max(float(load_ff), loads[0]), loads[-1])
        i = min(bisect_right(slews, s) - 1, len(slews) - 2)
        j = min(bisect_right(loads, c) - 1, len(loads) - 2)
        s0, s1 = slews[i], slews[i + 1]
        c0, c1 = loads[j], loads[j + 1]
        fs = (s - s0) / (s1 - s0)
        fc = (c - c0) / (c1 - c0)
        return float(
            v[i][j] * (1 - fs) * (1 - fc)
            + v[i + 1][j] * fs * (1 - fc)
            + v[i][j + 1] * (1 - fs) * fc
            + v[i + 1][j + 1] * fs * fc
        )

    def nearest_index(self, slew_ns: float, load_ff: float) -> tuple:
        """Index of the characterized entry nearest to (slew, load).

        Used by the coefficient fitter: the paper applies "the
        coefficients associated with the nearest entry" to each cell
        instance.
        """
        i = int(np.argmin(np.abs(self.slew_axis - slew_ns)))
        j = int(np.argmin(np.abs(self.load_axis - load_ff)))
        return i, j


def default_slew_axis() -> np.ndarray:
    """Default characterization slew axis (ns), 7 points."""
    return np.array([0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512])


def default_load_axis(unit_cap_ff: float) -> np.ndarray:
    """Default characterization load axis (fF), 7 points.

    Scaled by ``unit_cap_ff`` (the input capacitance of the node's unit
    inverter) so the table window covers fanouts of roughly 0.5x to 32x.
    """
    return unit_cap_ff * np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])

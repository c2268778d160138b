"""Cell library: master set plus dose-variant characterization cache.

A :class:`CellLibrary` owns the 36+9 masters of one technology node and
serves characterized variants for any (delta-L, delta-W) printing bias.
Following the paper, the manufacturable variants form a discrete grid: 21
dose steps of 0.5 % from -5 % to +5 % per layer ("21 different
characterized libraries ... 441 (i.e., 21 x 21)", Section V), and
optimized continuous doses are *snapped* to this grid before golden
signoff ("a rounding step is needed to snap the computed gate lengths and
widths to the cell masters with nearest drive strengths").
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_DOSE_SENSITIVITY
from repro.library.cell import CellMaster, build_masters
from repro.library.characterize import CharacterizedCell, characterize_cell
from repro.tech.node import TechNode, get_node

#: Dose granularity of the characterized variant grid, in percent.
DOSE_STEP = 0.5


class CellLibrary:
    """Standard-cell library for one technology node.

    Parameters
    ----------
    node:
        Technology node (or its name, e.g. ``"65nm"``).
    dose_sensitivity:
        CD change per percent dose (nm/%); default -2 nm/% as in the paper.
    dose_range:
        Maximum |dose| characterized, percent; default 5.
    """

    def __init__(
        self,
        node,
        dose_sensitivity: float = DEFAULT_DOSE_SENSITIVITY,
        dose_range: float = DEFAULT_DOSE_RANGE,
    ):
        if isinstance(node, str):
            node = get_node(node)
        self.node: TechNode = node
        self.dose_sensitivity = float(dose_sensitivity)
        self.dose_range = float(dose_range)
        # Unit inverter widths anchored to the node's minimum width.
        self._unit_wn = node.w_min
        self._unit_wp = 2.0 * node.w_min
        self.masters: dict = build_masters(self._unit_wn, self._unit_wp)
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # master access
    # ------------------------------------------------------------------
    def cell(self, name: str) -> CellMaster:
        """Look up a master by name."""
        try:
            return self.masters[name]
        except KeyError:
            raise KeyError(f"unknown cell master {name!r}") from None

    @property
    def combinational_names(self):
        return sorted(n for n, m in self.masters.items() if not m.is_sequential)

    @property
    def sequential_names(self):
        return sorted(n for n, m in self.masters.items() if m.is_sequential)

    # ------------------------------------------------------------------
    # dose <-> CD conversion
    # ------------------------------------------------------------------
    def dose_to_dl(self, dose_percent: float) -> float:
        """Poly-layer dose change (%) -> gate length change (nm)."""
        return self.dose_sensitivity * float(dose_percent)

    def dose_to_dw(self, dose_percent: float) -> float:
        """Active-layer dose change (%) -> gate width change (nm)."""
        return self.dose_sensitivity * float(dose_percent)

    def variant_doses(self) -> np.ndarray:
        """The characterized dose grid: -range..+range in 0.5 % steps."""
        n = int(round(self.dose_range / DOSE_STEP))
        return np.arange(-n, n + 1) * DOSE_STEP

    def snap_dose(self, dose_percent):
        """Snap continuous dose(s) to the nearest characterized variant.

        A scalar gives a float, an array an array of the same shape.
        Ties round half to even (as ``round`` does), and a dose that
        snaps to zero gives ``0.0``, never ``-0.0``.  NaN raises
        ``ValueError``; +-inf clip to the characterized range.
        """
        d = np.asarray(dose_percent, dtype=float)
        if np.isnan(d).any():
            raise ValueError("cannot snap a NaN dose")
        snapped = (
            np.rint(np.clip(d, -self.dose_range, self.dose_range) / DOSE_STEP)
            * DOSE_STEP
            + 0.0
        )
        return float(snapped) if snapped.ndim == 0 else snapped

    # ------------------------------------------------------------------
    # characterized variants
    # ------------------------------------------------------------------
    def characterized(
        self, name: str, dose_poly: float = 0.0, dose_active: float = 0.0
    ) -> CharacterizedCell:
        """Characterized variant of master ``name`` at the given doses.

        Doses are in percent; they are converted to (delta-L, delta-W) via
        the dose sensitivity.  Results are cached per (master, doses
        rounded to 1e-3 %) -- the golden flow only ever asks for snapped
        doses, so the cache stays small (at most 21 x 21 per master).
        """
        key = (name, round(float(dose_poly), 3), round(float(dose_active), 3))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        cc = characterize_cell(
            self.node,
            self.cell(name),
            dl_nm=self.dose_to_dl(dose_poly),
            dw_nm=self.dose_to_dw(dose_active),
        )
        self._cache[key] = cc
        return cc

    def nominal(self, name: str) -> CharacterizedCell:
        """Characterized master at nominal dose."""
        return self.characterized(name, 0.0, 0.0)

    def __repr__(self):
        return (
            f"CellLibrary(node={self.node.name!r}, "
            f"{len(self.combinational_names)} comb + "
            f"{len(self.sequential_names)} seq masters)"
        )

"""Cell library: master set plus its array-backed variant table.

A :class:`CellLibrary` owns the 36+9 masters of one technology node and
serves characterized variants for any (delta-L, delta-W) printing bias.
Following the paper, the manufacturable variants form a discrete grid: 21
dose steps of 0.5 % from -5 % to +5 % per layer ("21 different
characterized libraries ... 441 (i.e., 21 x 21)", Section V), and
optimized continuous doses are *snapped* to this grid before golden
signoff ("a rounding step is needed to snap the computed gate lengths and
widths to the cell masters with nearest drive strengths").

Every characterized variant lives in one table of stacked arrays (NLDM
delay/slew tables, axes, pin cap, leakage, setup) indexed by a variant
id.  The first off-nominal request for a master characterizes its whole
21-step poly-dose row in one vectorized call (one row per active-dose
step in both-layer mode); a dose off that grid gets a one-variant row.
:meth:`CellLibrary.variant_ids` resolves per-gate (master, dose) arrays
to ids, which the STA engine, the leakage sum and the delay fitter read
the table with.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_DOSE_SENSITIVITY
from repro.library.cell import CellMaster, build_masters
from repro.library.characterize import (
    CharacterizedCell,
    characterize_variants,
    row_cell,
)
from repro.tech.node import TechNode, get_node

#: Dose granularity of the characterized variant grid, in percent.
DOSE_STEP = 0.5


class VariantTable(NamedTuple):
    """The stacked arrays of every characterized variant, by variant id."""

    delay: np.ndarray  # (V, S, L) NLDM delay tables (ns)
    out_slew: np.ndarray  # (V, S, L) NLDM output-slew tables (ns)
    slew_axis: np.ndarray  # (V, S)
    load_axis: np.ndarray  # (V, L)
    input_cap: np.ndarray  # (V,) input pin capacitance (fF)
    leakage: np.ndarray  # (V,) state-averaged leakage (uW)
    setup: np.ndarray  # (V,) setup time (ns), 0 for combinational


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
        #: Master name -> its master id (the index ``variant_ids`` takes).
        self.master_id = {name: i for i, name in enumerate(self.masters)}
        self._master_list = list(self.masters.values())
        self._steps = self.variant_doses()
        self._center = len(self._steps) // 2
        #: Variant id per (master, active step, poly step); -1: not yet.
        self._grid_vid = np.full(
            (len(self._master_list), len(self._steps), len(self._steps)),
            -1, dtype=np.int64,
        )
        #: Variant id per (master id, poly key, active key) off the grid.
        self._off_grid: dict = {}
        self._rows: list = []  # VariantRows, in variant-id order
        self._row_of: list = []  # (row index, index in row) per variant id
        #: The table's arrays, with room to grow: variants fill a prefix.
        self._store = None
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
        the dose sensitivity.  A variant is keyed by its doses rounded to
        1e-3 % and characterized at those rounded doses, so the answer
        does not depend on which nearby dose asked first.
        """
        key = (name, round(float(dose_poly), 3), round(float(dose_active), 3))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        vid = self.variant_id(self.master_id_of(name), key[1], key[2])
        r, k = self._row_of[vid]
        cc = self._cache[key] = row_cell(self.cell(name), self._rows[r], k)
        return cc

    def master_id_of(self, name: str) -> int:
        """Variant-table master index of ``name``."""
        mid = self.master_id.get(name)
        if mid is None:
            self.cell(name)  # raises the unknown-master KeyError
        return mid

    def master_ids(self, names) -> np.ndarray:
        """Variant-table master index of each name, as an int array."""
        mid = self.master_id
        try:
            return np.array([mid[n] for n in names], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown cell master {exc.args[0]!r}") from None

    def variant_table(self) -> VariantTable:
        """The stacked arrays of every variant characterized so far.

        A variant's id, and so its row of the table, never changes.
        """
        if self._store is None:  # nothing characterized yet
            return VariantTable(*[np.empty(0)] * len(VariantTable._fields))
        n = len(self._row_of)
        return VariantTable(*(a[:n] for a in self._store))

    def variant_ids(self, master_ids, dose_poly=None, dose_active=None):
        """Variant ids for per-gate master indices and doses (percent).

        ``dose_poly``/``dose_active`` are arrays shaped like
        ``master_ids`` (None: nominal).  A dose on the 0.5 % grid (every
        snapped dose) is read off the grid table, characterizing missing
        rows first; any other dose resolves as :meth:`variant_id` does.
        """
        mids = np.asarray(master_ids, dtype=np.int64)
        dp = (np.zeros(mids.shape) if dose_poly is None
              else np.asarray(dose_poly, dtype=float))
        da = (np.zeros(mids.shape) if dose_active is None
              else np.asarray(dose_active, dtype=float))
        c = self._center
        with np.errstate(invalid="ignore"):
            sp = np.rint(dp / DOSE_STEP)
            sa = np.rint(da / DOSE_STEP)
            on = ((sp * DOSE_STEP == dp) & (sa * DOSE_STEP == da)
                  & (np.abs(sp) <= c) & (np.abs(sa) <= c))
        vids = np.empty(mids.shape, dtype=np.int64)
        if on.any():
            m = mids[on]
            ia = sa[on].astype(np.int64) + c
            ip = sp[on].astype(np.int64) + c
            got = self._grid_vid[m, ia, ip]
            missing = got < 0
            if missing.any():
                n = len(self._steps)
                for key in np.unique(((m * n + ia) * n + ip)[missing]).tolist():
                    row, step = divmod(key, n)
                    mid, a = divmod(row, n)
                    if self._grid_vid[mid, a, step] < 0:
                        self._fill_row(mid, a, step)
                got = self._grid_vid[m, ia, ip]
            vids[on] = got
        off = ~on
        if off.any():
            memo: dict = {}
            found = []
            for key in zip(mids[off].tolist(), dp[off].tolist(), da[off].tolist()):
                v = memo.get(key)
                if v is None:
                    v = memo[key] = self.variant_id(*key)
                found.append(v)
            vids[off] = found
        return vids

    def variant_id(self, master_id: int, dose_poly: float = 0.0,
                   dose_active: float = 0.0) -> int:
        """Variant id of one master at the given doses (percent).

        The doses are rounded to 1e-3 % first: a dose that rounds onto
        the grid is that grid variant, any other gets a one-variant row
        characterized at the rounded doses.
        """
        kp = round(float(dose_poly), 3)
        ka = round(float(dose_active), 3)
        ip, ia = self._grid_step(kp), self._grid_step(ka)
        if ip is not None and ia is not None:
            v = self._grid_vid[master_id, ia, ip]
            if v < 0:
                self._fill_row(master_id, ia, ip)
                v = self._grid_vid[master_id, ia, ip]
            return int(v)
        key = (master_id, kp, ka)
        v = self._off_grid.get(key)
        if v is None:
            v = self._off_grid[key] = self._characterize(
                master_id, [self.dose_to_dl(kp)], self.dose_to_dw(ka)
            )[0]
        return v

    def _grid_step(self, dose: float):
        """Grid index of a dose exactly on the variant grid, else None."""
        if not math.isfinite(dose):
            return None
        step = round(dose / DOSE_STEP)
        if step * DOSE_STEP == dose and abs(step) <= self._center:
            return step + self._center
        return None

    def _fill_row(self, master_id: int, active: int, wanted: int) -> None:
        """Characterize the missing steps of one (master, active step)
        grid row in one call, for a request of step ``wanted``.

        A request for the nominal variant characterizes it alone: a
        design's nominal timing pass needs no other.  Should a step at
        the row's edge be unphysical (a custom dose range or
        sensitivity), only ``wanted`` is characterized, and raises if it
        is the unphysical one.
        """
        grid = self._grid_vid[master_id, active]
        dw = self.dose_to_dw(self._steps[active])

        def fill(steps):
            dl = self.dose_sensitivity * self._steps[steps]
            grid[steps] = self._characterize(master_id, dl, dw)

        if active == wanted == self._center:
            fill([wanted])
            return
        try:
            fill(np.nonzero(grid < 0)[0])
        except ValueError:
            fill([wanted])

    def _characterize(self, master_id: int, dl_nm, dw_nm: float) -> list:
        """Characterize one row of variants; returns their new ids."""
        row = characterize_variants(
            self.node, self._master_list[master_id], dl_nm, dw_nm
        )
        first = len(self._row_of)
        last = first + len(row.dl_nm)
        store = self._store
        if store is None or last > len(store.leakage):
            # grow geometrically: appending a row stays O(row)
            size = max(2 * first, last, 64)
            shapes = (row.delay.shape[1:], row.out_slew.shape[1:],
                      row.slew_axis.shape, row.load_axis.shape, (), (), ())
            grown = VariantTable(*(np.empty((size, *shape)) for shape in shapes))
            if store is not None:
                for new, old in zip(grown, store):
                    new[:first] = old[:first]
            store = self._store = grown
        store.delay[first:last] = row.delay
        store.out_slew[first:last] = row.out_slew
        store.slew_axis[first:last] = row.slew_axis
        store.load_axis[first:last] = row.load_axis
        store.input_cap[first:last] = row.input_cap_ff
        store.leakage[first:last] = row.leakage_uw
        store.setup[first:last] = row.setup_ns
        r = len(self._rows)
        self._rows.append(row)
        self._row_of.extend((r, k) for k in range(len(row.dl_nm)))
        return list(range(first, last))

    def nominal(self, name: str) -> CharacterizedCell:
        """Characterized master at nominal dose."""
        return self.characterized(name, 0.0, 0.0)

    def __repr__(self):
        return (
            f"CellLibrary(node={self.node.name!r}, "
            f"{len(self.combinational_names)} comb + "
            f"{len(self.sequential_names)} seq masters)"
        )

"""Row-based placement data model.

A :class:`Placement` maps each gate to an (x, y) location on a die made of
standard-cell rows.  It supports the spatial queries the dose-map flow and
the dosePl cell-swapping heuristic need: per-region cell lists, cell
bounding boxes over fanin/fanout neighborhoods (paper Fig. 9), Manhattan
distances, and position swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Die:
    """Die outline and row geometry (all um)."""

    width: float
    height: float
    row_height: float
    site_width: float

    def __post_init__(self):
        for name in ("width", "height", "row_height", "site_width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"die {name} must be finite and > 0, got {value!r}"
                )

    @property
    def n_rows(self) -> int:
        return max(1, int(self.height / self.row_height))

    @property
    def n_sites(self) -> int:
        return max(1, int(self.width / self.site_width))

    def row_of(self, y: float) -> int:
        """Row index containing coordinate y (clamped)."""
        return min(self.n_rows - 1, max(0, int(y / self.row_height)))

    def site_of(self, x: float) -> int:
        """Site index containing coordinate x (clamped)."""
        return min(self.n_sites - 1, max(0, int(round(x / self.site_width))))


class Placement:
    """Cell locations on a die.

    Locations are the cells' left edges at their row baseline; the
    y-coordinate of a placed cell is always ``row * row_height``.

    Region queries read a coordinate index built on first use: the
    names in placement order and their x and y arrays.  Moving or
    swapping placed cells updates it in place; placing a new cell drops
    it, to be rebuilt by the next query.
    """

    def __init__(self, die: Die):
        self.die = die
        self._pos: dict = {}  # gate name -> (x, y)
        #: (names, name -> row, xs, ys) over ``_pos``, or None until read
        self._index = None

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    def place(self, gate_name: str, x: float, y: float) -> None:
        if not (0 <= x <= self.die.width and 0 <= y <= self.die.height):
            raise ValueError(
                f"({x:.2f}, {y:.2f}) outside die "
                f"{self.die.width:.2f}x{self.die.height:.2f}"
            )
        self._pos[gate_name] = loc = (float(x), float(y))
        if self._index is not None:
            _names, rows, xs, ys = self._index
            row = rows.get(gate_name)
            if row is None:
                self._index = None
            else:
                xs[row], ys[row] = loc

    def location(self, gate_name: str) -> tuple:
        try:
            return self._pos[gate_name]
        except KeyError:
            raise KeyError(f"gate {gate_name!r} is not placed") from None

    def is_placed(self, gate_name: str) -> bool:
        return gate_name in self._pos

    def __len__(self):
        return len(self._pos)

    def __contains__(self, gate_name: str) -> bool:
        return gate_name in self._pos

    def items(self):
        return self._pos.items()

    def copy(self) -> "Placement":
        dup = Placement(self.die)
        dup._pos = dict(self._pos)
        return dup

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def swap(self, g1: str, g2: str) -> None:
        """Exchange the locations of two placed cells."""
        p1, p2 = self.location(g1), self.location(g2)
        self._pos[g1], self._pos[g2] = p2, p1
        if self._index is not None:
            _names, rows, xs, ys = self._index
            r1, r2 = rows[g1], rows[g2]
            xs[r1], ys[r1] = p2
            xs[r2], ys[r2] = p1

    def distance(self, g1: str, g2: str) -> float:
        """Manhattan distance between two cells (um)."""
        (x1, y1), (x2, y2) = self.location(g1), self.location(g2)
        return abs(x1 - x2) + abs(y1 - y2)

    def neighborhood_bbox(self, gate_name: str, netlist) -> tuple:
        """Bounding box over the cell, its fanins and its fanouts.

        This is the paper's cell bounding box (Fig. 9): swapping a cell
        within it has low likelihood of increasing wirelength.
        Returns (x_min, y_min, x_max, y_max).
        """
        names = [gate_name]
        names += netlist.fanin_gates(gate_name)
        names += netlist.fanout_gates(gate_name)
        xs, ys = [], []
        for n in names:
            if n in self._pos:
                x, y = self._pos[n]
                xs.append(x)
                ys.append(y)
        return (min(xs), min(ys), max(xs), max(ys))

    def in_box(self, gate_name: str, box: tuple, margin: float = 0.0) -> bool:
        """Whether a cell lies inside a (x0, y0, x1, y1) box (with margin)."""
        x, y = self.location(gate_name)
        x0, y0, x1, y1 = box
        return (x0 - margin <= x <= x1 + margin) and (y0 - margin <= y <= y1 + margin)

    def cells_in_region(self, x0: float, y0: float, x1: float, y1: float):
        """All placed cells with location inside the closed rectangle,
        in placement order."""
        if self._index is None:
            names = list(self._pos)
            xy = np.array(list(self._pos.values()), dtype=float).reshape(-1, 2)
            self._index = (
                names,
                {name: row for row, name in enumerate(names)},
                xy[:, 0].copy(),
                xy[:, 1].copy(),
            )
        names, _rows, xs, ys = self._index
        inside = (x0 <= xs) & (xs <= x1) & (y0 <= ys) & (ys <= y1)
        return [names[row] for row in np.flatnonzero(inside).tolist()]

    def gate_pitch(self) -> float:
        """Average cell pitch: chip dimension / sqrt(gate count).

        The paper uses this as the distance-threshold unit for dosePl
        ("chip dimension divided by the square root of gate count").
        """
        if not self._pos:
            raise ValueError("empty placement has no gate pitch")
        dim = math.sqrt(self.die.width * self.die.height)
        return dim / math.sqrt(len(self._pos))

    def __repr__(self):
        return (
            f"Placement({len(self._pos)} cells on "
            f"{self.die.width:.0f}x{self.die.height:.0f} um)"
        )

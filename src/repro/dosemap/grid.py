"""Exposure-field grid partition.

The paper partitions the exposure field into rectangular grids
``R = |r_ij|_{MxN}`` whose width and height are at most a user parameter
``G`` (Section II-B).  One delta-dose variable lives on each grid per
layer; gates are mapped to the grid containing their placed location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridPartition:
    """Uniform rectangular partition of a (width x height) field.

    Attributes
    ----------
    width, height:
        Field dimensions in um (the die, assuming one die per field as in
        the paper's exposition).
    g:
        Maximum grid edge length in um (the paper's ``G``).
    m, n:
        Number of grid rows / columns (derived).
    """

    width: float
    height: float
    g: float
    #: Explicit grid counts; when None they are derived from ``g`` so
    #: every grid edge is at most ``g`` (the paper's definition).  Tiling
    #: a map across a multi-die field sets these to preserve cell sizes.
    m_explicit: int = None
    n_explicit: int = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        if self.g <= 0:
            raise ValueError("grid size G must be positive")
        for count in (self.m_explicit, self.n_explicit):
            if count is not None and count < 1:
                raise ValueError("explicit grid counts must be >= 1")

    @property
    def m(self) -> int:
        """Number of grid rows (y direction)."""
        if self.m_explicit is not None:
            return self.m_explicit
        return max(1, math.ceil(self.height / self.g))

    @property
    def n(self) -> int:
        """Number of grid columns (x direction)."""
        if self.n_explicit is not None:
            return self.n_explicit
        return max(1, math.ceil(self.width / self.g))

    @property
    def n_grids(self) -> int:
        return self.m * self.n

    @property
    def cell_width(self) -> float:
        return self.width / self.n

    @property
    def cell_height(self) -> float:
        return self.height / self.m

    def grid_of(self, x, y) -> tuple:
        """(i, j) grid indices containing point(s) (x, y), clamped to field.

        Scalar coordinates give a pair of ints; coordinate arrays give a
        pair of int arrays, one index per point.  Non-finite coordinates
        raise ``ValueError``.
        """
        if isinstance(x, (float, int)) and isinstance(y, (float, int)):
            # one point: plain floats, the same division, clamp and
            # truncation as the array path below
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("grid_of needs finite coordinates")
            j = min(max(x / self.cell_width, 0.0), float(self.n - 1))
            i = min(max(y / self.cell_height, 0.0), float(self.m - 1))
            return int(i), int(j)
        xy = np.array((x, y), dtype=float)
        if not np.isfinite(xy).all():
            raise ValueError("grid_of needs finite coordinates")
        size = np.array([[self.cell_width], [self.cell_height]])
        top = np.array([[self.n - 1], [self.m - 1]], dtype=float)
        # clamp before truncating: a far-outside coordinate must not
        # overflow the integer conversion
        jj, ii = np.minimum(
            np.maximum(xy.reshape(2, -1) / size, 0.0), top
        ).astype(np.int64)
        if xy.ndim == 1:
            return int(ii[0]), int(jj[0])
        return ii.reshape(np.shape(y)), jj.reshape(np.shape(x))

    def index_of(self, i: int, j: int) -> int:
        """Flat index of grid (i, j), row-major."""
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError(f"grid ({i}, {j}) outside {self.m}x{self.n}")
        return i * self.n + j

    def center_of(self, i: int, j: int) -> tuple:
        """Geometric center (x, y) of grid (i, j)."""
        return ((j + 0.5) * self.cell_width, (i + 0.5) * self.cell_height)

    def neighbor_pairs(self):
        """Adjacent grid pairs subject to the smoothness bound.

        Exactly the three families of the paper's constraint (4):
        diagonal (i,j)-(i+1,j+1), horizontal (i,j)-(i,j+1), and vertical
        (i,j)-(i+1,j).  Yields ((i1, j1), (i2, j2)) tuples.
        """
        for i in range(self.m - 1):
            for j in range(self.n - 1):
                yield (i, j), (i + 1, j + 1)
        for i in range(self.m):
            for j in range(self.n - 1):
                yield (i, j), (i, j + 1)
        for i in range(self.m - 1):
            for j in range(self.n):
                yield (i, j), (i + 1, j)

    def assign_gates(self, placement) -> dict:
        """Map every placed gate to its flat grid index."""
        names = [name for name, _loc in placement.items()]
        xy = np.array(
            [loc for _name, loc in placement.items()], dtype=float
        ).reshape(-1, 2)
        i, j = self.grid_of(xy[:, 0], xy[:, 1])
        return dict(zip(names, (i * self.n + j).tolist()))

    def __repr__(self):
        return (
            f"GridPartition({self.m}x{self.n} grids of "
            f"{self.cell_width:.1f}x{self.cell_height:.1f} um, G={self.g})"
        )

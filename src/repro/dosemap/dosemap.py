"""Dose map objects: per-grid delta-dose values with equipment checks.

A :class:`DoseMap` holds the delta-dose (percent, relative to the nominal
exposure energy) for every grid of a :class:`GridPartition` on one layer
(poly or active).  It enforces the two equipment feasibility properties
the paper encodes as constraints (3)/(4) and (8)/(9): the correction
range and the neighbor smoothness bound.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_SMOOTHNESS
from repro.dosemap.grid import GridPartition

LAYER_POLY = "poly"
LAYER_ACTIVE = "active"


class DoseMap:
    """Delta-dose values (percent) on a grid partition for one layer."""

    def __init__(self, partition: GridPartition, layer: str = LAYER_POLY,
                 values=None):
        if layer not in (LAYER_POLY, LAYER_ACTIVE):
            raise ValueError(f"layer must be 'poly' or 'active', got {layer!r}")
        self.partition = partition
        self.layer = layer
        if values is None:
            self.values = np.zeros((partition.m, partition.n))
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != (partition.m, partition.n):
                raise ValueError(
                    f"values shape {values.shape} does not match partition "
                    f"({partition.m}, {partition.n})"
                )
            if not np.isfinite(values).all():
                raise ValueError("dose map values must be finite")
            self.values = values.copy()

    # ------------------------------------------------------------------
    def dose_at(self, x, y):
        """Delta dose (%) at a field location (a float), or at arrays of
        locations (an array)."""
        i, j = self.partition.grid_of(x, y)
        dose = self.values[i, j]
        return float(dose) if np.ndim(dose) == 0 else dose

    def dose_of_gate(self, placement, gate_name: str) -> float:
        """Delta dose (%) applied to a placed gate."""
        x, y = placement.location(gate_name)
        return self.dose_at(x, y)

    def doses_of_gates(self, placement, gate_names) -> np.ndarray:
        """Delta dose (%) of each named placed gate, as an array."""
        xy = np.array(
            [placement.location(g) for g in gate_names], dtype=float
        ).reshape(-1, 2)
        return self.dose_at(xy[:, 0], xy[:, 1])

    def from_flat(self, flat) -> "DoseMap":
        """New map with values from a flat (row-major) vector."""
        arr = np.asarray(flat, dtype=float).reshape(
            self.partition.m, self.partition.n
        )
        return DoseMap(self.partition, self.layer, arr)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1).copy()

    def copy(self) -> "DoseMap":
        return DoseMap(self.partition, self.layer, self.values)

    # ------------------------------------------------------------------
    # equipment feasibility (paper constraints (3)-(4) / (8)-(9))
    # ------------------------------------------------------------------
    def range_violations(self, bound: float = DEFAULT_DOSE_RANGE) -> float:
        """Largest violation of |d| <= bound (0 when feasible, inf when
        a value is not finite)."""
        if not np.isfinite(self.values).all():
            return float("inf")
        return float(max(0.0, np.max(np.abs(self.values)) - bound))

    def smoothness_violations(self, delta: float = DEFAULT_SMOOTHNESS) -> float:
        """Largest violation of the neighbor smoothness bound (inf when a
        value is not finite)."""
        if not np.isfinite(self.values).all():
            return float("inf")
        worst = 0.0
        v = self.values
        for (i1, j1), (i2, j2) in self.partition.neighbor_pairs():
            worst = max(worst, abs(v[i1, j1] - v[i2, j2]) - delta)
        return float(max(0.0, worst))

    def is_feasible(
        self,
        dose_range: float = DEFAULT_DOSE_RANGE,
        smoothness: float = DEFAULT_SMOOTHNESS,
        tol: float = 1e-6,
    ) -> bool:
        """Whether the map satisfies range and smoothness bounds."""
        return (
            self.range_violations(dose_range) <= tol
            and self.smoothness_violations(smoothness) <= tol
        )

    # ------------------------------------------------------------------
    def tiled(self, nx: int, ny: int) -> "DoseMap":
        """Tile the map for an exposure field holding nx x ny die copies.

        The paper notes the extension to multi-die fields: "multiple
        copies of the dose map solution are tiled horizontally and
        vertically".  Note the smoothness bound at copy seams must be
        checked by the caller at the field level (the returned map's
        partition covers the enlarged field).
        """
        if nx < 1 or ny < 1:
            raise ValueError("tile counts must be >= 1")
        p = self.partition
        big = GridPartition(
            width=p.width * nx,
            height=p.height * ny,
            g=p.g,
            m_explicit=p.m * ny,
            n_explicit=p.n * nx,
        )
        vals = np.tile(self.values, (ny, nx))
        return DoseMap(big, self.layer, vals)

    def __repr__(self):
        return (
            f"DoseMap({self.layer}, {self.partition.m}x{self.partition.n}, "
            f"range [{self.values.min():+.2f}, {self.values.max():+.2f}] %)"
        )

"""Dose snapping: continuous optimizer output -> manufacturable variants.

The paper: "it is possible that the computed values do not exactly match
the available drive strengths of the cell masters in the characterized
cell libraries.  Thus, a rounding step is needed to snap the computed gate
lengths and widths to the cell masters with nearest drive strengths"
(Section IV-A footnote).  Our characterized variant grid has 0.5 % dose
steps; snapping happens per dose grid.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dosemap import DoseMap
from repro.library.library import DOSE_STEP

SNAP_NEAREST = "nearest"
SNAP_CEIL = "ceil"
SNAP_FLOOR = "floor"


def snap_dose_map(dose_map: DoseMap, library, mode: str = SNAP_NEAREST) -> DoseMap:
    """Snap every grid's dose to the library's characterized variant grid.

    Modes:

    * ``nearest`` -- round to the closest variant (minimum CD error).
    * ``ceil`` -- round *up* (more dose -> shorter gate -> never slower
      than the continuous solution; used after timing-constrained
      optimization so snapping cannot break the clock bound, at a small
      leakage cost).
    * ``floor`` -- round *down* (never leakier than the continuous
      solution).
    """
    if mode == SNAP_NEAREST:
        snapped = library.snap_dose(dose_map.values)
    elif mode in (SNAP_CEIL, SNAP_FLOOR):
        rounder = math.ceil if mode == SNAP_CEIL else math.floor

        def snap_one(d):
            d = min(max(float(d), -library.dose_range), library.dose_range)
            # deadband: do not let directional rounding amplify solver
            # noise (|d| ~ 1e-9) into a whole dose step
            steps = d / DOSE_STEP
            if abs(steps - round(steps)) < 1e-6:
                steps = round(steps)
            else:
                steps = rounder(steps)
            return min(
                max(steps * DOSE_STEP, -library.dose_range),
                library.dose_range,
            )

        snapped = np.vectorize(snap_one)(dose_map.values)
    else:
        raise ValueError(f"unknown snap mode {mode!r}")
    return DoseMap(dose_map.partition, dose_map.layer, snapped)

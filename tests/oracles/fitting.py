"""Reference delay fit, kept as a test oracle.

:class:`repro.fitting.DelayFitter` fits all table entries of a master
together from the library's variant table.  This is the entry-by-entry
form it must match bit for bit: each sample read with
``CharacterizedCell.delay_at`` at the entry's (slew, load), one
``lstsq`` per entry, and the residual as ``design @ coeffs``.
"""

from __future__ import annotations

import numpy as np


def fit_at_entry(library, master_name, i_slew, j_load, fit_width=False,
                 n_dose_samples=5):
    """``(t0, a, b, ssr)`` of one table entry."""
    doses = np.linspace(-library.dose_range, library.dose_range,
                        n_dose_samples)
    nominal = library.nominal(master_name)
    slew = float(nominal.delay.slew_axis[i_slew])
    load = float(nominal.delay.load_axis[j_load])
    samples = []
    for dp in doses:
        dl = library.dose_to_dl(dp)
        for da in doses if fit_width else (0.0,):
            cc = library.characterized(master_name, float(dp), float(da))
            samples.append((dl, library.dose_to_dw(da), cc.delay_at(slew, load)))
    dls, dws, vals = (np.array(col) for col in zip(*samples))
    cols = [np.ones_like(dls), dls] + ([dws] if fit_width else [])
    design = np.stack(cols, axis=1)
    coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = vals - design @ coeffs
    b = float(coeffs[2]) if fit_width else 0.0
    return float(coeffs[0]), float(coeffs[1]), b, float(np.sum(resid**2))

"""Delay coefficient fitting: t(dL, dW) ~ t0 + A*dL + B*dW.

The paper calibrates, per cell master and per (input slew, load
capacitance) table entry, the linear coefficients ``A_p`` (delay vs gate
length) and ``B_p`` (delay vs gate width) by least squares over the
characterized library variants ("we perform curve fitting for cell delay
versus gate length using the least square method", Section V; "different
values of A_p and B_p are obtained from processing of Liberty nonlinear
delay model tables", Section II-C).

Coefficients are fitted at the characterized table entry **nearest** to
each instance's analyzed (slew, load) operating point, per Section IV-B.
A master's table entries are fitted together, from its variants' rows of
the library's variant table, and :meth:`DelayFitter.gate_fits` serves
the per-gate A_p/B_p arrays the formulation and the yield engines read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DelayFit:
    """Linear delay model around nominal for one (master, slew, load).

    ``delay(dl, dw) ~ t0 + a * dl + b * dw`` with dl/dw in nm, delay ns.

    ``a`` corresponds to the paper's A_p (positive: longer gate, slower)
    and ``b`` to B_p (negative: wider gate, faster).  ``ssr`` is the sum
    of squared residuals of the fit -- the paper's fit-quality metric
    (max SSR 0.0005 for poly-only vs 0.0101 for both layers).
    """

    t0: float
    a: float
    b: float
    ssr: float

    def predict(self, dl_nm: float, dw_nm: float = 0.0) -> float:
        return self.t0 + self.a * dl_nm + self.b * dw_nm


class DelayFitter:
    """Fits and caches per-(master, table-entry) delay coefficients.

    Parameters
    ----------
    library:
        A :class:`~repro.library.CellLibrary`.
    fit_width:
        When True, fit over the 2-D (dL, dW) variant grid (both-layer
        optimization); otherwise over dL only with b = 0 (poly-only).
        The paper observes the 2-D fit has ~20x worse residuals, which
        propagates into slightly worse both-layer optimization results
        (Table V's JPEG-65 anomaly).
    n_dose_samples:
        Dose sample count per axis used for fitting (odd, includes 0).
    """

    def __init__(self, library, fit_width: bool = False, n_dose_samples: int = 5):
        if n_dose_samples < 3:
            raise ValueError("need at least 3 dose samples to fit a line")
        self.library = library
        self.fit_width = bool(fit_width)
        self._doses = np.linspace(
            -library.dose_range, library.dose_range, n_dose_samples
        )
        #: master -> (4, S, L) array of t0, a, b and ssr per table entry
        self._fits: dict = {}
        self._cache: dict = {}

    # ------------------------------------------------------------------
    def master_fits(self, master_name: str) -> np.ndarray:
        """``(t0, a, b, ssr)`` at every table entry of a master: (4, S, L).

        The samples are the entry's values in the master's dose variants.
        Poly-only, one least-squares call fits all entries; its result
        equals the entry-by-entry fits to the last bit.  LAPACK's
        several-right-hand-side path rounds differently on the 2-D
        (dL, dW) design, so there each entry is fitted on its own.
        """
        fits = self._fits.get(master_name)
        if fits is not None:
            return fits
        lib = self.library
        doses = self._doses
        if self.fit_width:
            dp = np.repeat(doses, len(doses))
            da = np.tile(doses, len(doses))
        else:
            dp, da = doses, np.zeros(len(doses))
        mid = lib.master_id_of(master_name)
        vids = lib.variant_ids(np.full(len(dp), mid), dp, da)
        # a lookup at a table entry reads that entry exactly
        table = lib.variant_table().delay[vids]
        vals = table.reshape(len(dp), -1)
        dls = lib.dose_sensitivity * dp
        ones = np.ones_like(dls)
        if self.fit_width:
            design = np.stack([ones, dls, lib.dose_sensitivity * da], axis=1)
            cols = []
            for col in vals.T:
                coeffs, *_ = np.linalg.lstsq(design, col, rcond=None)
                resid = col - design @ coeffs
                cols.append((*coeffs, np.sum(resid**2)))
            fits = np.array(cols).T
        else:
            design = np.stack([ones, dls], axis=1)
            coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
            # column by column, as ``design @ coeffs`` of one entry adds
            resid = vals - (design[:, :1] * coeffs[0] + design[:, 1:] * coeffs[1])
            fits = np.stack([
                coeffs[0], coeffs[1], np.zeros(vals.shape[1]),
                np.sum(resid**2, axis=0),
            ])
        fits = self._fits[master_name] = fits.reshape(4, *table.shape[1:])
        return fits

    def fit_at_entry(self, master_name: str, i_slew: int, j_load: int) -> DelayFit:
        """Fit coefficients at one characterized table entry."""
        key = (master_name, i_slew, j_load)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        t0, a, b, ssr = self.master_fits(master_name)[:, i_slew, j_load].tolist()
        fit = self._cache[key] = DelayFit(t0=t0, a=a, b=b, ssr=ssr)
        return fit

    def fit_for(self, master_name: str, slew_ns: float, load_ff: float) -> DelayFit:
        """Coefficients at the table entry nearest an operating point."""
        table = self.library.nominal(master_name).delay
        i, j = table.nearest_index(slew_ns, load_ff)
        return self.fit_at_entry(master_name, i, j)

    def gate_fits(self, masters, slews, loads):
        """Per-gate ``(a, b)`` arrays: each gate's master fitted at the
        table entry nearest its (slew, load) operating point.

        ``masters`` names each gate's master; ``slews``/``loads`` are the
        gates' input slews (ns) and output loads (fF).
        """
        slews = np.asarray(slews, dtype=float)
        loads = np.asarray(loads, dtype=float)
        mids = self.library.master_ids(masters)
        a = np.empty(len(mids))
        b = np.empty(len(mids))
        for name in dict.fromkeys(masters):
            gids = np.nonzero(mids == self.library.master_id[name])[0]
            table = self.library.nominal(name).delay
            si = np.argmin(
                np.abs(table.slew_axis[None, :] - slews[gids][:, None]), axis=1
            )
            lj = np.argmin(
                np.abs(table.load_axis[None, :] - loads[gids][:, None]), axis=1
            )
            fits = self.master_fits(name)
            a[gids] = fits[1, si, lj]
            b[gids] = fits[2, si, lj]
        return a, b

    def max_ssr(self) -> float:
        """Worst sum-of-squared-residuals across the masters fitted so far."""
        if not self._fits:
            return 0.0
        return max(float(f[3].max()) for f in self._fits.values())

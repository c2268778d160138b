"""Leakage coefficient fitting: Leak(dL, dW) ~ c + beta*dL + alpha*dL^2 + gamma*dW.

The paper approximates the (physically exponential) leakage-vs-gate-length
relation by a **quadratic** "to facilitate the problem formulation and
solution method" (Section II-C, footnote 4), and leakage-vs-width as
linear.  The fitted alpha_p, beta_p, gamma_p feed the QP objective /
QCP constraint of equation (2); the constant term is dropped there
because only *delta* leakage matters (Section III).

Leakage does not depend on slew/load, so there is one fit per master.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LeakageFit:
    """Quadratic-in-dL, linear-in-dW leakage model for one master.

    ``leak(dl, dw) ~ c + beta * dl + alpha * dl^2 + gamma * dw`` (uW, nm).

    alpha > 0 (convexity -- required for the QP to be convex), beta < 0
    (longer gate leaks less), gamma > 0 (wider device leaks more).
    """

    c: float
    alpha: float
    beta: float
    gamma: float
    ssr: float

    def predict(self, dl_nm: float, dw_nm: float = 0.0) -> float:
        return self.c + self.beta * dl_nm + self.alpha * dl_nm**2 + self.gamma * dw_nm

    def predict_delta(self, dl_nm: float, dw_nm: float = 0.0) -> float:
        """Delta leakage vs nominal: the paper's equation (2) form."""
        return self.beta * dl_nm + self.alpha * dl_nm**2 + self.gamma * dw_nm


class LeakageFitter:
    """Fits and caches per-master leakage coefficients."""

    def __init__(self, library, fit_width: bool = False, n_dose_samples: int = 9):
        if n_dose_samples < 3:
            raise ValueError("need at least 3 dose samples to fit a quadratic")
        self.library = library
        self.fit_width = bool(fit_width)
        self._doses = np.linspace(
            -library.dose_range, library.dose_range, n_dose_samples
        )
        self._cache: dict = {}

    def fit(self, master_name: str) -> LeakageFit:
        hit = self._cache.get(master_name)
        if hit is not None:
            return hit
        lib = self.library

        doses = self._doses
        if self.fit_width:
            dp = np.repeat(doses, len(doses))
            da = np.tile(doses, len(doses))
        else:
            dp, da = doses, np.zeros(len(doses))
        vids = lib.variant_ids(
            np.full(len(dp), lib.master_id_of(master_name)), dp, da
        )
        vals = lib.variant_table().leakage[vids]
        dls = lib.dose_sensitivity * dp
        dws = lib.dose_sensitivity * da
        if self.fit_width:
            design = np.stack([np.ones_like(dls), dls, dls**2, dws], axis=1)
        else:
            design = np.stack([np.ones_like(dls), dls, dls**2], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
        resid = vals - design @ coeffs
        fit = LeakageFit(
            c=float(coeffs[0]),
            beta=float(coeffs[1]),
            alpha=float(max(coeffs[2], 0.0)),  # clamp: keep QP convex
            gamma=float(coeffs[3]) if self.fit_width else 0.0,
            ssr=float(np.sum(resid**2)),
        )
        self._cache[master_name] = fit
        return fit

    def max_ssr(self) -> float:
        if not self._cache:
            return 0.0
        return max(f.ssr for f in self._cache.values())

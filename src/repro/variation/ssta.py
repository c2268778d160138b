"""Statistical static timing analysis (SSTA), first-order canonical form.

The analytic complement of :mod:`repro.variation.montecarlo`: gate delays
are modeled in the canonical first-order form

    D = d0 + sum_k s_k * X_k + r * R,

where the ``X_k`` are shared standard-normal sources (one per spatial
correlation grid -- the systematic CD component) and ``R`` is a
gate-private standard normal (the random CD component).  Arrival times
propagate through SUM exactly and through MAX with Clark's moment
matching, preserving spatial correlation -- which is exactly what a dose
map manipulates, making SSTA the natural yield analysis for this paper's
setting.

Arrivals propagate over the compiled timing graph one level per numpy
call: for each fan-in arc slot of the graph's per-level slot layout
(``fanin_slots``, shared with Monte Carlo), Clark's max runs over every
gate of the level that has that slot.  Outputs the chip MCT as a
canonical form, from which mean, sigma, and timing-yield quantiles
follow in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dosemap import GridPartition
from repro.variation.montecarlo import (
    VariationModel,
    first_order_timing,
    gate_dose_shift_nm,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    """Standard normal pdf."""
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _cap_phi(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass
class CanonicalDelay:
    """First-order canonical random variable (see module docstring)."""

    mean: float
    sens: np.ndarray  # sensitivities to the shared sources
    rand: float  # sigma of the private independent part

    @property
    def variance(self) -> float:
        return float(self.sens @ self.sens + self.rand * self.rand)

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def shifted(self, delta_mean: float) -> "CanonicalDelay":
        return CanonicalDelay(self.mean + delta_mean, self.sens, self.rand)

    def plus(self, other: "CanonicalDelay") -> "CanonicalDelay":
        """Exact sum (private parts are independent)."""
        return CanonicalDelay(
            self.mean + other.mean,
            self.sens + other.sens,
            math.hypot(self.rand, other.rand),
        )

    def quantile(self, q: float) -> float:
        """Gaussian quantile of this variable."""
        from scipy.stats import norm

        return float(self.mean + self.sigma * norm.ppf(q))


def clark_max(a: CanonicalDelay, b: CanonicalDelay) -> CanonicalDelay:
    """Clark's moment-matched MAX of two canonical variables."""
    var_a, var_b = a.variance, b.variance
    cov = float(a.sens @ b.sens)  # private parts are independent
    theta2 = max(var_a + var_b - 2.0 * cov, 1e-30)
    theta = math.sqrt(theta2)
    alpha = (a.mean - b.mean) / theta
    p = _cap_phi(alpha)
    d = _phi(alpha)

    mean = a.mean * p + b.mean * (1.0 - p) + theta * d
    second = (
        (var_a + a.mean**2) * p
        + (var_b + b.mean**2) * (1.0 - p)
        + (a.mean + b.mean) * theta * d
    )
    var = max(second - mean * mean, 0.0)

    sens = p * a.sens + (1.0 - p) * b.sens
    resid = var - float(sens @ sens)
    rand = math.sqrt(resid) if resid > 0 else 0.0
    return CanonicalDelay(mean, sens, rand)


def _clark_rows(ma, sa, ra, mb, sb, rb):
    """:func:`clark_max` of row pairs: the means, (rows x sources)
    sensitivities and private sigmas of both operands in, those of each
    row's max out.  The scalar's formulas in the scalar's order; only
    the dot products sum in another order, and exp and hypot are
    numpy's."""
    var_a = np.einsum("ij,ij->i", sa, sa) + ra * ra
    var_b = np.einsum("ij,ij->i", sb, sb) + rb * rb
    cov = np.einsum("ij,ij->i", sa, sb)
    theta = np.sqrt(np.maximum(var_a + var_b - 2.0 * cov, 1e-30))
    alpha = (ma - mb) / theta
    # math.erf per entry: the scalar's erf, and no scipy.special import
    # (a few MB of resident memory) for a few thousand calls per pass
    erf = np.fromiter(
        map(math.erf, (alpha / math.sqrt(2.0)).tolist()), float, len(alpha)
    )
    p = 0.5 * (1.0 + erf)
    q = 1.0 - p
    d = np.exp(-0.5 * alpha * alpha) / _SQRT2PI

    mean = ma * p + mb * q + theta * d
    second = (
        (var_a + ma * ma) * p
        + (var_b + mb * mb) * q
        + (ma + mb) * theta * d
    )
    var = np.maximum(second - mean * mean, 0.0)

    sens = p[:, None] * sa + q[:, None] * sb
    resid = var - np.einsum("ij,ij->i", sens, sens)
    return mean, sens, np.sqrt(np.maximum(resid, 0.0))


class SSTA:
    """Block-based SSTA over a design context.

    Arrivals propagate over the context's compiled timing graph a level
    at a time.  Each gate folds its fan-in pins through Clark's max in
    graph arc order, the virtual arc (arrival 0) first -- the operating
    point the compiled STA uses -- and the endpoints fold through the
    scalar :func:`clark_max` chain.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`.
    model:
        The :class:`~repro.variation.montecarlo.VariationModel` whose
        random/systematic decomposition defines the canonical sources.
    """

    def __init__(self, ctx, model: VariationModel):
        self.ctx = ctx
        self.model = model
        self.timing = first_order_timing(ctx)
        place = ctx.placement
        part = GridPartition(
            place.die.width, place.die.height, model.correlation_grid_um
        )
        self.partition = part
        assign = part.assign_gates(place)
        # dose-independent parts of each gate's canonical delay: one
        # systematic sensitivity, at the gate's grid, and a private sigma
        a = self.timing.a
        self._grid = np.array(
            [assign[name] for name in self.timing.graph.names], dtype=np.int64
        )
        self._sens = a * model.sigma_systematic_nm
        self._rand = np.abs(a) * model.sigma_random_nm

    def analyze(self, dose_map=None) -> CanonicalDelay:
        """Propagate canonical arrivals; returns the chip MCT variable."""
        tm = self.timing
        g = tm.graph
        t0 = tm.t0
        if dose_map is not None:
            shift = gate_dose_shift_nm(self.ctx, dose_map)
            t0 = np.maximum(t0 + tm.a * shift, 0.0)

        n_src = self.partition.n_grids
        mean, sens, rand = np.zeros(g.n), np.zeros((g.n, n_src)), np.zeros(g.n)
        for ids, src, arc in g.fanin_slots:
            m = len(ids)
            # the virtual arcs
            bm, bs, br = np.zeros(m), np.zeros((m, n_src)), np.zeros(m)
            for src_row, arc_row in zip(src, arc):
                cols = np.flatnonzero(src_row >= 0)  # gates with this slot
                s = src_row[cols]
                bm[cols], bs[cols], br[cols] = _clark_rows(
                    bm[cols], bs[cols], br[cols],
                    mean[s] + tm.arc_wire[arc_row[cols]], sens[s], rand[s],
                )
            mean[ids] = bm + t0[ids]
            bs[np.arange(m), self._grid[ids]] += self._sens[ids]
            sens[ids] = bs
            rand[ids] = np.hypot(br, self._rand[ids])

        mean, rand = mean.tolist(), rand.tolist()
        ends = [
            CanonicalDelay(mean[gid], sens[gid], rand[gid])
            for gid in g.po_ids.tolist()
        ]
        ends += [
            CanonicalDelay(mean[drv], sens[drv], rand[drv]).shifted(extra)
            for drv, extra in zip(g.ff_src.tolist(), tm.ff_extra.tolist())
        ]
        if not ends:
            raise ValueError("design has no timing endpoints")
        mct = ends[0]
        for cand in ends[1:]:
            mct = clark_max(mct, cand)
        return mct


def ssta_timing_yield(mct: CanonicalDelay, clock_period: float) -> float:
    """P(MCT <= T) under the Gaussian canonical model."""
    if mct.sigma == 0:
        return 1.0 if mct.mean <= clock_period else 0.0
    return _cap_phi((clock_period - mct.mean) / mct.sigma)

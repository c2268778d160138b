"""Monte Carlo timing yield under CD variation.

The paper's title promises *timing yield enhancement*; its evaluation
reports MCT as the yield proxy.  This module closes the loop with an
explicit parametric-yield estimator: sample within-die gate-length
variation (random per-gate plus spatially-correlated systematic
components, the decomposition of the paper's Section I), propagate each
sample through a **linearized timing model** (per-gate delay
``t0 + A_p * dL``, the same first-order model DMopt optimizes), and
report ``yield(T) = P(MCT <= T)`` with and without an optimized dose map.

Evaluation propagates level by level over the compiled timing graph
(``DesignContext.timing_graph``), vectorized over gates x samples, so
thousands of chips cost about as much as one golden STA pass.  The
columns of a ``dl_nm`` sample matrix are the gates in ``graph.names``
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dosemap import GridPartition


@dataclass(frozen=True)
class VariationModel:
    """Within-die gate-length variation model (nm).

    Attributes
    ----------
    sigma_random_nm:
        Per-gate independent CD sigma.
    sigma_systematic_nm:
        Sigma of the spatially-correlated component: one value per
        correlation grid, shared by all gates in that grid (ACLV-style
        residual signature).
    correlation_grid_um:
        Edge length of the correlation grid.

    Sigmas must be finite and >= 0 and the grid edge finite and > 0;
    anything else raises :class:`ValueError`.
    """

    sigma_random_nm: float = 1.0
    sigma_systematic_nm: float = 1.0
    correlation_grid_um: float = 20.0
    seed: int = 42

    def __post_init__(self):
        for name in ("sigma_random_nm", "sigma_systematic_nm"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )
        grid = float(self.correlation_grid_um)
        if not (math.isfinite(grid) and grid > 0.0):
            raise ValueError(
                f"correlation_grid_um must be finite and > 0, got {grid!r}"
            )


@dataclass(frozen=True)
class FirstOrderTiming:
    """The linearized timing model laid out on a compiled timing graph.

    ``t0`` (nominal delay, ns) and ``a`` (A_p, ns per nm of gate length)
    are per gate in ``graph.names`` order; ``arc_wire`` is the wire delay
    of each fan-in arc of the graph's perm-ordered CSR (0 on the virtual
    arcs); ``ff_extra`` is wire delay + setup of each FF data-pin arc.
    """

    graph: object
    t0: np.ndarray
    a: np.ndarray
    arc_wire: np.ndarray
    ff_extra: np.ndarray


def first_order_timing(ctx) -> FirstOrderTiming:
    """The first-order timing model of a design context, from its
    baseline STA and delay fits, on ``ctx.timing_graph``."""
    graph = ctx.timing_graph
    base = ctx.baseline.arrays
    t0 = base.gate_delay
    a, _b = ctx.delay_fitter.gate_fits(
        graph.masters, base.input_slew, base.load
    )
    arc_wire = np.zeros(len(graph.fi_src))
    arc_wire[graph.real_fi] = base.fi_wire
    setup = ctx.library.variant_table().setup[graph.nominal_vids]
    ff_extra = base.ff_wire + setup[graph.ff_gate]
    return FirstOrderTiming(graph, t0, a, arc_wire, ff_extra)


def gate_dose_shift_nm(ctx, dose_map) -> np.ndarray:
    """Per-gate printed dL (nm) a dose map induces, in
    ``ctx.timing_graph.names`` order (zeros without a map)."""
    names = ctx.timing_graph.names
    if dose_map is None:
        return np.zeros(len(names))
    doses = dose_map.doses_of_gates(ctx.placement, names)
    return np.array([ctx.library.dose_to_dl(d) for d in doses.tolist()])


def check_dl(dl_nm, n_gates: int) -> np.ndarray:
    """``dl_nm`` as a finite (n_samples, n_gates) float matrix."""
    dl_nm = np.atleast_2d(np.asarray(dl_nm, dtype=float))
    if dl_nm.shape[1] != n_gates:
        raise ValueError(
            f"dl matrix has {dl_nm.shape[1]} gate columns, design has "
            f"{n_gates}"
        )
    if not np.isfinite(dl_nm).all():
        raise ValueError("dl matrix has non-finite entries")
    return dl_nm


class TimingMonteCarlo:
    """Vectorized linearized-timing Monte Carlo engine for one design.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`; its baseline STA
        supplies per-gate nominal delays, delay sensitivities (A_p) and
        arc wire delays, its compiled timing graph the DAG.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.timing = first_order_timing(ctx)
        g = self.graph = self.timing.graph
        # per level, the fan-in CSR padded to one row per arc slot: row k
        # holds each gate's k-th arc.  Slot 0 is every gate's virtual arc
        # and padding is virtual too; both read arrival 0 over wire 0.
        slot = np.arange(len(g.fi_src)) - g.fi_ptr[g.fi_seg]
        self._levels = []
        for lo, hi in g.level_slices:
            arcs = slice(g.fi_ptr[lo], g.fi_ptr[hi])
            k, col = slot[arcs], g.fi_seg[arcs] - lo
            src = np.full((k.max() + 1, hi - lo), -1)
            wire = np.zeros(src.shape)
            src[k, col] = g.fi_src[arcs]
            wire[k, col] = self.timing.arc_wire[arcs]
            self._levels.append((g.perm[lo:hi], src[1:], wire[1:, :, None]))

    # ------------------------------------------------------------------
    def sample_dl(self, model: VariationModel, n_samples: int) -> np.ndarray:
        """Sample per-gate gate-length deviations, shape (n, n_gates)."""
        if n_samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(model.seed)
        n_gates = self.graph.n
        dl = model.sigma_random_nm * rng.standard_normal((n_samples, n_gates))
        if model.sigma_systematic_nm > 0:
            place = self.ctx.placement
            part = GridPartition(
                place.die.width, place.die.height, model.correlation_grid_um
            )
            assign = part.assign_gates(place)
            grid_of_gate = np.array(
                [assign[g] for g in self.graph.names], dtype=int
            )
            sys = model.sigma_systematic_nm * rng.standard_normal(
                (n_samples, part.n_grids)
            )
            dl += sys[:, grid_of_gate]
        return dl

    def mct_samples(self, dl_nm: np.ndarray, dose_map=None) -> np.ndarray:
        """MCT (ns) of each variation sample, optionally under a dose map.

        ``dl_nm`` has shape (n_samples, n_gates) with gate columns in
        ``graph.names`` order (as produced by :meth:`sample_dl`) and must
        be finite.
        """
        g = self.graph
        tm = self.timing
        dl_nm = check_dl(dl_nm, g.n)
        # gate-major: one row per gate, one column per sample
        delay = dl_nm.T + gate_dose_shift_nm(self.ctx, dose_map)[:, None]
        np.multiply(tm.a[:, None], delay, out=delay)
        np.add(tm.t0[:, None], delay, out=delay)
        np.maximum(delay, 0.0, out=delay)

        # the extra last row stays zero: virtual arcs (src == -1) read it
        n = dl_nm.shape[0]
        arrival = np.zeros((g.n + 1, n))
        for ids, src, wire in self._levels:
            best = np.zeros((len(ids), n))  # the virtual arcs
            for s, w in zip(src, wire):
                pins = arrival[s]
                pins += w
                np.maximum(best, pins, out=best)
            best += delay[ids]
            arrival[ids] = best

        ff = arrival[g.ff_src] + tm.ff_extra[:, None]
        return np.vstack([arrival[g.po_ids], ff]).max(axis=0, initial=0.0)

    def nominal_mct(self) -> float:
        """MCT of the linearized model at zero variation (sanity anchor)."""
        return float(self.mct_samples(np.zeros((1, self.graph.n)))[0])


def timing_yield(mct_samples: np.ndarray, clock_period: float) -> float:
    """Fraction of sampled chips meeting the clock period."""
    mct_samples = np.asarray(mct_samples, dtype=float)
    if mct_samples.size == 0:
        raise ValueError("no samples")
    if not np.isfinite(mct_samples).all():
        raise ValueError("MCT samples must be finite")
    return float(np.mean(mct_samples <= clock_period))


def yield_curve(mct_samples: np.ndarray, periods) -> np.ndarray:
    """Yield at each candidate clock period."""
    return np.array([timing_yield(mct_samples, t) for t in periods])

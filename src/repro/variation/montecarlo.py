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
(``DesignContext.timing_graph``) and its per-level fan-in slot layout
(``fanin_slots``, shared with SSTA), vectorized over gates x samples, so
thousands of chips cost about as much as one golden STA pass.  Samples
are drawn and timed in fixed blocks of ``_BLOCK`` columns: beyond the
returned sample matrix itself, no (samples x gates) temporary is built,
and a block's results are bit-identical to timing all samples at once.
The columns of a ``dl_nm`` sample matrix are the gates in
``graph.names`` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dosemap import GridPartition

#: Samples drawn and timed per block: the fastest of 64 to 2,000 for
#: ``mct_samples`` on AES-65 and JPEG-65 (scale 0.3, 2,000 samples, a
#: 2-vCPU Xeon with 4 MB L2).  Smaller blocks pay the per-level numpy
#: calls more often; larger ones spill a block's arrivals out of cache.
_BLOCK = 256


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
        # per level, the wire delay of each slot's arc; padding (arc -1)
        # reads the appended 0, as its source reads arrival 0
        wire = np.append(self.timing.arc_wire, 0.0)
        self._levels = [
            (ids, src, wire[arc][:, :, None])
            for ids, src, arc in g.fanin_slots
        ]

    # ------------------------------------------------------------------
    def sample_dl(self, model: VariationModel, n_samples: int) -> np.ndarray:
        """Sample per-gate gate-length deviations, shape (n, n_gates)."""
        if n_samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(model.seed)
        n_gates = self.graph.n
        dl = rng.standard_normal((n_samples, n_gates))
        dl *= model.sigma_random_nm
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
            for lo in range(0, n_samples, _BLOCK):
                dl[lo:lo + _BLOCK] += sys[lo:lo + _BLOCK, grid_of_gate]
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
        shift = gate_dose_shift_nm(self.ctx, dose_map)[:, None]
        n = dl_nm.shape[0]
        width = min(n, _BLOCK)
        # gate-major block buffers, one column per sample; the extra
        # last arrival row stays zero: padded slots (src == -1) read it
        delay = np.empty((g.n, width))
        arrival = np.empty((g.n + 1, width))
        arrival[-1] = 0.0
        out = np.empty(n)
        for lo in range(0, n, _BLOCK):
            cols = min(n - lo, _BLOCK)
            d, arr = delay[:, :cols], arrival[:, :cols]
            np.add(dl_nm[lo:lo + cols].T, shift, out=d)
            np.multiply(tm.a[:, None], d, out=d)
            np.add(tm.t0[:, None], d, out=d)
            np.maximum(d, 0.0, out=d)
            for ids, src, wire in self._levels:
                best = np.zeros((len(ids), cols))  # the virtual arcs
                for s, w in zip(src, wire):
                    pins = arr[s]
                    pins += w
                    np.maximum(best, pins, out=best)
                best += d[ids]
                arr[ids] = best
            ff = arr[g.ff_src] + tm.ff_extra[:, None]
            out[lo:lo + cols] = np.vstack([arr[g.po_ids], ff]).max(
                axis=0, initial=0.0
            )
        return out

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

"""Unblocked Monte Carlo timing: every sample at once.

The reference for :class:`repro.variation.TimingMonteCarlo`, which draws
and times its samples in column blocks.  These two functions draw the
whole (samples x gates) matrix in one piece and time it through one
gate-major arrival matrix, over a fan-in slot layout built here from
the graph's CSR arrays rather than read from
``CompiledTimingGraph.fanin_slots``.  The blocked engine must match
them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.dosemap import GridPartition
from repro.variation.montecarlo import check_dl, gate_dose_shift_nm


def sample_dl(mc, model, n_samples: int) -> np.ndarray:
    """``mc.sample_dl(model, n_samples)``, drawn and summed in one piece."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(model.seed)
    graph = mc.graph
    dl = model.sigma_random_nm * rng.standard_normal((n_samples, graph.n))
    if model.sigma_systematic_nm > 0:
        place = mc.ctx.placement
        part = GridPartition(
            place.die.width, place.die.height, model.correlation_grid_um
        )
        assign = part.assign_gates(place)
        grid_of_gate = np.array([assign[g] for g in graph.names], dtype=int)
        sys = model.sigma_systematic_nm * rng.standard_normal(
            (n_samples, part.n_grids)
        )
        dl += sys[:, grid_of_gate]
    return dl


def mct_samples(mc, dl_nm, dose_map=None) -> np.ndarray:
    """``mc.mct_samples(dl_nm, dose_map)`` over full gate-major matrices."""
    g = mc.graph
    tm = mc.timing
    dl_nm = check_dl(dl_nm, g.n)
    # per level, the fan-in CSR padded to one row per arc slot: row k
    # holds each gate's k-th arc.  Slot 0 is every gate's virtual arc
    # and padding is virtual too; both read arrival 0 over wire 0.
    slot = np.arange(len(g.fi_src)) - g.fi_ptr[g.fi_seg]
    levels = []
    for lo, hi in g.level_slices:
        arcs = slice(g.fi_ptr[lo], g.fi_ptr[hi])
        k, col = slot[arcs], g.fi_seg[arcs] - lo
        src = np.full((k.max() + 1, hi - lo), -1)
        wire = np.zeros(src.shape)
        src[k, col] = g.fi_src[arcs]
        wire[k, col] = tm.arc_wire[arcs]
        levels.append((g.perm[lo:hi], src[1:], wire[1:, :, None]))

    delay = dl_nm.T + gate_dose_shift_nm(mc.ctx, dose_map)[:, None]
    np.multiply(tm.a[:, None], delay, out=delay)
    np.add(tm.t0[:, None], delay, out=delay)
    np.maximum(delay, 0.0, out=delay)

    # the extra last row stays zero: virtual arcs (src == -1) read it
    n = dl_nm.shape[0]
    arrival = np.zeros((g.n + 1, n))
    for ids, src, wire in levels:
        best = np.zeros((len(ids), n))  # the virtual arcs
        for s, w in zip(src, wire):
            pins = arrival[s]
            pins += w
            np.maximum(best, pins, out=best)
        best += delay[ids]
        arrival[ids] = best

    ff = arrival[g.ff_src] + tm.ff_extra[:, None]
    return np.vstack([arrival[g.po_ids], ff]).max(axis=0, initial=0.0)

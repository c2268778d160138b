"""Per-gate SSTA: one Python step per gate and per fan-in arc.

The reference for :meth:`repro.variation.SSTA.analyze`, which times a
whole level per numpy call.  This walks the compiled graph in perm
order and folds each gate's fan-in pins through the scalar
:func:`~repro.variation.clark_max`, the virtual arc (arrival 0) first
and then the real arcs in arc order, then the endpoints in the same
chain the engine uses.
"""

from __future__ import annotations

import numpy as np

from repro.dosemap import GridPartition
from repro.variation.montecarlo import first_order_timing, gate_dose_shift_nm
from repro.variation.ssta import CanonicalDelay, clark_max


def ssta_analyze(ctx, model, dose_map=None) -> CanonicalDelay:
    """The chip MCT canonical form of ``SSTA(ctx, model).analyze(dose_map)``."""
    tm = first_order_timing(ctx)
    g = tm.graph
    place = ctx.placement
    part = GridPartition(
        place.die.width, place.die.height, model.correlation_grid_um
    )
    assign = part.assign_gates(place)
    gate_sens, gate_rand = [], []
    for name, a in zip(g.names, tm.a.tolist()):
        sens = np.zeros(part.n_grids)
        sens[assign[name]] = a * model.sigma_systematic_nm
        gate_sens.append(sens)
        gate_rand.append(abs(a) * model.sigma_random_nm)

    t0 = tm.t0
    if dose_map is not None:
        shift = gate_dose_shift_nm(ctx, dose_map)
        t0 = np.maximum(t0 + tm.a * shift, 0.0)
    t0 = t0.tolist()
    src = g.fi_src.tolist()
    wire = tm.arc_wire.tolist()
    ptr = g.fi_ptr.tolist()
    zero = CanonicalDelay(0.0, np.zeros(part.n_grids), 0.0)

    arrival = [None] * g.n
    for p, gid in enumerate(g.perm.tolist()):
        best = zero  # the virtual arc
        for arc in range(ptr[p] + 1, ptr[p + 1]):
            best = clark_max(best, arrival[src[arc]].shifted(wire[arc]))
        delay = CanonicalDelay(t0[gid], gate_sens[gid], gate_rand[gid])
        arrival[gid] = best.plus(delay)

    ends = [arrival[gid] for gid in g.po_ids.tolist()]
    ends += [
        arrival[drv].shifted(extra)
        for drv, extra in zip(g.ff_src.tolist(), tm.ff_extra.tolist())
    ]
    if not ends:
        raise ValueError("design has no timing endpoints")
    mct = ends[0]
    for cand in ends[1:]:
        mct = clark_max(mct, cand)
    return mct

"""Uniform dose sweeps and the biased-critical-paths experiment.

* :func:`uniform_dose_sweep` reproduces Tables II/III: apply the same
  poly-layer delta dose to every cell and record golden MCT and leakage.
  It demonstrates the paper's motivating observation: "Uniform dose change
  in all the cell instances cannot obtain timing yield improvement without
  leakage power increase."

* :func:`bias_critical_paths` reproduces the "Bias" series of Fig. 10:
  force the maximum dose (+5 %) on every gate of the top-K critical paths
  to expose the optimization headroom (at an untenable leakage cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power import total_leakage
from repro.sta import top_k_paths


@dataclass(frozen=True)
class SweepPoint:
    """One row of a Table II/III-style sweep."""

    dose: float
    mct: float
    mct_improvement_pct: float
    leakage: float
    leakage_improvement_pct: float


def uniform_dose_sweep(ctx, doses=None) -> list:
    """Sweep a uniform poly-layer dose over the whole chip.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`.
    doses:
        Dose values (%) to evaluate; defaults to the paper's grid
        -5 .. +5 in 0.5 steps (21 points).

    Returns
    -------
    list of :class:`SweepPoint`, in the order given.
    """
    if doses is None:
        doses = ctx.library.variant_doses()
    base_mct = ctx.baseline.mct
    base_leak = ctx.baseline_leakage
    points = []
    for d in doses:
        d = float(d)
        gate_doses = {g: (d, 0.0) for g in ctx.netlist.gates}
        res = ctx.analyzer.analyze(doses=gate_doses)
        leak = total_leakage(ctx.netlist, ctx.library, gate_doses)
        points.append(
            SweepPoint(
                dose=d,
                mct=res.mct,
                mct_improvement_pct=(base_mct - res.mct) / base_mct * 100.0,
                leakage=leak,
                leakage_improvement_pct=(base_leak - leak) / base_leak * 100.0,
            )
        )
    return points


def bias_critical_paths(ctx, k: int = 1000, dose: float = None):
    """Force max dose on all gates of the top-K critical paths (Fig. 10 "Bias").

    Returns
    -------
    (timing result, total leakage, gate dose dict)
    """
    if dose is None:
        dose = ctx.library.dose_range
    paths = top_k_paths(ctx.timing_graph, ctx.baseline, k)
    boosted = set()
    for p in paths:
        boosted.update(p.gates)
    gate_doses = {
        g: (float(dose), 0.0) if g in boosted else (0.0, 0.0)
        for g in ctx.netlist.gates
    }
    res = ctx.analyzer.analyze(doses=gate_doses)
    leak = total_leakage(ctx.netlist, ctx.library, gate_doses)
    return res, leak, gate_doses


def slack_profile(result, n_bins: int = 40, lo: float = None, hi: float = None):
    """Histogram of endpoint slacks (Fig. 10's x-axis is slack).

    Returns (bin_edges, counts) over endpoint slack = MCT_ref - arrival.
    The caller supplies a common reference period via ``result`` slacks.
    """
    slacks = np.array(sorted(result.slack.values()))
    if lo is None:
        lo = float(slacks.min())
    if hi is None:
        hi = float(slacks.max())
    counts, edges = np.histogram(slacks, bins=n_bins, range=(lo, hi))
    return edges, counts


def dmopt_dose_range_sweep(
    ctx,
    grid_size: float,
    dose_ranges,
    mode: str = "qcp",
    warm_start: bool = True,
    checkpoint=None,
    resume: bool = True,
    **dmopt_kwargs,
) -> list:
    """Run DMopt at each dose-range limit, warm-starting along the sweep.

    All points share one cached formulation (``ctx.formulation_for``
    only retargets the range/smoothness bounds between points) and, with
    ``warm_start=True`` (default), each solve is seeded from the
    previous point's solution and multiplier -- typically a large cut in
    solver iterations (``tests/test_warmstart.py``) with golden signoff
    numbers unchanged, since warm starting only changes the inner
    solver's starting iterate, not the optimum.

    Parameters
    ----------
    checkpoint:
        Optional path to a JSONL checkpoint file; each converged point
        is appended (fsync'd) under a content hash of (design
        fingerprint, grid, mode, dose range, kwargs).  With ``resume``
        (default) already-present points are rebuilt from the file (a
        ``checkpoint_hit`` telemetry event each) instead of re-solved.
        A resumed point carries no solver iterate, so the next solve
        cold-starts -- the poisonous-seed rule -- which is safe because
        golden numbers are warm/cold invariant.
    resume:
        When False an existing checkpoint file is truncated first.

    Returns the list of :class:`~repro.core.dmopt.DMoptResult` in
    ``dose_ranges`` order.
    """
    from repro import obs
    from repro.core.dmopt import optimize_dose_map
    from repro.resilience.checkpoint import (
        CheckpointStore,
        checkpointed_dmopt,
        sweep_point_key,
    )

    # one pass over the input: an iterator would be spent by a len()
    dose_ranges = list(dose_ranges)
    store = (
        CheckpointStore(checkpoint, resume=resume)
        if checkpoint is not None
        else None
    )
    results = []
    prev = None
    with obs.span("sweep.dose_range", mode=mode, grid=float(grid_size),
                  n_points=len(dose_ranges)):
        for dose_range in dose_ranges:
            dose_range = float(dose_range)
            # a failed neighbor is a poisonous seed, and a resumed one
            # carries no iterate: either way the solve starts cold
            seed = (
                prev.solve
                if (warm_start and prev is not None and prev.ok
                    and not prev.solve.info.get("resumed"))
                else None
            )

            def solve():
                with obs.span("sweep.point", dose_range=dose_range,
                              warm=seed is not None):
                    return optimize_dose_map(
                        ctx,
                        grid_size,
                        mode=mode,
                        dose_range=dose_range,
                        warm_start=seed,
                        **dmopt_kwargs,
                    )

            key = (
                sweep_point_key(ctx, grid_size, mode, dose_range,
                                dmopt_kwargs)
                if store is not None
                else None
            )
            prev = checkpointed_dmopt(store, key, solve, kind="sweep_point")
            results.append(prev)
    if store is not None:
        store.close()
    return results

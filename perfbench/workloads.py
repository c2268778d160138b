"""The benchmark's four workloads, one repetition per call.

A workload function takes ``(seed, scale, workdir)``, builds fresh
design contexts (the set-up), runs the timed work, checks every output
and returns a :class:`Rep`.  The seed alone makes the inputs: it sets
the Monte Carlo samples of ``dosepl_yield`` and the order in which
``cells_jobs2`` submits the cells of one mode (an order that leaves the
pool's critical path unchanged).  Placements and the dosePl dose map
use fixed seeds: seeded ones changed the solver's iteration counts and
dosePl's swap work from seed to seed, so seeds differed in work done
rather than in noise.

``table4_g10``
    A Table IV cell set: AES-65 and JPEG-65 at G=10, DMopt as QP and as
    QCP, every result certified.  LU factorization does most of the
    work, so solver changes must show here.
``sweep_warm``
    ``dmopt_dose_range_sweep`` on AES-65, QCP, G=10, ranges 2/3/4 %:
    one formulation build, then bound retargets and warm starts.  A
    change that speeds cold solves but loses warm chaining shows here.
    The ranges bind: every point signs off differently, and the model
    MCT falls as the range widens.
``dosepl_yield``
    Solver-free: for AES-65 and JPEG-65 a generated G=5 dose map, the
    Table II uniform sweep, dosePl (10 rounds), then Monte Carlo timing
    (2000 samples) and SSTA with and without the map.  STA, placement,
    dosePl and variation do the work; solver changes read no change.
``cells_jobs2``
    The harness, pool and checkpoint layers: the AES-65 Table IV cells
    at G=10 and G=30, QP and QCP, through ``run_dmopt_cells`` with two
    workers, a fresh checkpoint and certification, then the same call
    again, served entirely from the checkpoint.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import certify, dmopt, dosepl, model, sweep
from repro.dosemap import DoseMap, GridPartition
from repro.experiments import harness
from repro.netlist import designs
from repro.resilience.checkpoint import CheckpointStore, cell_key
from repro.variation import montecarlo, ssta

DESIGNS = ("AES-65", "JPEG-65")
#: The placer seed the harness's workers use (``DesignContext``'s default).
PLACER_SEED = 7
#: Seed of the dose map dosePl works on (see the module docstring).
MAP_SEED = 7
MODES = ("qp", "qcp")
GRID = 10.0
#: Dose ranges of ``sweep_warm``: at the benchmark's design scale each
#: one binds, so each point is a different problem (from 4 % on,
#: AES-65's G=10 optimum no longer moves).
SWEEP_RANGES = (2.0, 3.0, 4.0)
#: Largest relative rise of the QCP's model MCT from one sweep point to
#: the next, wider one: the root search stops within its own tolerance.
SWEEP_T_RTOL = 1e-4
DOSEPL_GRID = 5.0
DOSE_RANGE = 5.0
SMOOTHNESS = 2.0
MC_SAMPLES = 2000
CELL_GRIDS = (10.0, 30.0)
JOBS = 2
#: Largest share by which SSTA's (Clark max) mean MCT may differ from
#: the Monte Carlo mean before the two yield engines count as disagreeing.
SSTA_MC_RTOL = 0.05

#: Work counts read off the returned objects (0 where a workload has none).
COUNTERS = (
    "solver.ipm_iters",
    "solver.qcp_inner_solves",
    "solver.fallbacks",
    "certify.failed",
    "dosepl.rounds",
    "dosepl.swaps_attempted",
    "dosepl.swaps_accepted",
    "dosepl.trial_rejected",
    "variation.mc_samples",
    "checkpoint.hits",
)


@dataclass
class Rep:
    """What one repetition measured, produced and checked."""

    setup_s: float = 0.0
    run_s: float = 0.0
    #: Timed sections and sizes inside the run; they vary run to run.
    measured: dict = field(default_factory=dict)
    #: Work counts; exact for a seed.
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    #: Result quality in percent; exact for a seed.
    quality: dict = field(default_factory=dict)
    #: Golden signoff numbers by label; exact for a seed.
    goldens: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Count one checked output; record it when the check failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    def add(self, key: str, seconds: float):
        self.measured[key] = self.measured.get(key, 0.0) + seconds


def contexts(names, scale: float):
    """Fresh design contexts: ``(contexts, seconds)``."""
    t0 = time.perf_counter()
    ctxs = [
        model.DesignContext(
            designs.make_design(name, scale=scale), seed=PLACER_SEED
        )
        for name in names
    ]
    return ctxs, time.perf_counter() - t0


def _signed_off(rep: Rep, ctx, res, label: str):
    """A DMopt result must converge and pass independent certification."""
    if rep.check(f"{label} solve", res.ok, res.status):
        report = certify.certify_result(ctx, res)
        if not rep.check(f"{label} certificate", report.ok, report.summary()):
            rep.counters["certify.failed"] += 1
    rep.goldens[f"{label} mct"] = res.mct
    rep.goldens[f"{label} leakage"] = res.leakage


def _count_solves(rep: Rep, solves):
    for solve in solves:
        rep.counters["solver.ipm_iters"] += solve.iterations
        rep.counters["solver.qcp_inner_solves"] += solve.info.get(
            "inner_solves", 0
        )
        # the fallback chain needed more than its primary attempt
        rep.counters["solver.fallbacks"] += int(
            len(solve.info.get("attempts", ())) > 1
        )


def table4_g10(seed: int, scale: float, workdir: str) -> Rep:
    rep = Rep()
    ctxs, rep.setup_s = contexts(DESIGNS, scale)
    t_run = time.perf_counter()
    results = {mode: [] for mode in MODES}
    for ctx in ctxs:
        for mode in MODES:
            t0 = time.perf_counter()
            res = dmopt.optimize_dose_map(ctx, GRID, mode=mode)
            rep.add(f"{mode}_s", time.perf_counter() - t0)
            _signed_off(rep, ctx, res, f"{ctx.bundle.name} G={GRID:g} {mode}")
            results[mode].append(res)
    rep.run_s = time.perf_counter() - t_run
    _count_solves(rep, (r.solve for rs in results.values() for r in rs))
    rep.quality["qcp_mct_gain_pct"] = statistics.fmean(
        r.mct_improvement_pct for r in results["qcp"]
    )
    rep.quality["qp_leak_gain_pct"] = statistics.fmean(
        r.leakage_improvement_pct for r in results["qp"]
    )
    return rep


def sweep_warm(seed: int, scale: float, workdir: str) -> Rep:
    rep = Rep()
    (ctx,), rep.setup_s = contexts(DESIGNS[:1], scale)
    # a list, not an iterator: the sweep must see every range
    ranges = list(SWEEP_RANGES)
    t_run = time.perf_counter()
    results = sweep.dmopt_dose_range_sweep(ctx, GRID, ranges, mode="qcp")
    rep.add("qcp_s", time.perf_counter() - t_run)
    rep.check(
        "sweep points",
        len(results) == len(ranges),
        f"{len(results)} results for {len(ranges)} dose ranges",
    )
    for dose_range, res in zip(ranges, results):
        _signed_off(
            rep, ctx, res,
            f"{ctx.bundle.name} G={GRID:g} qcp range {dose_range:g}",
        )
    # each point solves its own problem: a sweep that stops retargeting
    # the range bounds returns one optimum several times
    signed = [(r.mct, r.leakage) for r in results]
    rep.check(
        "every sweep point signs off differently",
        len(set(signed)) == len(signed),
        f"golden (MCT, leakage) per range: {signed}",
    )
    model_t = [r.predicted_T for r in results]
    rep.check(
        "model MCT does not rise as the dose range widens",
        all(b <= a * (1.0 + SWEEP_T_RTOL) for a, b in zip(model_t, model_t[1:])),
        f"model MCT per range: {model_t}",
    )
    rep.run_s = time.perf_counter() - t_run
    _count_solves(rep, (r.solve for r in results))
    if results:
        rep.quality["qcp_mct_gain_pct"] = statistics.fmean(
            r.mct_improvement_pct for r in results
        )
    return rep


def seeded_dose_map(ctx, seed: int) -> DoseMap:
    """A smooth, in-range poly dose map on the context's G=5 grid.

    Seeded noise is box-filtered into spatially correlated hills,
    stretched over the full correction range, then flattened toward 0
    until every neighbour step is inside the smoothness bound.
    """
    die = ctx.placement.die
    part = GridPartition(die.width, die.height, DOSEPL_GRID)
    values = np.random.default_rng(seed).standard_normal((part.m, part.n))
    for _ in range(3):
        padded = np.pad(values, 1, mode="edge")
        values = sum(
            padded[i:i + part.m, j:j + part.n]
            for i in range(3) for j in range(3)
        ) / 9.0
    span = max(float(values.max() - values.min()), 1e-12)
    values = DOSE_RANGE * (2.0 * (values - values.min()) / span - 1.0)
    step = DoseMap(part, values=values).smoothness_violations(0.0)
    if step > 0.9 * SMOOTHNESS:
        values = values * (0.9 * SMOOTHNESS / step)
    return DoseMap(part, values=values)


def dosepl_yield(seed: int, scale: float, workdir: str) -> Rep:
    rep = Rep()
    ctxs, rep.setup_s = contexts(DESIGNS, scale)
    t_run = time.perf_counter()
    variation = montecarlo.VariationModel(seed=seed)
    gains = []
    for ctx in ctxs:
        name = ctx.bundle.name
        dose_map = seeded_dose_map(ctx, MAP_SEED)
        rep.check(
            f"{name} dose map in range and smooth",
            dose_map.is_feasible(DOSE_RANGE, SMOOTHNESS),
            repr(dose_map),
        )

        points = sweep.uniform_dose_sweep(ctx)
        low, high = points[0], points[-1]  # -5 % and +5 % dose
        rep.check(
            f"{name} uniform sweep trades leakage for timing",
            len(points) == 21
            and high.mct < ctx.baseline.mct < low.mct
            and low.leakage < ctx.baseline_leakage < high.leakage,
            f"{len(points)} points",
        )
        rep.goldens[f"{name} uniform {high.dose:+g} mct"] = high.mct
        rep.goldens[f"{name} uniform {high.dose:+g} leakage"] = high.leakage

        t0 = time.perf_counter()
        placed = dosepl.run_dosepl(ctx, dose_map)
        rep.add("dosepl_s", time.perf_counter() - t0)
        # signed off here, not read back from the result
        input_mct = ctx.golden_eval(dose_map)[0].mct
        placed_mct = ctx.golden_eval(dose_map, placement=placed.placement)[0].mct
        rep.check(
            f"{name} dosePl not worse than its input",
            placed_mct <= input_mct,
            f"{input_mct:.6f} -> {placed_mct:.6f} ns",
        )
        rep.goldens[f"{name} dosePl mct"] = placed.mct
        rep.goldens[f"{name} dosePl leakage"] = placed.leakage
        gains.append(placed.mct_improvement_pct)
        rep.counters["dosepl.rounds"] += placed.rounds_run
        rep.counters["dosepl.swaps_attempted"] += placed.swaps_attempted
        rep.counters["dosepl.swaps_accepted"] += placed.swaps_accepted
        rep.counters["dosepl.trial_rejected"] += placed.swaps_trial_rejected

        t0 = time.perf_counter()
        mc = montecarlo.TimingMonteCarlo(ctx)
        dl = mc.sample_dl(variation, MC_SAMPLES)
        samples = {
            "nominal": mc.mct_samples(dl),
            "mapped": mc.mct_samples(dl, dose_map),
        }
        engine = ssta.SSTA(ctx, variation)
        canonical = {
            "nominal": engine.analyze(),
            "mapped": engine.analyze(dose_map),
        }
        rep.add("yield_s", time.perf_counter() - t0)
        rep.counters["variation.mc_samples"] += len(samples) * MC_SAMPLES
        for label, mct in samples.items():
            mean = float(np.mean(mct))
            ssta_mean = float(canonical[label].mean)
            rep.check(
                f"{name} {label} Monte Carlo MCTs",
                mct.shape == (MC_SAMPLES,) and bool(np.isfinite(mct).all()),
            )
            rep.check(
                f"{name} {label} SSTA agrees with Monte Carlo",
                abs(ssta_mean - mean) <= SSTA_MC_RTOL * mean,
                f"mean MCT {ssta_mean:.4f} vs {mean:.4f} ns",
            )
            rep.goldens[f"{name} {label} mc mean"] = mean
            rep.goldens[f"{name} {label} ssta mean"] = ssta_mean
    rep.run_s = time.perf_counter() - t_run
    rep.quality["dosepl_mct_gain_pct"] = statistics.fmean(gains)
    return rep


def cell_list(seed: int, scale: float) -> list:
    """The AES-65 Table IV cells: QCP (the long ones) first, each mode
    in a seeded order."""
    rng = random.Random(seed)
    cells = []
    for mode in ("qcp", "qp"):
        group = [
            harness.DMoptCell(DESIGNS[0], grid, mode=mode, scale=scale)
            for grid in CELL_GRIDS
        ]
        rng.shuffle(group)
        cells += group
    return cells


def cells_jobs2(seed: int, scale: float, workdir: str) -> Rep:
    rep = Rep()
    # the parent's copy of the context each worker rebuilds from the
    # same generator and placer seeds: every row must report its baseline
    (ref,), rep.setup_s = contexts(DESIGNS[:1], scale)
    cells = cell_list(seed, scale)
    checkpoint = os.path.join(workdir, f"cells-{time.monotonic_ns()}.jsonl")
    t_run = time.perf_counter()
    try:
        rows = harness.run_dmopt_cells(
            cells, jobs=JOBS, checkpoint=checkpoint, certify=True
        )
        rep.add("cells_s", time.perf_counter() - t_run)
        t0 = time.perf_counter()
        resumed = harness.run_dmopt_cells(
            cells, jobs=JOBS, checkpoint=checkpoint, certify=True
        )
        rep.add("resume_s", time.perf_counter() - t0)
    except harness.CellCertificationError as exc:
        rep.check("cells certified", False, str(exc))
        return rep
    rep.run_s = time.perf_counter() - t_run

    store = CheckpointStore(checkpoint)
    rep.counters["checkpoint.hits"] = sum(
        cell_key(cell, certify=True) in store for cell in cells
    )
    store.close()
    rep.measured["checkpoint_bytes"] = os.path.getsize(checkpoint)
    baseline = (ref.baseline.mct, ref.baseline_leakage)
    for cell, row, again in zip(cells, rows, resumed):
        label = f"{cell.design} G={cell.grid_size:g} {cell.mode} cell"
        rep.check(
            f"{label} in input order",
            (row["grid_size"], row["mode"]) == (cell.grid_size, cell.mode),
        )
        rep.check(f"{label} solve", row["status"] == "solved", row["status"])
        rep.check(
            f"{label} certificate",
            row.get("certified") is True,
            row.get("certificate", "not certified"),
        )
        rep.check(
            f"{label} baseline equals the parent's context",
            (row["baseline_mct"], row["baseline_leakage"]) == baseline,
        )
        rep.check(f"{label} served unchanged from the checkpoint", again == row)
        rep.add(f"{cell.mode}_s", row["runtime"])
        rep.counters["solver.ipm_iters"] += row["iterations"]
        rep.goldens[f"{label} mct"] = row["mct"]
        rep.goldens[f"{label} leakage"] = row["leakage"]
    rep.quality["qcp_mct_gain_pct"] = statistics.fmean(
        r["mct_improvement_pct"] for r in rows if r["mode"] == "qcp"
    )
    rep.quality["qp_leak_gain_pct"] = statistics.fmean(
        r["leakage_improvement_pct"] for r in rows if r["mode"] == "qp"
    )
    return rep


WORKLOADS = {
    "table4_g10": table4_g10,
    "sweep_warm": sweep_warm,
    "dosepl_yield": dosepl_yield,
    "cells_jobs2": cells_jobs2,
}

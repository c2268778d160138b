"""Regeneration of the paper's evaluation tables (II-VIII).

Each ``tableN`` function runs the corresponding experiment on the
synthetic testcases and returns a :class:`~repro.experiments.harness.TableResult`
with the same row/column structure the paper reports.  Tables IV-VI
build their DMopt cells and run them through
:func:`~repro.experiments.harness.run_dmopt_cells` at any ``jobs``; the
other drivers read design contexts from
:func:`~repro.experiments.harness.get_context`, the same cache the
cells use, so a full run characterizes each (design, fit_width) once.
"""

from __future__ import annotations

from repro.core import (
    DoseplConfig,
    optimize_dose_map,
    run_dosepl,
    uniform_dose_sweep,
)
from repro.experiments.harness import (
    DMoptCell,
    TableResult,
    get_context,
    run_dmopt_cells,
)
from repro.netlist.designs import design_node

#: Grid sizes per node, as in the paper (coarsest differs by node).
GRID_SIZES = {"65nm": (5.0, 10.0, 30.0), "90nm": (5.0, 10.0, 50.0)}

#: The four paper testcases.
DESIGNS = ("AES-65", "JPEG-65", "AES-90", "JPEG-90")


def _sweep_table(exp_id: str, design: str) -> TableResult:
    ctx = get_context(design)
    points = uniform_dose_sweep(ctx)
    rows = [
        [
            f"{p.dose:+.1f}",
            p.mct,
            p.mct_improvement_pct,
            p.leakage,
            p.leakage_improvement_pct,
        ]
        for p in points
    ]
    neg = [p for p in points if p.dose < 0]
    pos = [p for p in points if p.dose > 0]
    tr = TableResult(
        exp_id=exp_id,
        title=f"Uniform poly dose sweep on {design}",
        headers=["dose %", "MCT ns", "MCT imp %", "leakage uW", "leak imp %"],
        rows=rows,
    )
    tr.notes.append(
        "negative dose: leakage saved "
        f"{max(p.leakage_improvement_pct for p in neg):.1f}% at worst MCT "
        f"{min(p.mct_improvement_pct for p in neg):.1f}%"
    )
    tr.notes.append(
        "positive dose: MCT improved "
        f"{max(p.mct_improvement_pct for p in pos):.1f}% at worst leakage "
        f"{min(p.leakage_improvement_pct for p in pos):.1f}%"
    )
    return tr


def table2() -> TableResult:
    """Table II: uniform dose sweep, AES-65."""
    return _sweep_table("Table II", "AES-65")


def table3() -> TableResult:
    """Table III: uniform dose sweep, AES-90."""
    return _sweep_table("Table III", "AES-90")


def _dmopt_cells(designs, grid_sizes, variants, **run_kwargs) -> list:
    """Run every (design, grid, variant) DMopt cell of a table.

    ``designs`` and ``grid_sizes`` may be any iterables; each is read
    once.  ``grid_sizes=None`` means the paper's grids for each design's
    node.  An unknown design raises before any cell runs.  ``variants``
    are :class:`DMoptCell` keyword dicts; ``run_kwargs`` go to
    :func:`run_dmopt_cells`.  Returns ``(design, grid, results)`` per
    design x grid pair, ``results`` in ``variants`` order.
    """
    designs = list(designs)
    nodes = [design_node(design) for design in designs]
    grids = None if grid_sizes is None else list(grid_sizes)
    pairs = [
        (design, g)
        for design, node in zip(designs, nodes)
        for g in (GRID_SIZES[node] if grids is None else grids)
    ]
    cells = [DMoptCell(d, g, **v) for d, g in pairs for v in variants]
    results = iter(run_dmopt_cells(cells, **run_kwargs))
    return [(d, g, [next(results) for _ in variants]) for d, g in pairs]


def _both_layer_variants(mode: str) -> tuple:
    """Poly-only then both-layer cells of tables V/VI."""
    return tuple(
        dict(mode=mode, both_layers=bl, fit_width=True)
        for bl in (False, True)
    )


def table4(designs=DESIGNS, grid_sizes=None, jobs=None, checkpoint=None,
           resume=True, cell_timeout=None, certify=False) -> TableResult:
    """Table IV: DMopt on the poly layer, QP and QCP, per grid size.

    QP minimizes leakage under the baseline-MCT bound; QCP minimizes MCT
    under a no-leakage-increase budget (smoothness delta = 2, range
    +/-5 %), exactly the paper's settings.  Tables IV-VI run their cells
    through :func:`repro.experiments.harness.run_dmopt_cells`, which
    documents ``jobs`` (or ``REPRO_JOBS``), ``checkpoint``/``resume``,
    ``cell_timeout`` and ``certify``; any ``jobs`` gives identical rows.
    """
    cols = ("mct", "mct_improvement_pct", "leakage",
            "leakage_improvement_pct", "runtime")
    rows = [
        [design, f"{g:.0f}x{g:.0f}"]
        + [qp[c] for c in cols] + [qcp[c] for c in cols]
        for design, g, (qp, qcp) in _dmopt_cells(
            designs, grid_sizes, (dict(mode="qp"), dict(mode="qcp")),
            jobs=jobs, checkpoint=checkpoint, resume=resume,
            cell_timeout=cell_timeout, certify=certify,
        )
    ]
    return TableResult(
        exp_id="Table IV",
        title="DMopt on poly layer (gate length modulation), delta=2, +/-5%",
        headers=[
            "design", "grid um",
            "QP MCT", "QP MCT imp %", "QP leak", "QP leak imp %", "QP s",
            "QCP MCT", "QCP MCT imp %", "QCP leak", "QCP leak imp %", "QCP s",
        ],
        rows=rows,
    )


def table5(designs=("AES-65", "JPEG-65"), grid_sizes=None, jobs=None,
           checkpoint=None, resume=True, cell_timeout=None,
           certify=False) -> TableResult:
    """Table V: QCP for improved timing, poly-only vs both layers."""
    rows = [
        [
            design, f"{g:.0f}x{g:.0f}",
            poly["mct"], poly["mct_improvement_pct"],
            both["mct"], both["mct_improvement_pct"],
            poly["leakage"], both["leakage"],
        ]
        for design, g, (poly, both) in _dmopt_cells(
            designs, grid_sizes, _both_layer_variants("qcp"),
            jobs=jobs, checkpoint=checkpoint, resume=resume,
            cell_timeout=cell_timeout, certify=certify,
        )
    ]
    return TableResult(
        exp_id="Table V",
        title="QCP timing optimization: gate length vs length+width modulation",
        headers=[
            "design", "grid um",
            "Lgate MCT", "Lgate imp %", "Both MCT", "Both imp %",
            "Lgate leak", "Both leak",
        ],
        rows=rows,
        notes=["both-layer improvement over poly-only is slight: "
               "max |dW| = 10 nm vs >= 200 nm transistor widths"],
    )


def table6(designs=("AES-65", "JPEG-65"), grid_sizes=None, jobs=None,
           checkpoint=None, resume=True, cell_timeout=None,
           certify=False) -> TableResult:
    """Table VI: QP for improved leakage, poly-only vs both layers."""
    rows = [
        [
            design, f"{g:.0f}x{g:.0f}",
            poly["leakage"], poly["leakage_improvement_pct"],
            both["leakage"], both["leakage_improvement_pct"],
            poly["mct"], both["mct"],
        ]
        for design, g, (poly, both) in _dmopt_cells(
            designs, grid_sizes, _both_layer_variants("qp"),
            jobs=jobs, checkpoint=checkpoint, resume=resume,
            cell_timeout=cell_timeout, certify=certify,
        )
    ]
    return TableResult(
        exp_id="Table VI",
        title="QP leakage optimization: gate length vs length+width modulation",
        headers=[
            "design", "grid um",
            "Lgate leak", "Lgate imp %", "Both leak", "Both imp %",
            "Lgate MCT", "Both MCT",
        ],
        rows=rows,
    )


def table7(designs=DESIGNS) -> TableResult:
    """Table VII: fraction of timing endpoints within 95/90/80 % of MCT.

    The paper counts critical *paths*; at our testcase scale raw path
    counting saturates (a single deep cone contributes combinatorially
    many near-equal paths), so we report the per-endpoint worst path --
    the same criticality-concentration statistic with an unbiased
    population.  The trend the paper draws from this table (65 nm
    testcases have a near-critical "hill", 90 nm testcases do not) is
    what the benchmark checks.
    """
    rows = []
    for design in designs:
        ctx = get_context(design)
        arrivals = list(ctx.baseline.endpoint_arrival.values())
        mct = ctx.baseline.mct
        n = len(arrivals)
        frac = {
            t: sum(1 for a in arrivals if a >= t * mct) / n * 100.0
            for t in (0.95, 0.90, 0.80)
        }
        rows.append([design, frac[0.95], frac[0.90], frac[0.80]])
    return TableResult(
        exp_id="Table VII",
        title="Critical-endpoint concentration (worst path per endpoint)",
        headers=["design", "95-100% MCT %", "90-100% MCT %", "80-100% MCT %"],
        rows=rows,
        notes=["65 nm testcases concentrate near-critical paths (the "
               "'hill'); 90 nm testcases are dominated by a few paths"],
    )


def table8(designs=("AES-65", "JPEG-65"), grid_size: float = 5.0,
           dosepl_config: DoseplConfig = None) -> TableResult:
    """Table VIII: QCP dose map optimization followed by dosePl."""
    rows = []
    for design in designs:
        ctx = get_context(design)
        qcp = optimize_dose_map(ctx, grid_size, mode="qcp")
        dp = run_dosepl(ctx, qcp.dose_map_poly, config=dosepl_config)
        rows.append(
            [
                design,
                ctx.baseline.mct,
                qcp.mct,
                qcp.mct_improvement_pct,
                dp.mct,
                (ctx.baseline.mct - dp.mct) / ctx.baseline.mct * 100.0,
                qcp.leakage,
                dp.leakage,
                dp.swaps_accepted,
            ]
        )
    return TableResult(
        exp_id="Table VIII",
        title="QCP + dosePl (cell swapping), 5x5 um grids",
        headers=[
            "design", "nom MCT", "QCP MCT", "QCP imp %",
            "dosePl MCT", "dosePl imp %", "QCP leak", "dosePl leak",
            "swaps",
        ],
        rows=rows,
    )

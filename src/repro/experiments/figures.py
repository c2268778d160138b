"""Regeneration of the paper's figures (3, 4, 5, 6, 10) as data series.

Figures are returned as :class:`~repro.experiments.harness.TableResult`
objects holding the plotted series (x, y columns), plus a tiny ASCII
renderer for terminal inspection.  Figures 1, 2 and 9 are equipment /
concept illustrations with no data content; Fig. 1's actuator math is
exercised by :mod:`repro.dosemap.profiles` instead.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    bias_critical_paths,
    optimize_dose_map,
    run_dosepl,
)
from repro.experiments.harness import TableResult, get_context
from repro.library import CellLibrary
from repro.tech import device, get_node


def fig1_dose_profiles() -> TableResult:
    """Fig. 1: the Unicom-XL (slit) and Dosicom (scan) actuator concept.

    The paper's Fig. 1 is an equipment illustration; its mathematical
    content is the pair of profile families -- a polynomial slit profile
    (default production filter: quadratic) and a Legendre-series scan
    profile (equation (1)).  We render representative members of both.
    """
    from repro.dosemap import legendre_scan_profile, slit_profile

    xs = np.linspace(-1, 1, 21)
    slit = slit_profile([0.0, 0.0, -2.0], xs)  # quadratic gray filter
    scan = legendre_scan_profile([0.5, 1.0, 0.0, -0.8], xs)
    rows = [
        [float(x), float(s), float(d)] for x, s, d in zip(xs, slit, scan)
    ]
    return TableResult(
        exp_id="Fig. 1",
        title="DoseMapper actuator profiles: Unicom-XL slit (quadratic) "
        "and Dosicom scan (Legendre, eq. (1))",
        headers=["position", "slit dose %", "scan dose %"],
        rows=rows,
        notes=["Fig. 9 (cell bounding box) is a layout illustration with "
               "no data content; its math lives in "
               "Placement.neighborhood_bbox"],
    )


def fig2_dose_sensitivity(node_name: str = "65nm") -> TableResult:
    """Fig. 2: dose sensitivity -- increasing dose decreases CD.

    Linear CD-vs-dose with the paper's typical Ds = -2 nm/%.
    """
    from repro.constants import DEFAULT_DOSE_SENSITIVITY
    from repro.tech import device

    node = get_node(node_name)
    doses = np.linspace(-5, 5, 21)
    rows = [
        [
            float(d),
            float(node.l_nominal
                  + device.dose_to_delta_cd(d, DEFAULT_DOSE_SENSITIVITY)),
        ]
        for d in doses
    ]
    return TableResult(
        exp_id="Fig. 2",
        title=f"Dose sensitivity: printed CD vs dose ({node_name}, "
        "Ds = -2 nm/%)",
        headers=["dose %", "CD nm"],
        rows=rows,
        notes=["increasing dose decreases the printed CD (negative Ds)"],
    )


def fig3_delay_vs_length(node_name: str = "65nm") -> TableResult:
    """Fig. 3: inverter delay vs gate length (approximately linear)."""
    node = get_node(node_name)
    lib = CellLibrary(node_name)
    inv = lib.cell("INVX1")
    lengths = np.linspace(node.l_nominal - 10, node.l_nominal + 10, 21)
    loads = 4.0  # fF, a representative FO-like load
    rows = []
    for length in lengths:
        r_n = float(device.on_resistance(node, length, inv.w_n))
        r_p = float(device.on_resistance(node, length, inv.w_p))
        c = loads + float(device.parasitic_cap(node, inv.w_n + inv.w_p))
        tphl = np.log(2) * r_n * c * 1e-3
        tplh = np.log(2) * r_p * c * 1e-3
        rows.append([float(length), tplh, tphl])
    return TableResult(
        exp_id="Fig. 3",
        title=f"INVX1 delay vs gate length ({node_name})",
        headers=["L nm", "TPLH ns", "TPHL ns"],
        rows=rows,
        notes=["delay is approximately linear in L near nominal"],
    )


def fig4_delay_vs_width(node_name: str = "65nm") -> TableResult:
    """Fig. 4: inverter delay vs gate width change (approximately linear)."""
    node = get_node(node_name)
    lib = CellLibrary(node_name)
    inv = lib.cell("INVX1")
    dws = np.linspace(-10, 10, 21)
    rows = []
    for dw in dws:
        r_n = float(device.on_resistance(node, node.l_nominal, inv.w_n + dw))
        r_p = float(device.on_resistance(node, node.l_nominal, inv.w_p + dw))
        c = 4.0 + float(device.parasitic_cap(node, inv.w_n + inv.w_p + 2 * dw))
        rows.append(
            [float(dw), np.log(2) * r_p * c * 1e-3, np.log(2) * r_n * c * 1e-3]
        )
    return TableResult(
        exp_id="Fig. 4",
        title=f"INVX1 delay vs gate width change ({node_name})",
        headers=["dW nm", "TPLH ns", "TPHL ns"],
        rows=rows,
        notes=["delay decreases approximately linearly as width grows"],
    )


def fig5_leakage_vs_length(node_name: str = "65nm") -> TableResult:
    """Fig. 5: INVX1 average leakage vs gate length (exponential)."""
    node = get_node(node_name)
    lib = CellLibrary(node_name)
    from repro.library import cell_leakage

    lengths = np.linspace(node.l_nominal - 10, node.l_nominal + 10, 21)
    rows = []
    for length in lengths:
        leak = cell_leakage(node, lib.cell("INVX1"), dl_nm=length - node.l_nominal)
        rows.append([float(length), leak])
    return TableResult(
        exp_id="Fig. 5",
        title=f"INVX1 average leakage vs gate length ({node_name}, "
        "VDD nominal, 25C, TT)",
        headers=["L nm", "leakage uW"],
        rows=rows,
        notes=["leakage is exponential in gate length"],
    )


def fig6_leakage_vs_width(node_name: str = "65nm") -> TableResult:
    """Fig. 6: INVX1 average leakage vs gate width change (linear)."""
    node = get_node(node_name)
    lib = CellLibrary(node_name)
    dws = np.linspace(-10, 10, 21)
    rows = []
    from repro.library import cell_leakage

    for dw in dws:
        rows.append(
            [float(dw), cell_leakage(node, lib.cell("INVX1"), dw_nm=float(dw))]
        )
    return TableResult(
        exp_id="Fig. 6",
        title=f"INVX1 average leakage vs gate width change ({node_name})",
        headers=["dW nm", "leakage uW"],
        rows=rows,
        notes=["leakage is linear in gate width"],
    )


def fig10_slack_profiles(design: str = "AES-65", grid_size: float = 5.0,
                         top_k: int = 1000, n_bins: int = 30) -> TableResult:
    """Fig. 10: endpoint slack profiles for Orig / DMopt / dosePl / Bias.

    All four designs' slacks are measured against the *original* MCT so
    the profiles share an x-axis, as in the paper's figure.
    """
    ctx = get_context(design)
    period = ctx.baseline.mct

    orig = ctx.analyzer.analyze(clock_period=period)
    qcp = optimize_dose_map(ctx, grid_size, mode="qcp")
    dmopt = ctx.analyzer.analyze(
        doses=ctx.gate_dose_array(qcp.dose_map_poly), clock_period=period
    )
    dp = run_dosepl(ctx, qcp.dose_map_poly)
    dp_analyzer = ctx.analyzer_for(dp.placement)
    dosepl = dp_analyzer.analyze(
        doses=ctx.gate_dose_array(qcp.dose_map_poly, placement=dp.placement),
        clock_period=period,
    )
    bias_res, bias_leak, bias_doses = bias_critical_paths(ctx, k=top_k)
    bias = ctx.analyzer.analyze(doses=bias_doses, clock_period=period)

    all_slacks = np.concatenate(
        [
            np.fromiter(r.slack.values(), dtype=float)
            for r in (orig, dmopt, dosepl, bias)
        ]
    )
    lo, hi = float(all_slacks.min()), float(np.percentile(all_slacks, 75))
    edges = np.linspace(lo, hi, n_bins + 1)
    rows = []
    series = {"Orig": orig, "DMopt": dmopt, "dosePl": dosepl, "Bias": bias}
    counts = {
        name: np.histogram(
            np.fromiter(r.slack.values(), dtype=float), bins=edges
        )[0]
        for name, r in series.items()
    }
    for b in range(n_bins):
        rows.append(
            [
                0.5 * (edges[b] + edges[b + 1]),
                int(counts["Orig"][b]),
                int(counts["DMopt"][b]),
                int(counts["dosePl"][b]),
                int(counts["Bias"][b]),
            ]
        )
    tr = TableResult(
        exp_id="Fig. 10",
        title=f"Slack profiles of {design} (reference period = original MCT)",
        headers=["slack ns", "Orig", "DMopt", "dosePl", "Bias"],
        rows=rows,
    )
    tr.notes.append(
        "worst slack: "
        f"Orig {min(orig.slack.values()):+.3f}, "
        f"DMopt {min(dmopt.slack.values()):+.3f}, "
        f"dosePl {min(dosepl.slack.values()):+.3f}, "
        f"Bias {min(bias.slack.values()):+.3f} ns"
    )
    tr.notes.append(
        f"Bias leakage cost: {bias_leak:.1f} uW vs "
        f"{ctx.baseline_leakage:.1f} uW baseline"
    )
    return tr


def ascii_plot(table: TableResult, x_col: str, y_col: str, width: int = 60,
               height: int = 14) -> str:
    """Tiny ASCII scatter of one series, for terminal inspection."""
    xs = np.array(table.column(x_col), dtype=float)
    ys = np.array(table.column(y_col), dtype=float)
    grid = [[" "] * width for _ in range(height)]
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    if x1 == x0 or y1 == y0:
        return f"(flat series: {y_col} constant at {ys[0]:.4g})"
    for x, y in zip(xs, ys):
        col = int((x - x0) / (x1 - x0) * (width - 1))
        row = height - 1 - int((y - y0) / (y1 - y0) * (height - 1))
        grid[row][col] = "*"
    lines = [f"{table.exp_id}: {y_col} vs {x_col}"]
    lines += ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width)
    lines.append(f" x: [{x0:.3g}, {x1:.3g}]  y: [{y0:.4g}, {y1:.4g}]")
    return "\n".join(lines)

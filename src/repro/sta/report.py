"""Signoff-style text reports.

Human-readable reports in the flavor of PrimeTime's ``report_timing`` and
SOC Encounter's power report -- the artifacts the paper's flow consumes
("wire delay is obtained from golden static timing analysis reports",
Section III).  Useful for debugging dose maps and for downstream users
who want familiar-looking output.
"""

from __future__ import annotations

from repro.sta.paths import top_k_paths


def report_timing(
    graph,
    result,
    n_paths: int = 3,
    clock_period: float = None,
) -> str:
    """Top-N critical path report (per-gate incr/arrival columns).

    ``graph`` is the design's compiled timing graph and ``result`` an
    STA pass over it.
    """
    period = result.mct if clock_period is None else float(clock_period)
    netlist, library = graph.netlist, graph.library
    paths = top_k_paths(graph, result, n_paths)
    lines = [
        "Timing report",
        f"  clock period : {period:.4f} ns",
        f"  design MCT   : {result.mct:.4f} ns",
        f"  worst slack  : {period - result.mct:+.4f} ns",
        "",
    ]
    for idx, path in enumerate(paths, 1):
        lines.append(f"Path {idx}: delay {path.delay:.4f} ns, "
                     f"slack {path.slack(period):+.4f} ns, "
                     f"endpoint {path.endpoint}")
        lines.append(f"  {'instance':<22}{'cell':<10}{'incr':>9}{'arrival':>10}")
        arrival = 0.0
        prev = None
        for gate_name in path.gates:
            incr = result.gate_delay[gate_name]
            if prev is not None:
                incr += result.wire_delay.get((prev, gate_name), 0.0)
            arrival += incr
            master = netlist.gate(gate_name).master
            lines.append(
                f"  {gate_name:<22}{master:<10}{incr:>9.4f}{arrival:>10.4f}"
            )
            prev = gate_name
        if path.endpoint.startswith("FF:"):
            flop = path.endpoint.split(":")[1]
            setup = library.cell(netlist.gate(flop).master).setup_ns
            wire = result.wire_delay.get((prev, flop), 0.0)
            arrival += wire + setup
            lines.append(
                f"  {flop + ' (setup)':<22}{'':<10}{wire + setup:>9.4f}"
                f"{arrival:>10.4f}"
            )
        lines.append("")
    return "\n".join(lines)


def report_power(netlist, library, doses=None, top_n: int = 10) -> str:
    """Leakage power report grouped by master, worst offenders first."""
    from repro.power import leakage_by_master, total_leakage

    by_master = leakage_by_master(netlist, library, doses)
    total = total_leakage(netlist, library, doses)
    hist = netlist.master_histogram()
    ranked = sorted(by_master.items(), key=lambda kv: -kv[1])
    lines = [
        "Leakage power report",
        f"  total leakage : {total:.3f} uW over {netlist.n_gates} cells",
        "",
        f"  {'master':<10}{'count':>7}{'leakage uW':>12}{'share %':>9}",
    ]
    for master, leak in ranked[:top_n]:
        lines.append(
            f"  {master:<10}{hist[master]:>7}{leak:>12.3f}"
            f"{leak / total * 100:>9.2f}"
        )
    if len(ranked) > top_n:
        rest = sum(v for _k, v in ranked[top_n:])
        lines.append(
            f"  {'(others)':<10}{'':>7}{rest:>12.3f}{rest / total * 100:>9.2f}"
        )
    return "\n".join(lines)


def report_dose_map(dose_map, dose_range: float = 5.0) -> str:
    """ASCII heat map of a dose map (rows top-to-bottom = +y down)."""
    ramp = " .:-=+*#%@"
    values = dose_map.values
    lines = [
        f"Dose map ({dose_map.layer}), {values.shape[0]}x{values.shape[1]} "
        f"grids, range [{values.min():+.2f}, {values.max():+.2f}] %",
    ]
    span = 2.0 * dose_range
    for row in values[::-1]:  # print +y at the top
        chars = []
        for v in row:
            frac = min(max((v + dose_range) / span, 0.0), 1.0)
            chars.append(ramp[int(frac * (len(ramp) - 1))])
        lines.append("  |" + "".join(chars) + "|")
    lines.append(f"  legend: ' '={-dose_range:+.0f}% ... '@'={dose_range:+.0f}%")
    return "\n".join(lines)

"""Command-line interface.

Subcommands (also reachable as ``python -m repro``):

* ``generate`` -- emit a benchmark design as Verilog + DEF files,
* ``analyze``  -- golden STA + leakage reports for a design (built-in
  name, or an imported Verilog/DEF pair),
* ``optimize`` -- run the dose map (and optionally dosePl) flow and
  report golden before/after numbers, with an ASCII dose-map heat map.

Examples::

    python -m repro generate AES-65 --verilog aes.v --def aes.def
    python -m repro analyze AES-65
    python -m repro analyze --verilog aes.v --def aes.def --node 65nm
    python -m repro optimize AES-65 --grid 5 --mode qcp --dosepl
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.core import DesignContext, DoseplConfig, run_flow
from repro.io import parse_def, parse_verilog, write_def, write_verilog
from repro.library import CellLibrary
from repro.netlist import design_names, make_design
from repro.netlist.designs import DesignBundle
from repro.placement import place_design
from repro.sta import report_dose_map, report_power, report_timing


def _load_context(args) -> DesignContext:
    """Build a DesignContext from a built-in name or Verilog/DEF files."""
    if args.design:
        bundle = make_design(args.design, scale=getattr(args, "scale", 1.0))
        return DesignContext(
            bundle, fit_width=getattr(args, "both_layers", False)
        )
    if not (args.verilog and args.def_file):
        raise SystemExit(
            "either a built-in design name or --verilog plus --def is required"
        )
    library = CellLibrary(args.node)
    netlist = parse_verilog(
        pathlib.Path(args.verilog).read_text(), library
    )
    placement = parse_def(pathlib.Path(args.def_file).read_text(), netlist)
    die = placement.die
    bundle = DesignBundle(
        name=netlist.name,
        netlist=netlist,
        library=library,
        die_width=die.width,
        die_height=die.height,
    )
    return DesignContext(
        bundle, placement=placement,
        fit_width=getattr(args, "both_layers", False),
    )


def _cmd_generate(args) -> int:
    bundle = make_design(args.design, scale=args.scale)
    placement = place_design(bundle)
    v_path = pathlib.Path(args.verilog or f"{args.design}.v")
    d_path = pathlib.Path(args.def_file or f"{args.design}.def")
    v_path.write_text(write_verilog(bundle.netlist, bundle.library))
    d_path.write_text(write_def(bundle.netlist, placement))
    print(f"wrote {v_path} ({bundle.netlist.n_gates} gates) and {d_path}")
    return 0


def _cmd_analyze(args) -> int:
    ctx = _load_context(args)
    print(f"design {ctx.bundle.name}: {ctx.netlist.n_gates} gates, "
          f"die {ctx.placement.die.width:.0f}x"
          f"{ctx.placement.die.height:.0f} um\n")
    print(report_timing(ctx.timing_graph, ctx.baseline, n_paths=args.paths))
    print(report_power(ctx.netlist, ctx.library))
    return 0


def _cmd_optimize(args) -> int:
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    ctx = _load_context(args)
    flow = run_flow(
        ctx,
        grid_size=args.grid,
        mode=args.mode,
        both_layers=args.both_layers,
        with_dosepl=args.dosepl,
        dosepl_config=(
            DoseplConfig(top_k=args.top_k) if args.dosepl else None
        ),
        checkpoint=args.checkpoint,
        resume=args.resume,
        smoothness=args.smoothness,
        dose_range=args.dose_range,
    )
    if flow.dmopt.solve.info.get("resumed"):
        print(f"dose-map solve resumed from {args.checkpoint}")
    if args.certify:
        from repro.core import certify_result, enforce_certificate

        report = certify_result(
            ctx, flow.dmopt, dose_range=args.dose_range,
            smoothness=args.smoothness,
        )
        print(report.summary())
        enforce_certificate(report, label=ctx.bundle.name)
    if not flow.dmopt.ok:
        print(f"dose-map solve failed ({flow.dmopt.status}); "
              "baseline numbers reported")
        if flow.dmopt.infeasibility is not None:
            print(flow.dmopt.infeasibility.summary())
    print(flow.summary())
    print()
    print(report_dose_map(flow.dmopt.dose_map_poly,
                          dose_range=args.dose_range))
    if flow.dmopt.dose_map_active is not None:
        print(report_dose_map(flow.dmopt.dose_map_active,
                              dose_range=args.dose_range))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dose map and placement co-optimization "
        "(DAC'08/TCAD'10 reproduction)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="write a JSONL run manifest (tracing spans, solver and "
        "harness events); optional PATH overrides the default "
        "(REPRO_TELEMETRY_PATH or repro_telemetry.jsonl)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_design_source(p, positional_required=False):
        p.add_argument(
            "design",
            nargs=None if positional_required else "?",
            choices=None if not positional_required else design_names(),
            help=f"built-in design name ({', '.join(design_names())})",
        )
        p.add_argument("--verilog", help="structural Verilog netlist to load")
        p.add_argument("--def", dest="def_file", help="DEF placement to load")
        p.add_argument("--node", default="65nm", choices=["65nm", "90nm"],
                       help="technology node for imported netlists")
        p.add_argument("--scale", type=float, default=1.0,
                       help="structural scale factor for built-in designs")

    p_gen = sub.add_parser("generate", help="emit a benchmark design")
    add_design_source(p_gen, positional_required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_ana = sub.add_parser("analyze", help="golden STA + leakage reports")
    add_design_source(p_ana)
    p_ana.add_argument("--paths", type=int, default=3,
                       help="number of critical paths to report")
    p_ana.set_defaults(func=_cmd_analyze)

    p_opt = sub.add_parser("optimize", help="run the DMopt (+dosePl) flow")
    add_design_source(p_opt)
    p_opt.add_argument("--grid", type=float, default=5.0,
                       help="dose grid size G in um")
    p_opt.add_argument("--mode", choices=["qp", "qcp"], default="qcp")
    p_opt.add_argument("--both-layers", action="store_true",
                       help="modulate gate width (active layer) too")
    p_opt.add_argument("--dosepl", action="store_true",
                       help="run the cell-swapping placement pass")
    p_opt.add_argument("--top-k", type=int, default=1000,
                       help="critical paths considered by dosePl")
    p_opt.add_argument("--smoothness", type=float, default=2.0,
                       help="dose smoothness bound delta (%%)")
    p_opt.add_argument("--dose-range", type=float, default=5.0,
                       help="dose correction range (+/- %%)")
    p_opt.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="JSONL checkpoint file: the dose-map solve is "
                       "stored under a content hash of the design and "
                       "settings, for restart with --resume")
    p_opt.add_argument("--resume", action="store_true",
                       help="serve the dose-map solve from --checkpoint "
                       "when present instead of truncating the file")
    p_opt.add_argument("--certify", action="store_true",
                       help="independently re-verify the result (dose "
                       "range, smoothness, timing, leakage, signoff) and "
                       "fail on violation")
    p_opt.set_defaults(func=_cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace is not None:
        from repro import telemetry

        telemetry.configure(
            enabled=True,
            path=None if args.trace is True else args.trace,
        )
    from repro import obs

    with obs.span(f"cli.{args.command}",
                  design=getattr(args, "design", None)):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate every paper table/figure from the command line.

Usage::

    python -m repro.experiments                # everything (takes a while)
    python -m repro.experiments table2 table7  # a subset
    python -m repro.experiments --list         # show available experiments

Results are printed and saved under ``benchmarks/results/`` so the
benchmark suite and EXPERIMENTS.md share one source of truth.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments import (
    fig1_dose_profiles,
    fig2_dose_sensitivity,
    fig3_delay_vs_length,
    fig4_delay_vs_width,
    fig5_leakage_vs_length,
    fig6_leakage_vs_width,
    fig10_slack_profiles,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)

EXPERIMENTS = {
    "fig1": fig1_dose_profiles,
    "fig2": fig2_dose_sensitivity,
    "fig3": fig3_delay_vs_length,
    "fig4": fig4_delay_vs_width,
    "fig5": fig5_leakage_vs_length,
    "fig6": fig6_leakage_vs_width,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "fig10": fig10_slack_profiles,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("names", nargs="*", help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--out",
        default="benchmarks/results",
        help="output directory for the formatted tables",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for the DMopt tables (4/5/6); 0 = all "
        "cores; default: REPRO_JOBS env or serial",
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
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="JSONL checkpoint file for the DMopt tables (4/5/6): each "
        "completed cell is appended under a content-hash key so an "
        "interrupted run can restart with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from --checkpoint instead of "
        "truncating it (requires --checkpoint)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget for the DMopt tables; a cell "
        "exceeding it is killed and reported as status=timeout "
        "(default: REPRO_CELL_TIMEOUT env or no deadline)",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="independently re-verify every DMopt cell (dose range, "
        "smoothness, timing, leakage) and fail the run on violation",
    )
    args = parser.parse_args(argv)
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")

    if args.trace is not None:
        from repro import telemetry

        telemetry.configure(
            enabled=True,
            path=None if args.trace is True else args.trace,
        )

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; try --list")

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    parallelizable = {"table4", "table5", "table6"}
    # without --resume the checkpoint starts fresh, but only the FIRST
    # table of this invocation truncates it -- later tables append to
    # the same file (cell keys are content hashes, so tables never
    # collide)
    resume = args.resume
    from repro import obs

    with obs.span("experiments", names=names):
        for name in names:
            t0 = time.perf_counter()
            kwargs = {}
            if name in parallelizable:
                # only pass flags the user actually set, so monkeypatched /
                # reduced-signature table functions keep working
                if args.jobs is not None:
                    kwargs["jobs"] = args.jobs
                if args.checkpoint is not None:
                    kwargs["checkpoint"] = args.checkpoint
                    kwargs["resume"] = resume
                    resume = True
                if args.cell_timeout is not None:
                    kwargs["cell_timeout"] = args.cell_timeout
                if args.certify:
                    kwargs["certify"] = True
            with obs.span(f"experiment.{name}"):
                table = EXPERIMENTS[name](**kwargs)
            elapsed = time.perf_counter() - t0
            print(table.format())
            print(f"[{name}: {elapsed:.1f} s]")
            print()
            (out_dir / f"{name}.txt").write_text(table.format() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Observability CLI: ``python -m repro.obs {report,compare}``.

* ``report <manifest.jsonl>`` -- per-stage wall-time tree, top spans by
  self time, solver iteration statistics, and merged run-total metrics
  from one telemetry manifest (``--json`` for machine-readable output).
* ``compare <baseline.json> <current.json>`` -- diff two BENCH_*.json
  benchmark files and exit 1 when a time/speedup metric regressed
  beyond ``--tol`` (the CI perf gate), 2 when either file is missing.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.compare import compare_files, format_comparison
from repro.obs.report import format_report, summarize


def _cmd_report(args) -> int:
    if args.json:
        print(json.dumps(summarize(args.manifest), indent=2, sort_keys=True))
        return 0
    print(format_report(args.manifest, max_depth=args.max_depth,
                        top=args.top))
    return 0


def _cmd_compare(args) -> int:
    try:
        result = compare_files(args.baseline, args.current, tol=args.tol,
                               floor=args.floor)
    except FileNotFoundError as exc:
        print(f"compare: no such file: {exc.filename}", file=sys.stderr)
        return 2
    print(format_comparison(result, verbose=args.verbose))
    failed = bool(result["regressions"]) or (
        bool(result["missing"]) and not args.allow_missing
    )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze run manifests and gate benchmark regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = sub.add_parser(
        "report", help="per-stage wall-time tree + solver/metric stats"
    )
    p_rep.add_argument("manifest", help="JSONL run manifest (--trace output)")
    p_rep.add_argument("--json", action="store_true",
                       help="machine-readable summary instead of text")
    p_rep.add_argument("--max-depth", type=int, default=None,
                       help="clip the span tree at this depth")
    p_rep.add_argument("--top", type=int, default=10,
                       help="span names listed in the self-time ranking")
    p_rep.set_defaults(func=_cmd_report)

    p_cmp = sub.add_parser(
        "compare", help="diff two BENCH_*.json files; exit 1 on regression"
    )
    p_cmp.add_argument("baseline", help="committed baseline BENCH_*.json")
    p_cmp.add_argument("current", help="freshly measured BENCH_*.json")
    p_cmp.add_argument("--tol", type=float, default=0.5,
                       help="relative regression tolerance (0.5 = 50%%)")
    p_cmp.add_argument("--floor", type=float, default=1e-3,
                       help="ignore metrics below this absolute value")
    p_cmp.add_argument("--allow-missing", action="store_true",
                       help="do not fail when a baseline metric is absent "
                       "from the current file")
    p_cmp.add_argument("--verbose", "-v", action="store_true",
                       help="also list unchanged/informational metrics")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Observability CLI: ``python -m repro.obs {report,compare}``.

* ``report <manifest.jsonl>`` -- per-stage wall-time tree, top spans by
  self time, solver iteration statistics, and merged run-total metrics
  from one telemetry manifest (``--json`` for machine-readable output).
* ``compare <baseline.json> <current.json>`` -- gate a fresh perfbench
  record against a committed ``BENCH_<workload>.json``: exit 1 when a
  work counter changed or a timer ran over 2x its baseline (the CI perf
  gate), 2 when either file is missing.
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
        n_baseline, failures = compare_files(args.baseline, args.current)
    except FileNotFoundError as exc:
        print(f"compare: no such file: {exc.filename}", file=sys.stderr)
        return 2
    print(format_comparison(args.baseline, n_baseline, failures))
    return 1 if failures else 0


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
        "compare", help="gate a fresh perfbench record against a committed "
        "one; exit 1 on a changed count or a 2x slower timer"
    )
    p_cmp.add_argument("baseline", help="committed BENCH_<workload>.json")
    p_cmp.add_argument("current", help="freshly recorded BENCH_<workload>.json")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

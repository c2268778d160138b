"""Benchmark regression gate: diff two ``BENCH_<workload>.json`` records.

``python -m repro.obs compare <baseline.json> <current.json>`` reads the
``metrics`` of two perfbench records (``{name: {"value", "unit"}}``, the
last stdout line of ``perfbench/run.py``) and judges each baseline
metric by its unit:

* ``count`` metrics (iterations, LU fill, STA passes, ...) are
  deterministic work counters and must be equal; an intended change
  means re-recording the baseline with ``make bench``;
* ``s`` metrics fail when the current value exceeds ``TIME_TOL`` times
  the baseline, unless both are under ``FLOOR_S`` -- a 2x blip on a
  200 us timer is noise, not signal;
* every other unit (``%``, ``ratio``, ``MB``, ``B``, ``1/s``) is
  informational: correctness drift is the tests' job, not the gate's.

A baseline metric missing from the current record fails.
"""

from __future__ import annotations

import json

#: A timer fails when it reads more than this many times its baseline.
TIME_TOL = 2.0

#: Timers under this many seconds in both records are skipped.
FLOOR_S = 1e-3


def compare_metrics(baseline: dict, current: dict) -> list:
    """Failing metrics of two ``{name: {"value", "unit"}}`` dicts.

    Returns ``[(name, why)]`` sorted by name, empty when the current
    record passes the gate.
    """
    failures = []
    for name in sorted(baseline):
        base = baseline[name]["value"]
        unit = baseline[name]["unit"]
        if name not in current:
            failures.append((name, f"{base:g} {unit} -> missing"))
            continue
        cur = current[name]["value"]
        if unit == "count" and cur != base:
            failures.append((name, f"{base:g} -> {cur:g} (counts must match)"))
        elif (unit == "s" and max(base, cur) >= FLOOR_S
              and cur > TIME_TOL * base):
            failures.append(
                (name, f"{base:g} s -> {cur:g} s (> {TIME_TOL:g}x)")
            )
    return failures


def compare_files(baseline_path, current_path) -> tuple:
    """``(n_baseline_metrics, failures)`` for two record files."""
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)["metrics"]
    with open(current_path, encoding="utf-8") as fh:
        current = json.load(fh)["metrics"]
    return len(baseline), compare_metrics(baseline, current)


def format_comparison(label, n_baseline: int, failures: list) -> str:
    lines = [f"FAILED  {name}: {why}" for name, why in failures]
    lines.append(f"{label}: {n_baseline} baseline metrics, "
                 f"{len(failures)} failed")
    return "\n".join(lines)

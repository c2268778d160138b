"""Manifest analysis: span trees, solver stats, run totals.

``python -m repro.obs report <manifest.jsonl>`` reassembles the flat
JSONL run manifest (see :mod:`repro.telemetry`) into the things a human
asks of a run:

* a **wall-time tree** per trace, rebuilt from the ``span`` events'
  ``span_id``/``parent_id`` links (workers' spans parent into the
  harness span via the inherited ``REPRO_TRACE_CTX``, so one tree spans
  all processes of the run);
* **per-stage aggregates** (count, total, share of the root) and the
  top spans by *self* time (own duration minus child durations);
* **solver statistics** from the ``solve``/``qcp`` events: per-backend
  solve counts, warm vs cold iteration totals, status mix, and final
  residuals taken from the attached convergence traces;
* **run totals** counted from the events and span attributes already
  in the manifest: fallback steps beyond the first ``ipm`` attempt,
  checkpoint hits, watchdog kills, worker retries and pool restarts,
  plus the formulation cache hit rate (the ``dmopt`` spans'
  ``formulation`` attribute) and the STA incremental fraction (the
  ``dosepl`` events' trial-timer pass counts).

Everything here is read-only over a manifest file; nothing imports the
solvers or the STA, so the report tool works on manifests from other
machines.
"""

from __future__ import annotations

import json


def load_manifest(path) -> list:
    """Decode a JSONL manifest; undecodable lines are skipped, counted.

    Returns ``(records, n_bad_lines)`` -- a truncated last line (a run
    killed mid-write) must not make the whole manifest unreadable.
    """
    records = []
    bad = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                bad += 1
    return records, bad


# ----------------------------------------------------------------------
# span tree
# ----------------------------------------------------------------------
class SpanNode:
    """One reassembled span with resolved children."""

    __slots__ = ("record", "children")

    def __init__(self, record: dict):
        self.record = record
        self.children = []

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def seconds(self) -> float:
        return float(self.record.get("seconds", 0.0))

    @property
    def start(self) -> float:
        # ts is the span's end wall time; approximate start for ordering
        return float(self.record.get("ts", 0.0)) - self.seconds

    @property
    def self_seconds(self) -> float:
        """Own duration minus time attributed to child spans."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


def build_trees(records) -> dict:
    """``{trace_id: [root SpanNode, ...]}`` from a manifest's span events.

    A span whose ``parent_id`` is missing from the manifest (the parent
    process died before emitting, or the file was truncated) becomes a
    root of its trace rather than vanishing.  Children are ordered by
    start time.
    """
    nodes = {}
    for rec in records:
        if rec.get("event") == "span" and rec.get("span_id"):
            nodes[rec["span_id"]] = SpanNode(rec)
    traces = {}
    for node in nodes.values():
        parent = nodes.get(node.record.get("parent_id"))
        if parent is not None:
            parent.children.append(node)
        else:
            traces.setdefault(node.record.get("trace_id"), []).append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.start)
    for roots in traces.values():
        roots.sort(key=lambda n: n.start)
    return traces


def _span_attrs(record: dict) -> str:
    from repro.telemetry import BASE_FIELDS

    skip = BASE_FIELDS | {"name", "trace_id", "span_id", "parent_id",
                          "seconds"}
    parts = []
    for key, value in record.items():
        if key in skip or value is None:
            continue
        if isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def format_tree(traces, max_depth: int = None) -> list:
    """Indented per-trace wall-time tree lines."""
    lines = []
    for trace_id, roots in sorted(traces.items(), key=lambda kv: str(kv[0])):
        total = sum(r.seconds for r in roots)
        lines.append(f"trace {trace_id}  ({total:.3f} s)")
        for root in roots:
            root_s = root.seconds or 1e-12
            for depth, node in root.walk():
                if max_depth is not None and depth > max_depth:
                    continue
                pct = 100.0 * node.seconds / root_s
                attrs = _span_attrs(node.record)
                lines.append(
                    f"  {'  ' * depth}{node.name:<{max(1, 38 - 2 * depth)}}"
                    f"{node.seconds:>9.3f} s  {pct:5.1f}%"
                    + (f"  [{attrs}]" if attrs else "")
                )
    return lines


def aggregate_spans(traces) -> dict:
    """Per-name totals: ``{name: {count, total, self_total}}``."""
    agg = {}
    for roots in traces.values():
        for root in roots:
            for _, node in root.walk():
                entry = agg.setdefault(
                    node.name, {"count": 0, "total": 0.0, "self_total": 0.0}
                )
                entry["count"] += 1
                entry["total"] += node.seconds
                entry["self_total"] += node.self_seconds
    return agg


# ----------------------------------------------------------------------
# solver statistics
# ----------------------------------------------------------------------
def solver_stats(records) -> dict:
    """Per-backend roll-up of the ``solve`` events (+ a ``qcp`` entry).

    ``residuals`` holds the final ``(r_prim, r_dual)`` medians over the
    attached per-iteration convergence traces -- i.e. where the solvers
    actually stopped, not just the verdict statuses.
    """
    stats = {}
    for rec in records:
        if rec.get("event") == "solve":
            entry = stats.setdefault(
                rec.get("backend", "?"),
                {
                    "solves": 0,
                    "iterations": 0,
                    "warm": 0,
                    "cold": 0,
                    "statuses": {},
                    "trace_points": 0,
                    "final_r_prim": [],
                    "final_r_dual": [],
                },
            )
            entry["solves"] += 1
            entry["iterations"] += int(rec.get("iterations", 0))
            entry["warm" if rec.get("warm_started") else "cold"] += 1
            status = rec.get("status", "?")
            entry["statuses"][status] = entry["statuses"].get(status, 0) + 1
            trace = rec.get("trace") or []
            entry["trace_points"] += len(trace)
            if trace:
                last = trace[-1]
                # ipm rows are (it, mu, r_prim, r_dual); admm rows are
                # (k, r_prim, r_dual, rho)
                if rec.get("backend") == "ipm" and len(last) >= 4:
                    entry["final_r_prim"].append(float(last[2]))
                    entry["final_r_dual"].append(float(last[3]))
                elif len(last) >= 3:
                    entry["final_r_prim"].append(float(last[1]))
                    entry["final_r_dual"].append(float(last[2]))
        elif rec.get("event") == "qcp":
            entry = stats.setdefault(
                "qcp",
                {
                    "solves": 0,
                    "inner_solves": 0,
                    "iterations": 0,
                    "statuses": {},
                },
            )
            entry["solves"] += 1
            entry["inner_solves"] += int(rec.get("inner_solves", 0))
            entry["iterations"] += int(rec.get("iterations", 0))
            status = rec.get("status", "?")
            entry["statuses"][status] = entry["statuses"].get(status, 0) + 1
    return stats


def _median(values):
    if not values:
        return None
    vals = sorted(values)
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    return 0.5 * (vals[mid - 1] + vals[mid])


# ----------------------------------------------------------------------
# run totals
# ----------------------------------------------------------------------
#: Harness-health events counted one per record.
_HEALTH_EVENTS = ("checkpoint_hit", "watchdog_kill", "worker_retry",
                  "pool_restart")


def event_totals(records) -> dict:
    """Run totals counted from the manifest's events and span attributes.

    ``counts`` holds the fallback steps beyond the first ``ipm`` attempt
    (``fallback.<step>`` and their sum ``fallback.attempts``), one count
    per harness-health event, the ``dmopt`` spans' formulations
    (``formulation.built`` / ``formulation.cached``) and the dosePl
    trial timers' forward passes (``sta.full_passes`` /
    ``sta.cone_passes``, from the ``dosepl`` events).  ``rates`` holds
    the formulation cache hit rate and the STA incremental (dirty-cone)
    fraction; a rate with nothing to count is left out, as is a zero
    count.
    """
    counts = {}

    def add(name, n=1):
        if n:
            counts[name] = counts.get(name, 0) + n

    for rec in records:
        event = rec.get("event")
        if event == "fallback" and rec.get("step") != "ipm":
            add("fallback.attempts")
            add(f"fallback.{rec.get('step')}")
        elif event in _HEALTH_EVENTS:
            add(event)
        elif event == "span" and rec.get("formulation"):
            add(f"formulation.{rec['formulation']}")
        elif event == "dosepl":
            add("sta.full_passes", int(rec.get("sta_full_passes", 0)))
            add("sta.cone_passes", int(rec.get("sta_cone_passes", 0)))
    rates = {}
    for name, hits, misses in (
        ("formulation_cache_hit_rate", "formulation.cached",
         "formulation.built"),
        ("sta_incremental_fraction", "sta.cone_passes", "sta.full_passes"),
    ):
        total = counts.get(hits, 0) + counts.get(misses, 0)
        if total:
            rates[name] = counts.get(hits, 0) / total
    return {"counts": counts, "rates": rates}


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def summarize(path) -> dict:
    """Machine-readable report over one manifest (the ``--json`` output)."""
    records, bad_lines = load_manifest(path)
    traces = build_trees(records)
    roots = [root for roots in traces.values() for root in roots]
    events = {}
    for rec in records:
        kind = rec.get("event", "?")
        events[kind] = events.get(kind, 0) + 1
    return {
        "path": str(path),
        "n_events": len(records),
        "bad_lines": bad_lines,
        "events": events,
        "n_traces": len(traces),
        "root_seconds": sum(r.seconds for r in roots),
        "spans": aggregate_spans(traces),
        "solvers": solver_stats(records),
        "totals": event_totals(records),
    }


def format_report(path, max_depth: int = None, top: int = 10) -> str:
    """Human-readable report text (the default ``report`` output)."""
    records, bad_lines = load_manifest(path)
    traces = build_trees(records)
    lines = [f"manifest {path}: {len(records)} events"
             + (f" ({bad_lines} undecodable lines skipped)" if bad_lines
                else "")]

    if traces:
        lines.append("")
        lines.append("== span tree (wall time) ==")
        lines.extend(format_tree(traces, max_depth=max_depth))

        agg = aggregate_spans(traces)
        lines.append("")
        lines.append(f"== top spans by self time (of {len(agg)} names) ==")
        ranked = sorted(
            agg.items(), key=lambda kv: kv[1]["self_total"], reverse=True
        )
        for name, entry in ranked[:top]:
            lines.append(
                f"  {name:<38}{entry['self_total']:>9.3f} s self"
                f"  {entry['total']:>9.3f} s total  x{entry['count']}"
            )
    else:
        lines.append("no span events (run without spans, or telemetry off)")

    stats = solver_stats(records)
    if stats:
        lines.append("")
        lines.append("== solver iterations ==")
        for backend in sorted(stats):
            entry = stats[backend]
            statuses = ",".join(
                f"{k}:{v}" for k, v in sorted(entry["statuses"].items())
            )
            if backend == "qcp":
                lines.append(
                    f"  qcp   {entry['solves']} solves, "
                    f"{entry['inner_solves']} inner solves, "
                    f"{entry['iterations']} inner iterations  [{statuses}]"
                )
                continue
            mean = entry["iterations"] / max(entry["solves"], 1)
            line = (
                f"  {backend:<5} {entry['solves']} solves "
                f"({entry['warm']} warm / {entry['cold']} cold), "
                f"{entry['iterations']} iterations "
                f"(mean {mean:.1f})  [{statuses}]"
            )
            rp = _median(entry["final_r_prim"])
            rd = _median(entry["final_r_dual"])
            if rp is not None:
                line += f"  median final residuals r_prim={rp:.2e} " \
                        f"r_dual={rd:.2e}"
            lines.append(line)

    totals = event_totals(records)
    if totals["counts"] or totals["rates"]:
        lines.append("")
        lines.append("== run totals (from events and spans) ==")
        for name in sorted(totals["counts"]):
            lines.append(f"  {name:<38}{totals['counts'][name]:>9}")
        for name in sorted(totals["rates"]):
            lines.append(f"  {name:<38}{totals['rates'][name]:>9.1%}")
    return "\n".join(lines)

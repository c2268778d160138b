"""Observability layer: tracing spans and trace analysis.

Two pieces, both riding on the :mod:`repro.telemetry` manifest:

* :func:`span` -- hierarchical timed regions (trace/span/parent ids)
  that nest per thread and across pool workers, reassembled into a
  wall-time tree by ``python -m repro.obs report``;
* the analysis CLI (``python -m repro.obs``) with ``report`` (stage
  tree, top spans, solver convergence stats, and run totals -- fallback
  steps, checkpoint hits, watchdog kills, retries, the formulation
  cache hit rate and the STA incremental fraction -- counted from the
  manifest's events and span attributes) and ``compare`` (the
  perf-regression gate of a fresh perfbench record against a committed
  ``BENCH_<workload>.json``).

Everything is a no-op while telemetry is off (``REPRO_TELEMETRY`` /
``--trace`` / ``telemetry.configure``), so instrumented hot paths pay
only an early-returning check per call.  See ``docs/observability.md``.
"""

from repro.obs.spans import ENV_CTX, current_context, current_trace_id, span

#: Bound on per-solve convergence traces (ring buffer length): a solve
#: keeps its last this-many per-iteration residual records in
#: ``SolveResult.info["trace"]``.
TRACE_MAXLEN = 128

__all__ = [
    "ENV_CTX",
    "TRACE_MAXLEN",
    "current_context",
    "current_trace_id",
    "span",
]

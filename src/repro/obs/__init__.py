"""Observability layer: tracing spans, metrics registry, trace analysis.

Three pieces, all riding on the :mod:`repro.telemetry` manifest:

* :func:`span` -- hierarchical timed regions (trace/span/parent ids)
  that nest per thread and across pool workers, reassembled into a
  wall-time tree by ``python -m repro.obs report``;
* :mod:`repro.obs.metrics` -- process-wide counters / gauges /
  log-bucket histograms, flushed as one ``metrics`` event per process
  at exit;
* the analysis CLI (``python -m repro.obs``) with ``report`` (stage
  tree, top spans, solver convergence stats, cache-hit rates from a
  manifest) and ``compare`` (the perf-regression gate of a fresh
  perfbench record against a committed ``BENCH_<workload>.json``).

Everything is a no-op while telemetry is off (``REPRO_TELEMETRY`` /
``--trace`` / ``telemetry.configure``), so instrumented hot paths pay
only an early-returning check per call.  See ``docs/observability.md``.
"""

from repro.obs import metrics
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
    "metrics",
    "span",
]

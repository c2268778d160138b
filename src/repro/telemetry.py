"""Structured run telemetry: spans and solver events as JSONL.

A run manifest holds one event model: hierarchical tracing spans
(``span`` events, :func:`repro.obs.span`) plus the solver and
harness-health events of :data:`EVENT_SCHEMA` (solves, fallbacks,
infeasibility reports, retries, checkpoint hits, ...).  A run-level
outcome, such as a DMopt call's status, MCT and leakage, is an
attribute of the span that wraps the work, not an event of its own,
and a count of work (solves, fallback steps, cache hits, STA passes)
is read off those events and spans, not kept in a second registry.

Telemetry is **off by default** and costs one early-returning function
call per event when disabled, so the hot paths carry no measurable
overhead.

Enabling it
-----------
* environment: ``REPRO_TELEMETRY=1`` (and optionally
  ``REPRO_TELEMETRY_PATH=run.jsonl``; default ``repro_telemetry.jsonl``
  in the working directory), or
* programmatically: ``telemetry.configure(enabled=True, path=...)``, or
* the CLIs: ``python -m repro optimize ... --trace run.jsonl`` and
  ``python -m repro.experiments ... --trace run.jsonl``.

Events are appended as one JSON object per line (a *run manifest*).
Worker processes inherit the environment configuration and append to
the same manifest; each event is written as a single line so concurrent
appends stay line-atomic on POSIX.

Schema
------
Every event carries ``v`` (schema version), ``ts`` (unix seconds),
``mono`` (monotonic seconds, for in-process ordering immune to NTP
steps), ``pid``, and ``event``; :data:`EVENT_SCHEMA` lists the
per-event required fields.  ``python -m repro.telemetry
<manifest.jsonl>`` validates a manifest against the schema (the CI
smoke lane).

Durations (``seconds`` fields) are always monotonic-clock deltas
(``time.perf_counter``), never wall-clock differences, so an NTP step
mid-run cannot produce negative timings.

The tracing layer lives in :mod:`repro.obs` and writes through this
sink; ``python -m repro.obs report`` analyzes
the resulting manifest.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

SCHEMA_VERSION = 4

ENV_FLAG = "REPRO_TELEMETRY"
ENV_PATH = "REPRO_TELEMETRY_PATH"
DEFAULT_PATH = "repro_telemetry.jsonl"

#: Required payload fields per event type (beyond the base fields
#: ``v``/``ts``/``mono``/``pid``/``event``, required on every record).
EVENT_SCHEMA = {
    "run_end": {"run", "seconds"},
    "solve": {"backend", "status", "iterations", "r_prim", "r_dual",
              "seconds"},
    "fallback": {"step", "backend", "status"},
    "qcp": {"status", "lam", "inner_solves"},
    "infeasibility": {"blocking"},
    "dosepl": {"rounds_run", "swaps_accepted", "swaps_attempted"},
    "worker_retry": {"index", "error"},
    "pool_restart": {"reason"},
    "checkpoint_hit": {"key"},
    "watchdog_kill": {"index", "seconds"},
    "certify": {"ok", "mode"},
    # hierarchical tracing spans (repro.obs.spans)
    "span": {"name", "trace_id", "span_id", "seconds"},
}

BASE_FIELDS = {"v", "ts", "mono", "pid", "event"}


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "").strip() not in ("", "0", "false")


class _State:
    """Process-wide sink: configuration + lazily opened manifest handle."""

    __slots__ = ("enabled", "path", "_fh", "_lock")

    def __init__(self):
        self.enabled = _env_enabled()
        self.path = os.environ.get(ENV_PATH, "").strip() or DEFAULT_PATH
        self._fh = None
        self._lock = threading.Lock()

    def write(self, record: dict):
        line = _encode(record) + "\n"
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


_state = _State()


def _encode(record: dict) -> str:
    """JSON-encode one event, degrading rather than raising.

    Telemetry must never kill a run: a field value that the JSON
    encoder rejects (an arbitrary object, a circular structure, a
    non-string dict key) is degraded to its ``repr()`` instead of
    letting the exception propagate out of :func:`emit` mid-run.
    """
    try:
        return json.dumps(record, separators=(",", ":"), default=repr)
    except (TypeError, ValueError):
        pass
    degraded = {}
    for key, value in record.items():
        try:
            json.dumps(value, separators=(",", ":"), default=repr)
            degraded[str(key)] = value
        except (TypeError, ValueError):
            degraded[str(key)] = repr(value)
    return json.dumps(degraded, separators=(",", ":"), default=repr)


def enabled() -> bool:
    """Is telemetry on?  Cheap enough to call per event."""
    return _state.enabled


def configure(enabled: bool = None, path: str = None):
    """Reconfigure the sink (tests, CLIs).  ``None`` leaves a field as-is."""
    if path is not None:
        _state.close()
        _state.path = str(path)
        os.environ[ENV_PATH] = str(path)  # inherited by worker processes
    if enabled is not None:
        _state.enabled = bool(enabled)
        os.environ[ENV_FLAG] = "1" if enabled else "0"


def reset():
    """Close the sink and re-read the environment (test isolation)."""
    _state.close()
    _state.enabled = _env_enabled()
    _state.path = os.environ.get(ENV_PATH, "").strip() or DEFAULT_PATH


def emit(event: str, **fields):
    """Append one event to the manifest; no-op when telemetry is off."""
    if not _state.enabled:
        return
    record = {
        "v": SCHEMA_VERSION,
        "ts": time.time(),
        "mono": time.monotonic(),
        "pid": os.getpid(),
        "event": event,
    }
    record.update(fields)
    _state.write(record)


# ----------------------------------------------------------------------
# manifest validation (the CI smoke)
# ----------------------------------------------------------------------
def validate_event(record) -> list:
    """Schema problems of one decoded event record (empty list = valid)."""
    problems = []
    if not isinstance(record, dict):
        return [f"record is not an object: {type(record).__name__}"]
    missing = BASE_FIELDS - set(record)
    if missing:
        problems.append(f"missing base fields {sorted(missing)}")
    event = record.get("event")
    if event not in EVENT_SCHEMA:
        problems.append(f"unknown event type {event!r}")
        return problems
    missing = EVENT_SCHEMA[event] - set(record)
    if missing:
        problems.append(f"{event}: missing fields {sorted(missing)}")
    if record.get("v") != SCHEMA_VERSION:
        problems.append(f"schema version {record.get('v')!r} != "
                        f"{SCHEMA_VERSION}")
    return problems


def validate_manifest(path) -> tuple:
    """Validate a JSONL manifest; returns ``(n_events, errors)``.

    ``errors`` is a list of ``"line N: problem"`` strings; an empty list
    means every line parsed and matched :data:`EVENT_SCHEMA`.
    """
    n = 0
    errors = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            n += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            for problem in validate_event(record):
                errors.append(f"line {lineno}: {problem}")
    return n, errors


def main(argv=None) -> int:
    """``python -m repro.telemetry <manifest.jsonl>`` -- validate a manifest."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 1:
        print("usage: python -m repro.telemetry <manifest.jsonl>",
              file=sys.stderr)
        return 2
    n, errors = validate_manifest(argv[0])
    for err in errors:
        print(err, file=sys.stderr)
    print(f"{argv[0]}: {n} events, {len(errors)} schema errors")
    return 1 if errors or n == 0 else 0


if __name__ == "__main__":
    sys.exit(main())

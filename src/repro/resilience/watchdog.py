"""Supervised process-pool map with per-item watchdog deadlines.

:func:`supervised_map` runs the DMopt cells of
:func:`repro.experiments.harness.run_dmopt_cells`.  Beyond plain
fan-out it provides the recovery paths a long table run needs:

* **Watchdog deadlines** -- each item gets a wall-clock budget
  (``timeout``, or the ``REPRO_CELL_TIMEOUT`` environment variable via
  :func:`resolve_cell_timeout`).  A worker that blows its budget is
  *killed* (SIGKILL -- a hung native solve cannot be interrupted
  politely) and the item is finished with ``timeout_result(item,
  elapsed)`` instead of hanging the run; innocent bystanders killed
  alongside it are resubmitted with a fresh clock.  The window of
  in-flight items never exceeds the worker count, so submission time is
  start time and the deadline measures actual cell wall-clock.
* **Pool restart** -- a broken pool (worker OOM-killed, segfaulted) is
  recreated **once** with bounded exponential backoff and the
  unfinished items resubmitted; if the new pool breaks too, the
  remaining items run serially in the parent.
* **Serial retry with backoff** -- an item whose worker raised an
  ordinary exception is re-run in the parent (a second failure raises:
  that is a real bug, not a worker casualty).  Retry counts are
  reported through ``stats`` and ``worker_retry`` telemetry events so
  run manifests record how lossy the pool was.

Determinism: results are returned in input order, and every recovery
path re-runs the same pure function on the same item, so a lossy run
produces byte-identical results to a clean one (timeouts excepted --
they yield the caller's diagnostic result by design).
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import telemetry

ENV_CELL_TIMEOUT = "REPRO_CELL_TIMEOUT"

#: Added to the per-item budget before the kill: covers queue pickup
#: latency right after a pool (re)start fills its window.
GRACE = 0.25

_BACKOFF0 = 0.05
_BACKOFF_MAX = 1.0


def resolve_cell_timeout(timeout=None):
    """Per-cell budget (s): explicit arg > ``REPRO_CELL_TIMEOUT`` > None.

    Values <= 0 disable the watchdog.
    """
    if timeout is None:
        env = os.environ.get(ENV_CELL_TIMEOUT, "").strip()
        if not env:
            return None
        try:
            timeout = float(env)
        except ValueError:
            raise ValueError(
                f"{ENV_CELL_TIMEOUT} must be a number of seconds, "
                f"got {env!r}"
            ) from None
    timeout = float(timeout)
    return timeout if timeout > 0 else None


def _backoff(attempt: int) -> float:
    """Bounded exponential backoff delay for the ``attempt``-th retry."""
    return min(_BACKOFF0 * (2.0 ** max(attempt - 1, 0)), _BACKOFF_MAX)


@dataclass
class MapStats:
    """Recovery counters of one supervised map (for run manifests)."""

    retries: int = 0
    pool_restarts: int = 0
    timeouts: int = 0


def _kill_pool(ex):
    """SIGKILL every pool worker and abandon the executor."""
    procs = getattr(ex, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except Exception:
            pass
    ex.shutdown(wait=False, cancel_futures=True)


def supervised_map(
    fn,
    items,
    jobs: int,
    timeout: float = None,
    on_result=None,
    timeout_result=None,
    stats: MapStats = None,
    poll: float = 0.1,
):
    """Map ``fn`` over ``items`` with watchdog/restart supervision.

    Parameters
    ----------
    fn, items:
        Pure picklable function and its inputs.
    jobs:
        Worker processes.  ``jobs <= 1`` without a ``timeout`` is a
        plain serial loop; *with* a timeout a single-worker pool is
        used anyway, because only a separate process can be killed.
    timeout:
        Per-item wall-clock budget in seconds (None = no watchdog).
    on_result:
        ``on_result(index, result)`` called the moment an item's result
        is final (checkpointing hook); call order follows completion,
        not input order.
    timeout_result:
        ``timeout_result(item, elapsed) -> result`` for items killed by
        the watchdog.  Without it a timeout raises ``TimeoutError``.
    stats:
        Optional :class:`MapStats` populated with recovery counters.

    Returns
    -------
    list
        Results in input order.
    """
    items = list(items)
    n = len(items)
    stats = stats if stats is not None else MapStats()
    results = [None] * n

    def finish(idx, value):
        results[idx] = value
        if on_result is not None:
            on_result(idx, value)

    if jobs <= 1 and timeout is None:
        for idx, item in enumerate(items):
            finish(idx, fn(item))
        return results

    workers = max(1, min(jobs, n))
    pending = deque(range(n))
    inflight = {}  # future -> (index, submit time)
    serial = []  # indices to re-run in the parent
    ex = ProcessPoolExecutor(max_workers=workers)
    restarts_left = 1

    def to_serial(idx, exc):
        stats.retries += 1
        telemetry.emit(
            "worker_retry", index=idx,
            error=f"{type(exc).__name__}: {exc}",
        )
        serial.append(idx)

    def requeue_inflight():
        # casualties of a kill or pool breakage, not at fault: back to
        # the head of the queue (input order) with a fresh clock
        for idx, _ in sorted(inflight.values(), reverse=True):
            pending.appendleft(idx)
        inflight.clear()

    try:
        while pending or inflight:
            if ex is None:
                # pool permanently gone: the rest runs in the parent
                for idx in sorted(pending):
                    to_serial(idx, BrokenProcessPool("pool unavailable"))
                pending.clear()
                break
            while pending and len(inflight) < workers:
                idx = pending.popleft()
                inflight[ex.submit(fn, items[idx])] = (idx, time.monotonic())
            done, _ = wait(
                list(inflight), timeout=poll, return_when=FIRST_COMPLETED
            )
            pool_broken = False
            for fut in done:
                idx, _ = inflight.pop(fut)
                try:
                    finish(idx, fut.result())
                except BrokenProcessPool:
                    pool_broken = True
                    pending.appendleft(idx)
                except Exception as exc:
                    to_serial(idx, exc)
            if pool_broken:
                requeue_inflight()
                _kill_pool(ex)
                if restarts_left > 0:
                    restarts_left -= 1
                    stats.pool_restarts += 1
                    telemetry.emit("pool_restart", reason="broken_pool")
                    time.sleep(_backoff(stats.pool_restarts))
                    ex = ProcessPoolExecutor(max_workers=workers)
                else:
                    ex = None
                continue
            if timeout is not None and inflight:
                now = time.monotonic()
                expired = [
                    (fut, idx, now - t0)
                    for fut, (idx, t0) in inflight.items()
                    if now - t0 > timeout + GRACE
                ]
                if expired:
                    for fut, idx, elapsed in expired:
                        del inflight[fut]
                        stats.timeouts += 1
                        if timeout_result is None:
                            raise TimeoutError(
                                f"item {idx} exceeded its {timeout:.1f}s "
                                "watchdog budget"
                            )
                        finish(idx, timeout_result(items[idx], elapsed))
                    requeue_inflight()
                    _kill_pool(ex)
                    ex = ProcessPoolExecutor(max_workers=workers)
    finally:
        if ex is not None:
            ex.shutdown(wait=False, cancel_futures=True)

    for attempt, idx in enumerate(sorted(serial), start=1):
        time.sleep(_backoff(attempt))
        # a failure here is deterministic (same fn, same item, healthy
        # parent): let it raise
        finish(idx, fn(items[idx]))
    return results

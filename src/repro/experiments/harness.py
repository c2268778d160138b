"""Experiment harness: table containers, formatting, parallel running.

Every paper table/figure has a generator in :mod:`repro.experiments.tables`
or :mod:`repro.experiments.figures` returning a :class:`TableResult` whose
rows can be printed, asserted on in benchmarks, and diffed against the
paper's published numbers in :data:`repro.experiments.paper_data`.

Tables IV-VI run every DMopt cell -- an independent (design, grid,
mode, dose-range) evaluation -- through :func:`run_dmopt_cells`, at any
worker count.  With one worker and no deadline it is an in-process
loop; otherwise cells run in worker processes.  Determinism
guarantee: a worker builds its design context from the same seeds as
the parent and results are gathered in input order, so a parallel run
produces byte-identical rows to a serial run of the same cells.  A
worker that crashes or is killed mid-cell is retried serially in the
parent (see :func:`repro.resilience.watchdog.supervised_map`), so the
result list is hole-free even on a lossy pool.  Worker count comes from
the ``REPRO_JOBS`` environment variable or the experiment CLI's
``--jobs`` flag (see :func:`resolve_jobs`).

:func:`get_context` is the one design-context cache: the table drivers
in the parent and the cell workers read the same per-process LRU.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs, telemetry
from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_SMOOTHNESS
from repro.obs import metrics
from repro.resilience import chaos
from repro.resilience.checkpoint import CheckpointStore, cell_key
from repro.resilience.watchdog import (
    MapStats,
    resolve_cell_timeout,
    supervised_map,
)


@dataclass
class TableResult:
    """One regenerated table or figure data series.

    Attributes
    ----------
    exp_id:
        Paper label, e.g. ``"Table II"`` or ``"Fig. 10"``.
    title:
        Human-readable description.
    headers:
        Column names.
    rows:
        List of row lists (mixed str/float entries).
    notes:
        Free-form commentary (e.g. observed-vs-paper trend statements).
    """

    exp_id: str
    title: str
    headers: list
    rows: list
    notes: list = field(default_factory=list)

    def column(self, name: str) -> list:
        """All values of one named column."""
        try:
            idx = self.headers.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; available: {self.headers}"
            ) from None
        return [row[idx] for row in self.rows]

    def format(self) -> str:
        """Fixed-width text rendering."""

        def fmt(v):
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        table = [self.headers] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(row[i])) for row in table)
            for i in range(len(self.headers))
        ]
        lines = [f"== {self.exp_id}: {self.title} =="]
        lines.append(
            "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in table[1:]:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self):
        return self.format()


# ----------------------------------------------------------------------
# parallel DMopt cell runner
# ----------------------------------------------------------------------
def resolve_jobs(jobs: int = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` env > 1 (serial).

    0 or a negative value means "all cores".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer worker count, "
                    f"got {env!r}"
                ) from None
        else:
            jobs = 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass(frozen=True)
class DMoptCell:
    """One independent DMopt evaluation of a table/sweep driver."""

    design: str
    grid_size: float
    mode: str = "qcp"
    both_layers: bool = False
    fit_width: bool = False
    dose_range: float = DEFAULT_DOSE_RANGE
    smoothness: float = DEFAULT_SMOOTHNESS
    scale: float = 1.0
    method: str = "ipm"


#: The per-process LRU design-context cache behind :func:`get_context`.
#: A characterized context is tens of MB, so the cache is bounded; eight
#: holds all four designs x both ``fit_width`` values, which covers the
#: six keys a full ``python -m repro.experiments`` run touches (four
#: would rebuild four contexts in ``table7``).
_CONTEXTS_MAX = 8
_CONTEXTS: OrderedDict = OrderedDict()


def get_context(design: str, fit_width: bool = False, scale: float = 1.0):
    """Shared, cached design context (placement + baseline + fitters).

    Keyed by ``(design, fit_width, scale)``; the least recently used
    context is dropped once :data:`_CONTEXTS_MAX` are held.
    """
    key = (design, bool(fit_width), float(scale))
    ctx = _CONTEXTS.get(key)
    if ctx is not None:
        _CONTEXTS.move_to_end(key)
        return ctx
    from repro.core import DesignContext
    from repro.netlist import make_design

    ctx = DesignContext(make_design(design, scale=scale), fit_width=fit_width)
    _CONTEXTS[key] = ctx
    while len(_CONTEXTS) > _CONTEXTS_MAX:
        _CONTEXTS.popitem(last=False)
    return ctx


STATUS_TIMEOUT = "timeout"


def run_dmopt_cell(cell: DMoptCell, certify: bool = False,
                   time_limit: float = None) -> dict:
    """Evaluate one cell; returns a small picklable result dict.

    Runs under :func:`run_dmopt_cells`, in the parent or in a worker
    process; either way the context comes from :func:`get_context`,
    built from the same design generator and placer seeds, so the
    golden numbers do not depend on where the cell ran.

    With ``certify`` the result is independently re-verified
    (:func:`repro.core.certify.certify_result`); the verdict and
    summary ride along in the dict for the parent to enforce.
    ``time_limit`` caps the solver work inside the cell (the harness's
    watchdog is the backstop for everything the solver budget cannot
    interrupt, e.g. a hung factorization).
    """
    from repro.core import optimize_dose_map

    with obs.span("cell", design=cell.design, grid=float(cell.grid_size),
                  mode=cell.mode):
        ctx = get_context(
            cell.design, cell.fit_width or cell.both_layers, cell.scale
        )
        res = optimize_dose_map(
            ctx,
            cell.grid_size,
            mode=cell.mode,
            both_layers=cell.both_layers,
            dose_range=cell.dose_range,
            smoothness=cell.smoothness,
            method=cell.method,
            time_limit=time_limit,
        )
    out = {
        "design": cell.design,
        "grid_size": cell.grid_size,
        "mode": cell.mode,
        "both_layers": cell.both_layers,
        "mct": res.mct,
        "mct_improvement_pct": res.mct_improvement_pct,
        "leakage": res.leakage,
        "leakage_improvement_pct": res.leakage_improvement_pct,
        "baseline_mct": res.baseline_mct,
        "baseline_leakage": res.baseline_leakage,
        "runtime": res.runtime,
        "iterations": res.solve.iterations,
        "status": res.solve.status,
    }
    if certify:
        from repro.core import certify_result

        report = certify_result(
            ctx, res, dose_range=cell.dose_range,
            smoothness=cell.smoothness,
        )
        out["certified"] = report.ok
        out["certificate"] = report.summary()
    return out


def _run_cell_task(task) -> dict:
    """Worker entry for one ``(index, cell, certify, time_limit)`` task.

    The index is only for chaos targeting and telemetry; the result
    dict is identical to :func:`run_dmopt_cell`'s.
    """
    index, cell, certify, time_limit = task
    chaos.inject_worker_crash(index)
    chaos.inject_slow_solve(index)
    return run_dmopt_cell(cell, certify=certify, time_limit=time_limit)


def _timeout_result(task, elapsed: float) -> dict:
    """Diagnostic row for a cell killed by the watchdog."""
    _, cell, _, _ = task
    nan = float("nan")
    return {
        "design": cell.design,
        "grid_size": cell.grid_size,
        "mode": cell.mode,
        "both_layers": cell.both_layers,
        "mct": nan,
        "mct_improvement_pct": nan,
        "leakage": nan,
        "leakage_improvement_pct": nan,
        "baseline_mct": nan,
        "baseline_leakage": nan,
        "runtime": elapsed,
        "iterations": 0,
        "status": STATUS_TIMEOUT,
    }


class CellCertificationError(RuntimeError):
    """At least one --certify cell failed independent re-verification."""


def _enforce_certification(cells, results):
    failed = [
        (cell, res)
        for cell, res in zip(cells, results)
        if res.get("status") not in (STATUS_TIMEOUT,)
        and res.get("certified") is False
    ]
    if failed:
        lines = [
            f"{cell.design} G={cell.grid_size} {cell.mode}: "
            + res.get("certificate", "certification failed")
            for cell, res in failed
        ]
        raise CellCertificationError(
            f"{len(failed)} cell(s) failed certification:\n  "
            + "\n  ".join(lines)
        )


def run_dmopt_cells(
    cells,
    jobs: int = None,
    checkpoint=None,
    resume: bool = True,
    cell_timeout: float = None,
    certify: bool = False,
) -> list:
    """Run independent DMopt cells, fanned across processes if ``jobs > 1``.

    Returns one result dict per cell, in ``cells`` order regardless of
    worker scheduling.  With ``jobs=1`` (the default absent
    ``REPRO_JOBS``) and no cell timeout this is an in-process loop.  A
    crashed or killed worker does not hole the results: its cell is
    re-run serially in the parent (one pool recreation first, if the
    whole pool died) and the recovery is recorded in the telemetry
    manifest.

    Parameters
    ----------
    checkpoint:
        Optional path to a JSONL checkpoint file.  Each completed cell
        is appended (fsync'd) under its content-hash key; with
        ``resume`` (default) cells whose key is already present are
        served from the file (a ``checkpoint_hit`` telemetry event
        each) instead of re-run, so an interrupted run restarts where
        it stopped.  Watchdog-timeout rows are *not* checkpointed --
        they re-run on resume.
    resume:
        When False an existing checkpoint file is truncated first.
    cell_timeout:
        Per-cell wall-clock budget in seconds (default: the
        ``REPRO_CELL_TIMEOUT`` environment variable; unset/<=0 means no
        deadline).  A cell that exceeds it has its worker killed and
        yields a diagnostic ``status="timeout"`` row; the rest of the
        run continues.
    certify:
        Independently re-verify every cell's result against the dose
        range / smoothness / timing / leakage semantics and raise
        :class:`CellCertificationError` if any converged cell fails.
    """
    cells = list(cells)
    t0 = time.perf_counter()
    timeout = resolve_cell_timeout(cell_timeout)
    jobs_resolved = resolve_jobs(jobs)
    telemetry.emit("run_begin", run="dmopt_cells", n_cells=len(cells),
                   jobs=jobs_resolved)

    with obs.span("harness.run_dmopt_cells", n_cells=len(cells),
                  jobs=jobs_resolved):
        store = None
        keys = [None] * len(cells)
        results = [None] * len(cells)
        todo = list(range(len(cells)))
        if checkpoint is not None:
            store = CheckpointStore(checkpoint, resume=resume)
            todo = []
            for idx, cell in enumerate(cells):
                keys[idx] = cell_key(cell, certify=certify)
                payload = store.get(keys[idx])
                if payload is not None:
                    results[idx] = payload
                    metrics.inc("checkpoint.hits")
                    telemetry.emit("checkpoint_hit", key=keys[idx])
                else:
                    todo.append(idx)

        stats = MapStats()
        if todo:
            tasks = [(idx, cells[idx], certify, timeout) for idx in todo]

            def on_result(pos, res):
                idx = todo[pos]
                results[idx] = res
                if res.get("status") == STATUS_TIMEOUT:
                    metrics.inc("watchdog.kills")
                    telemetry.emit("watchdog_kill", index=idx,
                                   seconds=res.get("runtime"))
                elif store is not None:
                    store.put(keys[idx], res, kind="dmopt_cell")

            supervised_map(
                _run_cell_task,
                tasks,
                min(jobs_resolved, len(tasks)),
                timeout=timeout,
                on_result=on_result,
                timeout_result=_timeout_result,
                stats=stats,
            )
        if store is not None:
            store.close()

        for idx, (cell, res) in enumerate(zip(cells, results)):
            telemetry.emit("cell_done", index=idx, design=cell.design,
                           status=res["status"])
    telemetry.emit("run_end", run="dmopt_cells",
                   seconds=time.perf_counter() - t0,
                   retries=stats.retries,
                   pool_restarts=stats.pool_restarts,
                   timeouts=stats.timeouts)
    metrics.flush("run_end")
    if certify:
        _enforce_certification(cells, results)
    return results

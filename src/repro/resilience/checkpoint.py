"""Atomic append-only JSONL checkpoint store for experiment runs.

A multi-hour table run (Tables IV-VI fan out dozens of DMopt cells)
must not restart from zero on an interruption.  Each completed unit of
work -- a :class:`~repro.experiments.harness.DMoptCell` evaluation, a
:func:`~repro.core.sweep.dmopt_dose_range_sweep` point or the DMopt
stage of :func:`~repro.core.flow.run_flow` -- is appended
to a checkpoint file as one JSON line, flushed and ``fsync``'d before
the runner moves on, and keyed by a **content hash** of the work
description, so a restarted run skips exactly the work whose inputs are
unchanged.

Record format (one JSON object per line)::

    {"v": 1, "key": "<sha256 of the canonical work description>",
     "kind": "dmopt_cell" | "sweep_point" | "flow",
     "ts": <unix seconds>, "payload": {...}}

Crash tolerance
---------------
A process killed mid-append leaves a truncated final line (no trailing
newline).  The loader drops such a partial tail -- that unit of work
simply re-runs -- and the next append first truncates the file back to
the end of the last complete line, so the store never concatenates a
new record onto half of an old one.  A complete-but-corrupt line in the
middle of the file (disk damage, manual editing) is skipped and counted
in :attr:`CheckpointStore.corrupt_lines`; its key re-runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, is_dataclass

import numpy as np

from repro import telemetry
from repro.resilience import chaos

SCHEMA_VERSION = 1


def content_key(kind: str, payload: dict) -> str:
    """Stable sha256 hex key of a canonicalized work description."""
    blob = json.dumps(
        {"kind": kind, **payload}, sort_keys=True, separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_key(cell, certify: bool = False) -> str:
    """Content hash of one DMopt cell (plus the certification setting).

    The key covers every field of the cell (``design``, ``grid_size``,
    ``mode``, ``both_layers``, ``fit_width``, ``dose_range``,
    ``smoothness``, ``scale``) and ``certify``: a record produced
    without certification must not satisfy a ``--certify`` run, which
    promises every row was independently re-verified.
    """
    fields = asdict(cell) if is_dataclass(cell) else dict(cell)
    fields["certify"] = bool(certify)
    return content_key("dmopt_cell", fields)


def sweep_point_key(ctx, grid_size: float, mode: str, dose_range: float,
                    dmopt_kwargs: dict) -> str:
    """Content hash of one DMopt solve (a sweep point or a flow's DMopt).

    The design context is fingerprinted by name, size, die and baseline
    golden numbers -- enough to invalidate records when the design or
    its placement changes.  Warm starting is not part of the key: it
    changes the inner solver's path, not the optimum, so cold and warm
    runs share records (the goldens are identical by contract).
    """
    die = ctx.placement.die
    return content_key(
        "sweep_point",
        {
            "design": ctx.bundle.name,
            "n_gates": ctx.netlist.n_gates,
            "die": [float(die.width), float(die.height)],
            "baseline_mct": float(ctx.baseline.mct),
            "baseline_leakage": float(ctx.baseline_leakage),
            "fit_width": bool(ctx.fit_width),
            "grid_size": float(grid_size),
            "mode": mode,
            "dose_range": float(dose_range),
            "kwargs": {k: dmopt_kwargs[k] for k in sorted(dmopt_kwargs)},
        },
    )


class CheckpointStore:
    """Append-only JSONL record store with crash-tolerant loading.

    Parameters
    ----------
    path:
        The checkpoint file; created on first :meth:`put` if missing.
    resume:
        When True (default), existing records are loaded and served by
        :meth:`get`.  When False an existing file is truncated -- the
        run starts fresh.
    """

    def __init__(self, path, resume: bool = True):
        self.path = str(path)
        self.records: dict = {}
        self.corrupt_lines = 0
        self._fh = None
        self._lock = threading.Lock()
        self._good_end = 0
        if resume:
            self._load()
        elif os.path.exists(self.path):
            with open(self.path, "w", encoding="utf-8"):
                pass

    # ------------------------------------------------------------------
    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        start = 0
        good_end = 0
        while True:
            nl = data.find(b"\n", start)
            if nl == -1:
                break
            line = data[start:nl]
            start = nl + 1
            # a complete (newline-terminated) line is safe to keep on
            # disk even when it does not parse; only note the damage
            good_end = start
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                self.records[rec["key"]] = rec.get("payload")
            except (json.JSONDecodeError, KeyError, TypeError):
                self.corrupt_lines += 1
        if start < len(data):
            # partial tail (interrupted append): dropped, will re-run
            self.corrupt_lines += 1
        self._good_end = good_end

    def _open_repaired(self):
        """Append handle positioned at the end of the last good record."""
        if self._fh is not None and self._fh.tell() != self._good_end:
            # a chaos-corrupted (or externally damaged) tail: reopen
            self._fh.close()
            self._fh = None
        if self._fh is None:
            size = os.path.getsize(self.path) if os.path.exists(
                self.path
            ) else 0
            if size > self._good_end:
                with open(self.path, "r+b") as fh:
                    fh.truncate(self._good_end)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    # ------------------------------------------------------------------
    def get(self, key: str):
        """The stored payload for ``key``, or ``None``."""
        return self.records.get(key)

    def serve(self, key: str):
        """:meth:`get` for a runner about to skip the work on a hit.

        Each hit is counted once, as one ``checkpoint_hit`` telemetry
        event.
        """
        payload = self.records.get(key)
        if payload is not None:
            telemetry.emit("checkpoint_hit", key=key)
        return payload

    def __contains__(self, key) -> bool:
        return key in self.records

    def __len__(self) -> int:
        return len(self.records)

    def put(self, key: str, payload, kind: str = None) -> bool:
        """Append one record; flushed and fsync'd before returning.

        Returns True when the record was durably committed (False only
        under chaos ``corrupt_checkpoint`` injection, which simulates a
        crash mid-write: a truncated line is left on disk and the key
        is *not* recorded, so the work re-runs after a resume).
        """
        rec = {"v": SCHEMA_VERSION, "key": key, "ts": time.time()}
        if kind:
            rec["kind"] = kind
        rec["payload"] = payload
        line = json.dumps(rec, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            fh = self._open_repaired()
            if chaos.corrupt_checkpoint():
                fh.write(line[: max(1, len(line) // 2)])
                fh.flush()
                os.fsync(fh.fileno())
                return False
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
            self._good_end = fh.tell()
            self.records[key] = payload
        return True

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __repr__(self):
        return (
            f"CheckpointStore({self.path!r}, {len(self.records)} records"
            + (f", {self.corrupt_lines} corrupt lines" if self.corrupt_lines
               else "")
            + ")"
        )


# ----------------------------------------------------------------------
# DMoptResult records: sweep points and the flow's DMopt stage
# ----------------------------------------------------------------------
def checkpointed_dmopt(store, key: str, solve, kind: str):
    """The DMoptResult stored under ``key``, else ``solve()``'s.

    A hit is decoded by :func:`dmopt_result_from_payload` (its
    ``solve.info["resumed"]`` is set).  On a miss ``solve()`` runs and
    its result is appended under ``key`` only if it converged: a
    failure may be environmental (an injected chaos fault) and must re-run
    on resume.  With ``store=None`` this is just ``solve()``.
    """
    if store is None:
        return solve()
    payload = store.serve(key)
    if payload is not None:
        return dmopt_result_from_payload(payload)
    res = solve()
    if res.ok:
        store.put(key, dmopt_result_payload(res), kind=kind)
    return res


def dmopt_result_payload(res) -> dict:
    """JSON-safe payload capturing a DMoptResult's golden outcome.

    Solver internals (iterates, duals, the formulation) are *not*
    stored: a resumed point cannot seed a warm start, so the sweep
    cold-starts the next solve -- the same contract as the poisonous-
    seed fallback, and golden numbers are warm/cold invariant.
    """
    part = res.dose_map_poly.partition
    form = res.formulation
    payload = {
        "mode": res.mode,
        "status": res.solve.status,
        "mct": res.mct,
        "leakage": res.leakage,
        "baseline_mct": res.baseline_mct,
        "baseline_leakage": res.baseline_leakage,
        "predicted_T": res.predicted_T,
        "predicted_delta_leakage": res.predicted_delta_leakage,
        "runtime": res.runtime,
        "iterations": res.solve.iterations,
        "obj": res.solve.obj,
        "r_prim": res.solve.r_prim,
        "r_dual": res.solve.r_dual,
        "grid": {
            "width": part.width,
            "height": part.height,
            "g": part.g,
            "m": part.m,
            "n": part.n,
        },
        "poly": res.dose_map_poly.values.tolist(),
        "active": (
            None
            if res.dose_map_active is None
            else res.dose_map_active.values.tolist()
        ),
    }
    if form is not None:
        payload["dose_range"] = form.dose_range
        payload["smoothness"] = form.smoothness
    return payload


def dmopt_result_from_payload(payload: dict):
    """Rebuild a (resume-grade) DMoptResult from a stored payload.

    The result carries the golden numbers and dose maps; its
    ``solve`` is a synthetic :class:`~repro.solver.SolveResult` with no
    iterate (``x`` is empty), flagged via ``info["resumed"]`` so it is
    never used as a warm-start seed.  ``formulation`` is ``None``.
    """
    from repro.core.dmopt import DMoptResult
    from repro.dosemap import DoseMap, GridPartition, LAYER_ACTIVE, LAYER_POLY
    from repro.solver.result import SolveResult

    grid = payload["grid"]
    part = GridPartition(
        grid["width"], grid["height"], grid["g"],
        m_explicit=grid["m"], n_explicit=grid["n"],
    )
    poly = DoseMap(part, LAYER_POLY, np.asarray(payload["poly"], dtype=float))
    active = None
    if payload.get("active") is not None:
        active = DoseMap(
            part, LAYER_ACTIVE, np.asarray(payload["active"], dtype=float)
        )
    solve = SolveResult(
        status=payload["status"],
        x=np.zeros(0),
        obj=float(payload["obj"]),
        iterations=int(payload["iterations"]),
        r_prim=float(payload["r_prim"]),
        r_dual=float(payload["r_dual"]),
        solve_time=0.0,
        info={"note": "resumed from checkpoint", "resumed": True},
    )
    return DMoptResult(
        mode=payload["mode"],
        dose_map_poly=poly,
        dose_map_active=active,
        mct=float(payload["mct"]),
        leakage=float(payload["leakage"]),
        baseline_mct=float(payload["baseline_mct"]),
        baseline_leakage=float(payload["baseline_leakage"]),
        predicted_T=float(payload["predicted_T"]),
        predicted_delta_leakage=float(payload["predicted_delta_leakage"]),
        solve=solve,
        formulation=None,
        runtime=float(payload["runtime"]),
    )

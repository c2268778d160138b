"""Tests for the pipeline-resilience subsystem (repro.resilience).

Covers the checkpoint store's crash tolerance, the kill-and-resume
contract of :func:`run_dmopt_cells` and :func:`dmopt_dose_range_sweep`,
the watchdog deadline machinery, the chaos fault-injection points, and
the sweep's poisonous-seed rule.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from repro import telemetry
from repro.experiments.harness import (
    DMoptCell,
    STATUS_TIMEOUT,
    run_dmopt_cells,
)
from repro.resilience import chaos
from repro.resilience.checkpoint import (
    CheckpointStore,
    cell_key,
    content_key,
    dmopt_result_from_payload,
    dmopt_result_payload,
    sweep_point_key,
)
from repro.resilience.watchdog import (
    ENV_CELL_TIMEOUT,
    MapStats,
    resolve_cell_timeout,
    supervised_map,
)

CELLS = [
    DMoptCell("AES-65", 30.0, mode="qp", scale=0.3),
    DMoptCell("AES-65", 30.0, mode="qcp", scale=0.3),
    DMoptCell("AES-65", 50.0, mode="qp", scale=0.3),
]


def _rows_sans_runtime(rows):
    """Canonical JSON of result rows with the wall-clock field dropped."""
    return [
        json.dumps({k: v for k, v in r.items() if k != "runtime"},
                   sort_keys=True)
        for r in rows
    ]


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    """Telemetry capture: yields the manifest path, resets afterwards."""
    path = tmp_path / "manifest.jsonl"
    monkeypatch.setenv(telemetry.ENV_FLAG, "1")
    monkeypatch.setenv(telemetry.ENV_PATH, str(path))
    telemetry.reset()
    yield path
    monkeypatch.undo()  # restore the environment, then re-read it
    telemetry.reset()


def _events(path, kind=None):
    if not path.exists():
        return []
    out = [json.loads(line) for line in path.read_text().splitlines()]
    return [e for e in out if kind is None or e["event"] == kind]


@pytest.fixture
def chaos_env(monkeypatch):
    """Set REPRO_CHAOS for the test, reset the parsed config both ways."""

    def set_conf(conf):
        monkeypatch.setenv(chaos.ENV_FLAG, json.dumps(conf))
        chaos.reset()

    yield set_conf
    monkeypatch.delenv(chaos.ENV_FLAG, raising=False)
    chaos.reset()


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path)
        assert store.get("k1") is None
        assert store.put("k1", {"a": 1}, kind="test")
        assert store.get("k1") == {"a": 1}
        assert "k1" in store and len(store) == 1
        store.close()
        again = CheckpointStore(path)
        assert again.get("k1") == {"a": 1}
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["kind"] == "test" and rec["key"] == "k1"

    def test_resume_false_truncates(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointStore(path).put("k1", 1)
        fresh = CheckpointStore(path, resume=False)
        assert len(fresh) == 0
        assert path.read_text() == ""

    def test_corrupt_middle_line_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path)
        store.put("k1", 1)
        store.put("k2", 2)
        store.close()
        lines = path.read_text().splitlines()
        lines[0] = '{"not json'
        path.write_text("\n".join(lines) + "\n")
        again = CheckpointStore(path)
        assert again.corrupt_lines == 1
        assert again.get("k1") is None  # re-runs
        assert again.get("k2") == 2

    def test_truncated_tail_dropped_and_repaired(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path)
        store.put("k1", 1)
        store.put("k2", 2)
        store.close()
        # simulate a kill mid-append: the last line loses its tail
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        again = CheckpointStore(path)
        assert again.corrupt_lines == 1
        assert again.get("k1") == 1
        assert again.get("k2") is None
        # the next append must not concatenate onto the partial line
        again.put("k3", 3)
        again.close()
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["key"] for r in recs] == ["k1", "k3"]

    def test_content_keys_are_stable_and_distinct(self):
        assert content_key("x", {"a": 1, "b": 2}) == content_key(
            "x", {"b": 2, "a": 1}
        )
        assert content_key("x", {"a": 1}) != content_key("x", {"a": 2})
        cell = CELLS[0]
        assert cell_key(cell) == cell_key(CELLS[0])
        assert cell_key(cell) != cell_key(CELLS[1])
        # a --certify run must not be satisfied by uncertified records
        assert cell_key(cell) != cell_key(cell, certify=True)

    def test_cell_key_format(self):
        """The key hashes exactly the documented cell fields plus the
        certification setting."""
        cell = DMoptCell("AES-65", 30.0, mode="qp", scale=0.3)
        for certify in (False, True):
            expected = content_key("dmopt_cell", {
                "design": "AES-65",
                "grid_size": 30.0,
                "mode": "qp",
                "both_layers": False,
                "fit_width": False,
                "dose_range": 5.0,
                "smoothness": 2.0,
                "scale": 0.3,
                "certify": certify,
            })
            assert cell_key(cell, certify) == expected


# ----------------------------------------------------------------------
# kill-and-resume (the acceptance test)
# ----------------------------------------------------------------------
class TestKillAndResume:
    def test_interrupted_run_resumes_byte_identical(
        self, tmp_path, manifest
    ):
        ck = tmp_path / "cells.jsonl"
        reference = run_dmopt_cells(CELLS, jobs=1, checkpoint=ck)
        assert all(r["status"] == "solved" for r in reference)
        assert len(_events(manifest, "checkpoint_hit")) == 0

        # simulate a kill after two cells: keep two complete records
        # plus a torn third line (interrupted append)
        lines = ck.read_text().splitlines()
        assert len(lines) == 3
        ck.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed = run_dmopt_cells(CELLS, jobs=1, checkpoint=ck)
        assert _rows_sans_runtime(resumed) == _rows_sans_runtime(reference)
        # exactly the two surviving cells were served from the file;
        # only the torn one re-ran
        assert len(_events(manifest, "checkpoint_hit")) == 2

        # a second resume re-runs nothing
        resumed2 = run_dmopt_cells(CELLS, jobs=1, checkpoint=ck)
        assert _rows_sans_runtime(resumed2) == _rows_sans_runtime(reference)
        assert len(_events(manifest, "checkpoint_hit")) == 2 + 3

    def test_resume_false_reruns_everything(self, tmp_path, manifest):
        ck = tmp_path / "cells.jsonl"
        run_dmopt_cells(CELLS[:1], jobs=1, checkpoint=ck)
        run_dmopt_cells(CELLS[:1], jobs=1, checkpoint=ck, resume=False)
        assert len(_events(manifest, "checkpoint_hit")) == 0

    def test_sweep_checkpoint_resume(self, tmp_path, manifest):
        from repro.core import DesignContext, dmopt_dose_range_sweep
        from repro.netlist import make_design

        ctx = DesignContext(make_design("AES-65", scale=0.3))
        ck = tmp_path / "sweep.jsonl"
        ranges = [5.0, 4.0]
        ref = dmopt_dose_range_sweep(ctx, 30.0, ranges, mode="qcp",
                                     checkpoint=ck)
        resumed = dmopt_dose_range_sweep(ctx, 30.0, ranges, mode="qcp",
                                         checkpoint=ck)
        assert len(_events(manifest, "checkpoint_hit")) == 2
        for a, b in zip(ref, resumed):
            assert b.mct == pytest.approx(a.mct, abs=0)
            assert b.leakage == pytest.approx(a.leakage, abs=0)
            assert b.solve.info.get("resumed") is True
            assert b.formulation is None

    def test_dmopt_result_payload_roundtrip(self):
        from repro.core import DesignContext, optimize_dose_map
        from repro.netlist import make_design

        ctx = DesignContext(make_design("AES-65", scale=0.3))
        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        back = dmopt_result_from_payload(dmopt_result_payload(res))
        assert back.mct == res.mct
        assert back.leakage == res.leakage
        np.testing.assert_array_equal(
            back.dose_map_poly.values, res.dose_map_poly.values
        )
        assert back.solve.x.size == 0  # never a warm-start seed

    def test_sweep_point_key_format(self):
        """The key hashes exactly the documented fields (warm starting
        is not one of them), so records written by earlier versions of
        the sweep and of ``optimize --checkpoint`` keep resuming."""
        from repro.core import DesignContext
        from repro.netlist import make_design

        ctx = DesignContext(make_design("AES-65", scale=0.3))
        kwargs = {"smoothness": 2.0, "both_layers": False}
        die = ctx.placement.die
        expected = content_key("sweep_point", {
            "design": "AES-65",
            "n_gates": ctx.netlist.n_gates,
            "die": [float(die.width), float(die.height)],
            "baseline_mct": float(ctx.baseline.mct),
            "baseline_leakage": float(ctx.baseline_leakage),
            "fit_width": False,
            "grid_size": 20.0,
            "mode": "qcp",
            "dose_range": 5.0,
            "kwargs": kwargs,
        })
        assert sweep_point_key(ctx, 20.0, "qcp", 5.0, kwargs) == expected
        assert sweep_point_key(ctx, 20, "qcp", 5, dict(kwargs)) == expected
        assert sweep_point_key(ctx, 20.0, "qp", 5.0, kwargs) != expected


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------
def _sleepy(arg):
    x, delay = arg
    time.sleep(delay)
    return x * x


class TestResolveCellTimeout:
    def test_default_none(self, monkeypatch):
        monkeypatch.delenv(ENV_CELL_TIMEOUT, raising=False)
        assert resolve_cell_timeout() is None

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "2.5")
        assert resolve_cell_timeout() == 2.5

    def test_arg_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "2.5")
        assert resolve_cell_timeout(9.0) == 9.0

    def test_nonpositive_disables(self, monkeypatch):
        monkeypatch.delenv(ENV_CELL_TIMEOUT, raising=False)
        assert resolve_cell_timeout(0) is None
        assert resolve_cell_timeout(-1.0) is None

    def test_malformed_env_named_in_error(self, monkeypatch):
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "soon")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT.*'soon'"):
            resolve_cell_timeout()


class TestSupervisedMapWatchdog:
    def test_slow_item_killed_others_complete(self):
        items = [(0, 0.0), (1, 30.0), (2, 0.0), (3, 0.0)]
        stats = MapStats()
        out = supervised_map(
            _sleepy, items, jobs=2, timeout=1.0,
            timeout_result=lambda item, elapsed: ("timeout", item[0]),
            stats=stats,
        )
        assert out == [0, ("timeout", 1), 4, 9]
        assert stats.timeouts == 1

    def test_timeout_without_handler_raises(self):
        with pytest.raises(TimeoutError, match="watchdog"):
            supervised_map(_sleepy, [(0, 30.0)], jobs=1, timeout=0.5)

    def test_on_result_sees_every_item(self):
        seen = {}
        supervised_map(
            _sleepy, [(i, 0.0) for i in range(4)], jobs=2,
            on_result=lambda idx, val: seen.__setitem__(idx, val),
        )
        assert seen == {0: 0, 1: 1, 2: 4, 3: 9}


class TestResolveJobsError:
    def test_malformed_env_named_in_error(self, monkeypatch):
        from repro.experiments.harness import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'many'"):
            resolve_jobs()


class TestContextCacheLRU:
    def test_bounded(self, monkeypatch):
        from collections import OrderedDict

        from repro.experiments import harness

        # a private cache: the session's shared contexts stay warm
        monkeypatch.setattr(harness, "_CONTEXTS", OrderedDict())
        scales = [float(s) for s in
                  np.linspace(0.1, 0.2, harness._CONTEXTS_MAX + 2)]
        for scale in scales:
            harness.get_context("AES-65", scale=scale)
            assert len(harness._CONTEXTS) <= harness._CONTEXTS_MAX
        # most recently used survive
        assert len(harness._CONTEXTS) == harness._CONTEXTS_MAX
        assert list(harness._CONTEXTS) == [
            ("AES-65", False, s) for s in scales[-harness._CONTEXTS_MAX:]
        ]


# ----------------------------------------------------------------------
# chaos injection
# ----------------------------------------------------------------------
class TestChaosConfig:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_FLAG, raising=False)
        chaos.reset()
        assert not chaos.enabled()
        assert not chaos.solver_nan()

    def test_malformed_json_rejected(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_FLAG, "{not json")
        chaos.reset()
        with pytest.raises(ValueError, match="REPRO_CHAOS"):
            chaos.enabled()
        chaos.reset()

    def test_unknown_point_rejected(self, chaos_env):
        with pytest.raises(ValueError, match="unknown injection points"):
            chaos_env({"meteor_strike": {"nth": 1}})
            chaos.enabled()

    def test_nth_fires_once(self, chaos_env):
        chaos_env({"solver_nan": {"nth": 2}})
        assert [chaos.solver_nan() for _ in range(4)] == [
            False, True, False, False,
        ]

    def test_indices_trigger(self, chaos_env):
        chaos_env({"slow_solve": {"indices": [3], "seconds": 0.0}})
        assert chaos.fires("slow_solve", index=3) is not None
        assert chaos.fires("slow_solve", index=2) is None

    def test_p_trigger_deterministic(self, chaos_env):
        chaos_env({"seed": 7, "solver_nan": {"p": 0.5}})
        run1 = [chaos.fires("solver_nan") is not None for _ in range(16)]
        chaos.reset()
        run2 = [chaos.fires("solver_nan") is not None for _ in range(16)]
        assert run1 == run2
        assert any(run1) and not all(run1)


class TestChaosCheckpoint:
    def test_corrupt_write_not_committed(self, tmp_path, chaos_env):
        path = tmp_path / "ck.jsonl"
        chaos_env({"corrupt_checkpoint": {"nth": 1}})
        store = CheckpointStore(path)
        assert store.put("k1", {"a": 1}) is False
        assert store.get("k1") is None  # not committed in memory either
        # a reload sees only the torn line and re-runs the key
        reload = CheckpointStore(path)
        assert reload.get("k1") is None
        assert reload.corrupt_lines == 1
        # the store repairs the tail on the next append
        assert store.put("k2", {"b": 2}) is True
        store.close()
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["key"] for r in recs] == ["k2"]


class TestChaosSolverNan:
    def test_fallback_chain_recovers(self, chaos_env):
        from repro.solver import solve_qp_robust

        chaos_env({"solver_nan": {"nth": 1}})
        n = 4
        P = np.eye(n)
        q = -np.ones(n)
        A = np.eye(n)
        res = solve_qp_robust(P, q, A, -np.ones(n), np.ones(n))
        assert res.ok
        assert len(res.info["attempts"]) > 1  # the primary was faked dead


class TestChaosWatchdogEndToEnd:
    """Acceptance: an injected hang is killed, the rest completes."""

    def test_slow_cell_times_out_rest_completes(
        self, chaos_env, manifest
    ):
        chaos_env({"slow_solve": {"indices": [1], "seconds": 600}})
        rows = run_dmopt_cells(CELLS, jobs=2, cell_timeout=2.0)
        assert rows[1]["status"] == STATUS_TIMEOUT
        assert np.isnan(rows[1]["mct"])
        assert rows[0]["status"] == "solved"
        assert rows[2]["status"] == "solved"
        kills = _events(manifest, "watchdog_kill")
        assert len(kills) == 1 and kills[0]["index"] == 1
        run_end = _events(manifest, "run_end")[-1]
        assert run_end["timeouts"] == 1

    def test_timeout_rows_not_checkpointed(
        self, tmp_path, chaos_env, manifest
    ):
        ck = tmp_path / "ck.jsonl"
        chaos_env({"slow_solve": {"indices": [0], "seconds": 600}})
        rows = run_dmopt_cells(CELLS[:2], jobs=2, cell_timeout=2.0,
                               checkpoint=ck)
        assert rows[0]["status"] == STATUS_TIMEOUT
        # only the completed cell was recorded; the timed-out one
        # re-runs after the hang is fixed
        chaos_env({})
        rows2 = run_dmopt_cells(CELLS[:2], jobs=1, checkpoint=ck)
        assert rows2[0]["status"] == "solved"
        assert len(_events(manifest, "checkpoint_hit")) == 1

    def test_worker_crash_recovered(self, chaos_env):
        chaos_env({"worker_crash": {"indices": [0]}})
        rows = run_dmopt_cells(CELLS[:2], jobs=2)
        # the crashing cell ends up retried in the parent (where the
        # injection point never fires) and still solves
        assert [r["status"] for r in rows] == ["solved", "solved"]


# ----------------------------------------------------------------------
# poisonous-seed rule of the dose-range sweep
# ----------------------------------------------------------------------
class TestPoisonousSeed:
    def test_failed_point_cold_starts_next_solve(self, monkeypatch):
        from repro.core import DesignContext, dmopt_dose_range_sweep
        from repro.core import dmopt as dmopt_mod
        from repro.netlist import make_design
        from repro.solver.result import STATUS_DIVERGED, diagnostic_result

        ctx = DesignContext(make_design("AES-65", scale=0.3))
        original = dmopt_mod.optimize_dose_map
        seeds = []

        def instrumented(ctx_, grid, **kwargs):
            seeds.append(kwargs.get("warm_start"))
            res = original(ctx_, grid, **kwargs)
            if kwargs.get("dose_range") == 4.0:  # the poisoned point
                res = dataclasses.replace(
                    res,
                    solve=diagnostic_result(
                        STATUS_DIVERGED, 1, "injected failure"
                    ),
                )
            return res

        monkeypatch.setattr(dmopt_mod, "optimize_dose_map", instrumented)
        ranges = [5.0, 4.0, 3.0]
        swept = dmopt_dose_range_sweep(ctx, 30.0, ranges, mode="qcp",
                                       warm_start=True)
        assert [r.ok for r in swept] == [True, False, True]
        # point 1 was seeded from point 0; point 2 must NOT be seeded
        # from the failed point 1
        assert seeds[0] is None
        assert seeds[1] is not None
        assert seeds[2] is None

        monkeypatch.setattr(dmopt_mod, "optimize_dose_map", original)
        cold = dmopt_dose_range_sweep(ctx, 30.0, ranges, mode="qcp",
                                      warm_start=False)
        # goldens of the surviving points match an all-cold sweep
        for i in (0, 2):
            assert swept[i].mct == pytest.approx(cold[i].mct, rel=1e-12)
            assert swept[i].leakage == pytest.approx(
                cold[i].leakage, rel=1e-12
            )

"""Tests for the observability CLI (python -m repro.obs report/compare)."""

import json
import pathlib
import time

import pytest

from repro import telemetry
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    build_trees,
    event_totals,
    load_manifest,
    summarize,
)


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Workloads whose perfbench records are committed as BENCH_<w>.json.
BENCH_WORKLOADS = ("table4_g10", "sweep_warm", "dosepl_yield")


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv(telemetry.ENV_FLAG, "1")
    monkeypatch.setenv(telemetry.ENV_PATH, str(path))
    telemetry.reset()
    yield path
    monkeypatch.undo()  # restore the environment, then re-read it
    telemetry.reset()


class TestReport:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One traced CLI optimize run: (manifest path, wall seconds)."""
        import os

        from repro.cli import main as cli_main

        path = tmp_path_factory.mktemp("obs") / "traced.jsonl"
        # cli.main's --trace configures telemetry via the environment
        # (for worker inheritance); save and restore it ourselves since
        # monkeypatch cannot back a class-scoped fixture
        saved = {
            key: os.environ.get(key)
            for key in (telemetry.ENV_FLAG, telemetry.ENV_PATH)
        }
        try:
            t0 = time.perf_counter()
            rc = cli_main([
                "--trace", str(path),
                "optimize", "AES-65", "--grid", "30", "--mode", "qp",
                "--scale", "0.5",
            ])
            wall = time.perf_counter() - t0
            assert rc == 0
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            telemetry.reset()
        return path, wall

    def test_root_span_covers_run_wall_time(self, traced_run):
        path, wall = traced_run
        summary = summarize(path)
        assert summary["n_traces"] == 1
        # the cli.optimize root span must account for (nearly) the whole
        # run: parse+configure outside the span are microseconds
        assert summary["root_seconds"] == pytest.approx(wall, rel=0.05)

    def test_report_text_has_tree_solver_stats_and_rates(self, traced_run,
                                                         capsys):
        path, _ = traced_run
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== span tree (wall time) ==" in out
        assert "cli.optimize" in out
        assert "dmopt.solve" in out
        assert "== solver iterations ==" in out
        assert "ipm" in out and "iterations" in out
        assert "== run totals (from events and spans) ==" in out
        assert "formulation_cache_hit_rate" in out

    def test_json_summary_is_machine_readable(self, traced_run, capsys):
        path, _ = traced_run
        assert obs_main(["report", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"]["span"] >= 3
        assert "ipm" in summary["solvers"]
        assert summary["solvers"]["ipm"]["solves"] >= 1
        # one optimize call: the context assembles its formulation once
        assert summary["totals"]["counts"]["formulation.built"] == 1
        assert summary["totals"]["rates"] == {
            "formulation_cache_hit_rate": 0.0
        }

    def test_orphan_spans_become_trace_roots(self, tmp_path):
        # a parent that never emitted (killed worker / truncated file)
        path = tmp_path / "orphan.jsonl"
        base = {"v": telemetry.SCHEMA_VERSION, "ts": 10.0, "mono": 1.0,
                "pid": 1, "event": "span", "trace_id": "t1",
                "seconds": 1.0}
        lines = [
            dict(base, name="orphan", span_id="s2", parent_id="gone"),
            dict(base, name="root", span_id="s1", parent_id=None),
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        records, bad = load_manifest(path)
        assert bad == 0
        trees = build_trees(records)
        assert sorted(n.name for n in trees["t1"]) == ["orphan", "root"]

    def test_truncated_line_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        good = {"v": telemetry.SCHEMA_VERSION, "ts": 1.0, "mono": 1.0,
                "pid": 1, "event": "span", "trace_id": "t", "span_id": "s",
                "parent_id": None, "name": "n", "seconds": 0.5}
        path.write_text(json.dumps(good) + '\n{"v": 2, "ts": 123.4, "mo\n')
        records, bad = load_manifest(path)
        assert len(records) == 1 and bad == 1


def _record(event, **fields):
    return {"v": telemetry.SCHEMA_VERSION, "ts": 1.0, "mono": 1.0,
            "pid": 1, "event": event, **fields}


class TestEventTotals:
    def test_counts_and_rates_from_a_fabricated_manifest(self):
        dmopt = dict(name="dmopt", trace_id="t", span_id="s", seconds=1.0)
        records = [
            _record("fallback", step="ipm", backend="ipm", status="solved"),
            _record("fallback", step="ipm-cold", backend="ipm",
                    status="solved"),
            _record("fallback", step="admm", backend="admm",
                    status="solved"),
            _record("fallback", step="admm", backend="admm",
                    status="max_iter"),
            _record("checkpoint_hit", key="k1"),
            _record("checkpoint_hit", key="k2"),
            _record("watchdog_kill", index=0, seconds=9.0),
            _record("worker_retry", index=1, error="boom"),
            _record("pool_restart", reason="broken_pool"),
            _record("span", **dmopt, formulation="built"),
            _record("span", **dmopt, formulation="cached"),
            _record("span", **dmopt, formulation="cached"),
            _record("span", **dmopt, formulation="cached"),
            _record("span", **dmopt),  # telemetry on mid-call: no attribute
            _record("dosepl", rounds_run=2, swaps_accepted=1,
                    swaps_attempted=9, sta_full_passes=1,
                    sta_cone_passes=9),
            _record("dosepl", rounds_run=2, swaps_accepted=0,
                    swaps_attempted=5, sta_full_passes=1,
                    sta_cone_passes=9),
        ]
        totals = event_totals(records)
        assert totals["counts"] == {
            "fallback.attempts": 3,
            "fallback.ipm-cold": 1,
            "fallback.admm": 2,
            "checkpoint_hit": 2,
            "watchdog_kill": 1,
            "worker_retry": 1,
            "pool_restart": 1,
            "formulation.built": 1,
            "formulation.cached": 3,
            "sta.full_passes": 2,
            "sta.cone_passes": 18,
        }
        assert totals["rates"] == {
            "formulation_cache_hit_rate": 0.75,
            "sta_incremental_fraction": 0.9,
        }

    def test_nothing_to_count_leaves_the_totals_empty(self):
        totals = event_totals([_record("solve", backend="ipm")])
        assert totals == {"counts": {}, "rates": {}}

    def test_report_prints_the_totals(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [
            _record("checkpoint_hit", key="k"),
            _record("dosepl", rounds_run=1, swaps_accepted=0,
                    swaps_attempted=1, sta_full_passes=1,
                    sta_cone_passes=3),
        ]) + "\n")
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== run totals (from events and spans) ==" in out
        assert "checkpoint_hit" in out
        assert "sta_incremental_fraction" in out and "75.0%" in out

    def test_parallel_run_reports_the_serial_solver_work(self, tmp_path,
                                                         monkeypatch):
        """What reaches the manifest from pool workers equals a serial
        run's: per-backend solve and iteration counts.  (Formulation
        builds are left out: which worker serves which cell moves
        them.)"""
        from repro import obs
        from repro.experiments.harness import DMoptCell, run_dmopt_cells

        cells = [
            DMoptCell("AES-65", 30.0, mode="qp", scale=0.3),
            DMoptCell("AES-65", 30.0, mode="qcp", scale=0.3),
        ]
        stats = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            monkeypatch.setenv(telemetry.ENV_FLAG, "1")
            monkeypatch.setenv(telemetry.ENV_PATH, str(path))
            monkeypatch.delenv(obs.ENV_CTX, raising=False)
            telemetry.reset()
            try:
                run_dmopt_cells(cells, jobs=jobs)
            finally:
                monkeypatch.undo()
                telemetry.reset()
            stats[jobs] = {
                backend: (entry["solves"], entry["iterations"])
                for backend, entry in summarize(path)["solvers"].items()
            }
        assert stats[1]["ipm"][0] >= 2 and "qcp" in stats[1]
        assert stats[2] == stats[1]


class TestCompare:
    def _record(self):
        return {
            "correct": True, "attempted": 120, "failed": 0,
            "metrics": {
                "solver.lu_s": {"value": 0.5, "unit": "s"},
                "solver.lu_count": {"value": 277, "unit": "count"},
                "snap.s": {"value": 2e-4, "unit": "s"},
                "sta.update_s": {"value": 3e-4, "unit": "s"},
                "obs.coverage_pct": {"value": 99.0, "unit": "%"},
            },
        }

    def _run(self, tmp_path, base, cur):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(cur))
        return obs_main(["compare", str(a), str(b)])

    def _scaled(self, name, factor):
        cur = self._record()
        cur["metrics"][name]["value"] *= factor
        return cur

    def test_identical_files_pass(self, tmp_path, capsys):
        assert self._run(tmp_path, self._record(), self._record()) == 0
        assert "5 baseline metrics, 0 failed" in capsys.readouterr().out

    def test_count_changed_by_one_fails(self, tmp_path, capsys):
        for delta in (1, -1):
            cur = self._record()
            cur["metrics"]["solver.lu_count"]["value"] += delta
            assert self._run(tmp_path, self._record(), cur) == 1
            assert "solver.lu_count" in capsys.readouterr().out

    def test_synthetic_2x_slowdown_fails(self, tmp_path, capsys):
        cur = self._scaled("solver.lu_s", 2.1)
        assert self._run(tmp_path, self._record(), cur) == 1
        out = capsys.readouterr().out
        assert "FAILED  solver.lu_s" in out and "1 failed" in out
        assert self._run(tmp_path, self._record(),
                         self._scaled("solver.lu_s", 1.9)) == 0

    def test_improvement_never_fails(self, tmp_path):
        assert self._run(tmp_path, self._record(),
                         self._scaled("solver.lu_s", 0.1)) == 0

    def test_noise_floor_skips_tiny_timers(self, tmp_path):
        cur = self._scaled("snap.s", 3.0)  # 200 us -> 600 us
        cur["metrics"]["sta.update_s"]["value"] *= 3.0
        assert self._run(tmp_path, self._record(), cur) == 0
        # a sub-floor baseline still fails once the timer crosses it
        assert self._run(tmp_path, self._record(),
                         self._scaled("snap.s", 10.0)) == 1

    def test_other_units_are_informational(self, tmp_path):
        assert self._run(tmp_path, self._record(),
                         self._scaled("obs.coverage_pct", 0.5)) == 0

    def test_missing_metric_fails(self, tmp_path, capsys):
        cur = self._record()
        del cur["metrics"]["obs.coverage_pct"]
        assert self._run(tmp_path, self._record(), cur) == 1
        assert "obs.coverage_pct" in capsys.readouterr().out
        # a metric only the current record has is not a failure
        assert self._run(tmp_path, cur, self._record()) == 0

    def test_compare_has_no_options(self):
        with pytest.raises(SystemExit):
            obs_main(["compare", "a.json", "b.json", "--tol", "4.0"])

    def test_missing_baseline_exits_2_with_one_line(self, tmp_path,
                                                     capsys):
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(self._record()))
        missing = tmp_path / "BENCH_absent.json"
        assert obs_main(["compare", str(missing), str(cur)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err
        assert obs_main(["compare", str(cur), str(missing)]) == 2

    @pytest.mark.parametrize("workload", BENCH_WORKLOADS)
    def test_committed_bench_records(self, workload):
        """Each committed record is a passing perfbench run carrying
        exactly the per-layer metrics BENCHMARK.json declares."""
        path = ROOT / f"BENCH_{workload}.json"
        record = json.loads(path.read_text())
        assert record["correct"] is True
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert {name: m["unit"] for name, m in record["metrics"].items()} \
            == declared
        assert obs_main(["compare", str(path), str(path)]) == 0

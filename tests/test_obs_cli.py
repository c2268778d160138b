"""Tests for the observability CLI (python -m repro.obs report/compare)."""

import json
import time

import pytest

from repro import telemetry
from repro.obs.__main__ import main as obs_main
from repro.obs.compare import compare_metrics, direction_of, flatten
from repro.obs.report import build_trees, load_manifest, summarize


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv(telemetry.ENV_FLAG, "1")
    monkeypatch.setenv(telemetry.ENV_PATH, str(path))
    telemetry.reset()
    yield path
    telemetry.reset()


class TestReport:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One traced CLI optimize run: (manifest path, wall seconds)."""
        import os

        from repro.cli import main as cli_main
        from repro.obs import metrics

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
            metrics.flush("test_end")
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            metrics.reset()
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
        assert "solver.ipm.solves" in out  # merged metrics section

    def test_json_summary_is_machine_readable(self, traced_run, capsys):
        path, _ = traced_run
        assert obs_main(["report", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"]["span"] >= 3
        assert "ipm" in summary["solvers"]
        assert summary["solvers"]["ipm"]["solves"] >= 1
        assert summary["metrics"]["counters"]["solver.ipm.solves"] >= 1

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


class TestCompare:
    def _bench(self):
        return {
            "smoke": True,
            "solve": [{"design": "AES-65", "warm_time": 0.2,
                       "cold_time": 0.6, "speedup": 3.0,
                       "iterations": 50, "mct": 3.2}],
        }

    def test_identical_files_pass(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(self._bench()))
        assert obs_main(["compare", str(a), str(a), "--tol", "0.5"]) == 0

    def test_synthetic_2x_slowdown_fails(self, tmp_path, capsys):
        base = self._bench()
        slow = json.loads(json.dumps(base))
        for row in slow["solve"]:
            row["warm_time"] *= 2
            row["cold_time"] *= 2
            row["speedup"] /= 3
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(slow))
        assert obs_main(["compare", str(a), str(b), "--tol", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "warm_time" in out and "speedup" in out

    def test_improvement_never_fails(self, tmp_path):
        base = self._bench()
        fast = json.loads(json.dumps(base))
        for row in fast["solve"]:
            row["warm_time"] /= 4
            row["speedup"] *= 4
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(fast))
        assert obs_main(["compare", str(a), str(b), "--tol", "0.5"]) == 0

    def test_missing_metric_fails_unless_allowed(self, tmp_path):
        base = self._bench()
        partial = json.loads(json.dumps(base))
        del partial["solve"][0]["warm_time"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(partial))
        assert obs_main(["compare", str(a), str(b)]) == 1
        assert obs_main(["compare", str(a), str(b), "--allow-missing"]) == 0

    def test_direction_classification(self):
        assert direction_of("solve[0].speedup") == "higher"
        assert direction_of("solve[0].warm_time") == "lower"
        assert direction_of("sweep[0].parallel_all_cores") == "lower"
        assert direction_of("solve[0].iterations") == "lower"
        # correctness numbers are not perf regressions
        assert direction_of("solve[0].mct") == "info"
        assert direction_of("assembly[0].n_gates") == "info"

    def test_flatten_paths_and_bool_exclusion(self):
        flat = flatten(self._bench())
        assert flat["solve[0].warm_time"] == 0.2
        assert "smoke" not in flat  # bools are flags, not metrics

    def test_noise_floor_skips_tiny_timers(self):
        base = {"a_time": 2e-4}
        cur = {"a_time": 6e-4}  # 3x blip on a 200us timer
        result = compare_metrics(flatten(base), flatten(cur), tol=0.5,
                                 floor=1e-3)
        assert result["regressions"] == []

    def test_missing_baseline_exits_2_with_one_line(self, tmp_path,
                                                     capsys):
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(self._bench()))
        missing = tmp_path / "BENCH_absent.json"
        assert obs_main(["compare", str(missing), str(cur)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err

    def test_committed_smoke_baselines_self_compare(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for name in ("BENCH_sta_smoke.json", "BENCH_dmopt_smoke.json"):
            path = root / name
            assert obs_main(["compare", str(path), str(path)]) == 0

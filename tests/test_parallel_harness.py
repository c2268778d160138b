"""Tests for the parallel DMopt sweep harness (experiments.harness).

The contract under test: worker count resolution (arg > ``REPRO_JOBS``
env > serial), input-order result delivery, and -- the important one --
byte-identical golden numbers between serial and multi-process runs of
the same cells.
"""

import numpy as np
import pytest

from repro.experiments.harness import (
    DMoptCell,
    resolve_jobs,
    run_dmopt_cell,
    run_dmopt_cells,
)
from repro.resilience.watchdog import supervised_map


def _square(x):
    return x * x


_MAIN_PID = None


def _square_or_die(arg):
    """Crash (hard) in any worker process; succeed in the parent."""
    import os

    x, main_pid = arg
    if os.getpid() != main_pid:
        os._exit(17)  # simulate an OOM kill / segfault, not an exception
    return x * x


def _square_or_raise(arg):
    """Raise in any worker process; succeed in the parent."""
    import os

    x, main_pid = arg
    if os.getpid() != main_pid:
        raise RuntimeError("worker casualty")
    return x * x


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_arg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)


class TestParallelMap:
    """supervised_map as a plain parallel map: input order, any size."""

    def test_serial_path(self):
        assert supervised_map(_square, [3, 1, 2], 1) == [9, 1, 4]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert supervised_map(_square, items, 2) == [x * x for x in items]

    def test_empty(self):
        assert supervised_map(_square, [], 4) == []

    def test_jobs_capped_by_items(self):
        # must not spawn 8 workers for 2 items; just check correctness
        assert supervised_map(_square, [5, 6], 8) == [25, 36]


class TestGracefulDegradation:
    """A lossy worker pool must not hole or reorder the results."""

    def test_worker_exception_retried_serially(self):
        import os

        items = [(x, os.getpid()) for x in range(6)]
        out = supervised_map(_square_or_raise, items, 2)
        assert out == [x * x for x in range(6)]

    def test_worker_crash_retried_serially(self):
        import os

        # os._exit in the worker kills the process outright: every
        # pending future raises BrokenProcessPool, and all items must
        # still come back, in order, via the parent's serial retry
        items = [(x, os.getpid()) for x in range(6)]
        out = supervised_map(_square_or_die, items, 2)
        assert out == [x * x for x in range(6)]

    def test_parent_failure_still_raises(self):
        # an item that fails in the parent too is a real bug: surface it
        def boom(_):
            raise ValueError("deterministic failure")

        with pytest.raises(ValueError, match="deterministic failure"):
            supervised_map(boom, [1], 1)

    def test_retries_recorded_in_manifest(self, tmp_path, monkeypatch):
        import os

        from repro import telemetry

        manifest = tmp_path / "retry.jsonl"
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        monkeypatch.setenv(telemetry.ENV_PATH, str(manifest))
        telemetry.reset()
        try:
            items = [(x, os.getpid()) for x in range(4)]
            out = supervised_map(_square_or_raise, items, 2)
            assert out == [x * x for x in range(4)]
        finally:
            monkeypatch.undo()
            telemetry.reset()
        events = [
            __import__("json").loads(line)
            for line in manifest.read_text().splitlines()
        ]
        retries = [e for e in events if e["event"] == "worker_retry"]
        assert len(retries) == 4
        assert sorted(e["index"] for e in retries) == [0, 1, 2, 3]


SMALL_CELLS = [
    DMoptCell("AES-65", 30.0, mode="qp", scale=0.3),
    DMoptCell("AES-65", 30.0, mode="qcp", scale=0.3),
]

GOLDEN_KEYS = [
    "design",
    "grid_size",
    "mode",
    "both_layers",
    "mct",
    "mct_improvement_pct",
    "leakage",
    "leakage_improvement_pct",
    "baseline_mct",
    "baseline_leakage",
    "iterations",
    "status",
]


class TestDMoptCells:
    def test_cell_result_shape(self):
        out = run_dmopt_cell(SMALL_CELLS[0])
        for key in GOLDEN_KEYS + ["runtime"]:
            assert key in out
        assert out["status"] == "solved"
        assert out["mct"] < out["baseline_mct"]

    def test_parallel_matches_serial(self):
        serial = run_dmopt_cells(SMALL_CELLS, jobs=1)
        parallel = run_dmopt_cells(SMALL_CELLS, jobs=2)
        assert len(serial) == len(parallel) == len(SMALL_CELLS)
        for s, p in zip(serial, parallel):
            for key in GOLDEN_KEYS:
                if isinstance(s[key], float):
                    assert p[key] == pytest.approx(s[key], abs=1e-12), key
                else:
                    assert p[key] == s[key], key

    def test_env_jobs_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        out = run_dmopt_cells(SMALL_CELLS[:1])
        assert out[0]["status"] == "solved"


class TestCLIWiring:
    def test_jobs_flag_parsed(self):
        """--jobs reaches only the parallelizable experiments."""
        import repro.experiments.__main__ as cli

        parser_probe = []

        def fake_table4(jobs=None):
            parser_probe.append(jobs)
            from repro.experiments.harness import TableResult

            return TableResult("T4", "t", ["a"], [["x"]])

        old = cli.EXPERIMENTS["table4"]
        cli.EXPERIMENTS["table4"] = fake_table4
        try:
            cli.main(["table4", "--jobs", "2", "--out", "/tmp/_t4probe"])
        finally:
            cli.EXPERIMENTS["table4"] = old
        assert parser_probe == [2]

"""Tests for the solver fallback/retry chain (repro.solver.robust)."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

import repro.solver.robust as robust
from repro.core import DesignContext, optimize_dose_map
from repro.netlist import make_design
from repro.solver import (
    STATUS_DIVERGED,
    STATUS_INFEASIBLE,
    diagnostic_result,
    solve_qp_robust,
)
from repro.solver.ipm import solve_qp_ipm as real_ipm


def _box_qp():
    """min 1/2 x'x - 5'x over [0,1]^2 -> x = (1,1)."""
    return (sp.eye(2), np.array([-5.0, -5.0]), sp.eye(2),
            np.zeros(2), np.ones(2))


def _diverged_stub(P, q, A, l, u, **kwargs):
    return diagnostic_result(STATUS_DIVERGED, q.shape[0],
                             "stubbed divergence")


class TestFallbackChain:
    def test_happy_path_single_attempt(self):
        res = solve_qp_robust(*_box_qp())
        assert res.ok
        assert [a["step"] for a in res.info["attempts"]] == ["ipm"]

    def test_ipm_divergence_recovered_by_admm(self, monkeypatch):
        """A dead IPM backend must not take the chain down."""
        monkeypatch.setattr(robust, "solve_qp_ipm", _diverged_stub)
        res = solve_qp_robust(*_box_qp())
        assert res.ok
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)
        steps = [a["step"] for a in res.info["attempts"]]
        assert steps == ["ipm", "ipm-regularized", "admm"]

    def test_regularized_retry_recovers(self, monkeypatch):
        """Failure at the default reg, success at the retry reg: the
        chain must stop at step 2 without touching ADMM."""

        def flaky_ipm(P, q, A, l, u, **kwargs):
            if kwargs.get("reg", 1e-9) < robust.RETRY_REG:
                return _diverged_stub(P, q, A, l, u)
            return real_ipm(P, q, A, l, u, **kwargs)

        monkeypatch.setattr(robust, "solve_qp_ipm", flaky_ipm)
        res = solve_qp_robust(*_box_qp())
        assert res.ok
        steps = [a["step"] for a in res.info["attempts"]]
        assert steps == ["ipm", "ipm-regularized"]

    def test_cold_infeasible_not_retried(self):
        P = sp.eye(1)
        res = solve_qp_robust(P, np.zeros(1), sp.eye(1),
                              np.array([2.0]), np.array([1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert len(res.info["attempts"]) == 1

    def test_warm_infeasible_confirmed_cold(self, monkeypatch):
        """A warm-started infeasibility verdict is re-checked cold once."""
        calls = []

        def fake_ipm(P, q, A, l, u, warm=None, **kwargs):
            calls.append(warm is not None)
            res = diagnostic_result(STATUS_INFEASIBLE, q.shape[0],
                                    "stubbed infeasible")
            res.warm_started = warm is not None
            return res

        monkeypatch.setattr(robust, "solve_qp_ipm", fake_ipm)
        res = solve_qp_robust(*_box_qp(), warm={"x": np.zeros(2)})
        assert res.status == STATUS_INFEASIBLE
        assert calls == [True, False]  # warm attempt, then cold confirm

    def test_exhausted_chain_returns_best_residual(self, monkeypatch):
        def bad_ipm(P, q, A, l, u, **kwargs):
            res = diagnostic_result(STATUS_DIVERGED, q.shape[0], "dead")
            res.r_prim = res.r_dual = 10.0
            return res

        def bad_admm(P, q, A, l, u, **kwargs):
            res = diagnostic_result(STATUS_DIVERGED, q.shape[0], "dead too")
            res.r_prim = res.r_dual = 1.0  # less bad
            return res

        monkeypatch.setattr(robust, "solve_qp_ipm", bad_ipm)
        monkeypatch.setattr(robust, "solve_qp", bad_admm)
        res = solve_qp_robust(*_box_qp())
        assert not res.ok
        assert res.r_prim == 1.0  # the least-bad attempt won
        assert "exhausted" in res.info["note"]

    def test_fallback_events_in_manifest(self, tmp_path, monkeypatch):
        from repro import telemetry

        manifest = tmp_path / "chain.jsonl"
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        monkeypatch.setenv(telemetry.ENV_PATH, str(manifest))
        telemetry.reset()
        monkeypatch.setattr(robust, "solve_qp_ipm", _diverged_stub)
        try:
            res = solve_qp_robust(*_box_qp())
            assert res.ok
        finally:
            monkeypatch.undo()
            telemetry.reset()
        events = [json.loads(line)
                  for line in manifest.read_text().splitlines()]
        steps = [e["step"] for e in events if e["event"] == "fallback"]
        assert steps == ["ipm", "ipm-regularized", "admm"]


class TestDMoptUnderFallback:
    def test_goldens_unchanged_when_ipm_dies(self, monkeypatch):
        """ISSUE acceptance: force IPM divergence inside DMopt and verify
        the ADMM recovery reproduces the healthy goldens."""
        ctx = DesignContext(make_design("AES-65", scale=0.3))
        healthy = optimize_dose_map(ctx, 30.0, mode="qp")
        assert healthy.ok

        monkeypatch.setattr(robust, "solve_qp_ipm", _diverged_stub)
        ctx2 = DesignContext(make_design("AES-65", scale=0.3))
        recovered = optimize_dose_map(ctx2, 30.0, mode="qp")
        assert recovered.ok
        steps = [a["step"] for a in recovered.solve.info["attempts"]]
        assert steps[-1] == "admm"
        assert recovered.mct == pytest.approx(healthy.mct, rel=1e-6)
        assert recovered.leakage == pytest.approx(healthy.leakage, rel=1e-6)

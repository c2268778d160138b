"""Warm-start regression tests: fewer iterations, same golden answers.

Covers the whole warm-start chain: solver-level seeds (IPM ``warm``/
``workspace``), the QCP barrier's seed (``x``, ``z`` and the row's
multiplier ``lam`` from ``warm_state()``), and the DMopt-level
``warm_start=`` plumbing used by :func:`repro.core.dmopt_dose_range_sweep`.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import DesignContext, dmopt_dose_range_sweep, optimize_dose_map
from repro.solver import solve_qcp, solve_qp_ipm
from repro.solver.ipm import IPMWorkspace

ATOL = 1e-6


@pytest.fixture(scope="module")
def aes_ctx():
    return DesignContext("AES-65")


def box_qp(n=40, seed=3):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    P = sp.csc_matrix(M @ M.T + n * np.eye(n))
    q = rng.standard_normal(n)
    A = sp.eye(n, format="csc")
    return P, q, A, -np.ones(n), np.ones(n)


class TestIPMWarmStart:
    def test_warm_flag_and_fewer_iterations(self):
        P, q, A, l, u = box_qp()
        cold = solve_qp_ipm(P, q, A, l, u)
        assert cold.ok and not cold.warm_started
        warm = solve_qp_ipm(
            P, q, A, l, u, warm={"x": cold.x, "z": cold.info["z"]}
        )
        assert warm.ok and warm.warm_started
        assert warm.iterations < cold.iterations
        assert np.allclose(warm.x, cold.x, atol=ATOL)

    def test_workspace_reused_across_solves(self):
        P, q, A, l, u = box_qp()
        ws = {}
        r1 = solve_qp_ipm(P, q, A, l, u, workspace=ws)
        assert isinstance(ws.get("ws"), IPMWorkspace)
        first = ws["ws"]
        r2 = solve_qp_ipm(P, q + 0.1, A, l, u, workspace=ws)
        assert ws["ws"] is first  # same pattern -> no rebuild
        assert r1.ok and r2.ok

    def test_workspace_rebuilt_on_pattern_change(self):
        P, q, A, l, u = box_qp()
        ws = {}
        solve_qp_ipm(P, q, A, l, u, workspace=ws)
        first = ws["ws"]
        u2 = u.copy()
        u2[0] = np.inf  # different finiteness mask -> different G
        r = solve_qp_ipm(P, q, A, l, u2, workspace=ws)
        assert r.ok
        assert ws["ws"] is not first

    def test_workspace_same_answer(self):
        P, q, A, l, u = box_qp()
        plain = solve_qp_ipm(P, q, A, l, u)
        ws = {}
        solve_qp_ipm(P, q, A, l, u, workspace=ws)
        again = solve_qp_ipm(P, q, A, l, u, workspace=ws)
        assert np.allclose(again.x, plain.x, atol=ATOL)


    def test_normal_matrix_is_permuted_on_both_assembly_paths(
        self, monkeypatch
    ):
        """Scatter and dense-row assembly both return N[order][:, order]."""
        rng = np.random.default_rng(5)
        n = 30
        P = sp.csc_matrix(np.diag(rng.uniform(0.0, 1.0, n)))
        R = rng.standard_normal((12, n)) * (rng.random((12, n)) < 0.2)
        A = sp.vstack([sp.eye(n), sp.csr_matrix(R)], format="csc")
        l, u = -np.ones(A.shape[0]), np.ones(A.shape[0])
        w = rng.uniform(0.1, 10.0, 2 * A.shape[0])
        q = rng.standard_normal(n)
        scatter = IPMWorkspace(P, A, l, u)
        via_scatter = solve_qp_ipm(P, q, A, l, u)
        monkeypatch.setattr(IPMWorkspace, "MAX_EXPANSION_RATIO", 0.0)
        dense = IPMWorkspace(P, A, l, u)
        via_dense = solve_qp_ipm(P, q, A, l, u)
        assert scatter.E is not None and dense.E is None
        assert np.array_equal(scatter.order, dense.order)
        G = scatter.Gcsc
        N = (P + 1e-9 * sp.eye(n) + G.T @ sp.diags(w) @ G).toarray()
        want = N[np.ix_(scatter.order, scatter.order)]
        for ws in (scatter, dense):
            got = ws.normal(P, w, 1e-9).toarray()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert via_scatter.ok and via_dense.ok
        np.testing.assert_allclose(via_dense.x, via_scatter.x, atol=1e-9)


class TestQCPWarmStart:
    def test_dmopt_qcp_warm_fewer_iterations(self, aes_ctx):
        cold = optimize_dose_map(aes_ctx, 10.0, mode="qcp")
        warm = optimize_dose_map(
            aes_ctx, 10.0, mode="qcp", warm_start=cold.solve
        )
        assert not cold.solve.warm_started
        assert warm.solve.warm_started
        assert warm.solve.iterations < cold.solve.iterations
        assert warm.mct == pytest.approx(cold.mct, abs=1e-6)
        assert warm.leakage == pytest.approx(cold.leakage, rel=1e-6)

    def test_qcp_warm_state_carries_lam(self):
        """A QCP result's warm state carries its multiplier, which seeds
        the barrier's row next to the primal and the linear duals."""
        n = 20
        rng = np.random.default_rng(7)
        c = -np.abs(rng.standard_normal(n))  # push x to its bounds
        A = sp.eye(n, format="csc")
        l, u = -np.ones(n), np.ones(n)
        Q = sp.eye(n, format="csc")
        g = np.zeros(n)
        s = 0.25 * n  # binding: ||x||^2/2 <= s < n/2
        cold = solve_qcp(c, A, l, u, Q, g, s)
        assert cold.ok and not cold.warm_started
        assert cold.info["lam"] > 0
        state = cold.warm_state()
        assert state["lam"] == cold.info["lam"] and "z" in state
        warm = solve_qcp(c, A, l, u, Q, g, s, warm=state)
        assert warm.ok and warm.warm_started
        assert warm.iterations < cold.iterations
        assert warm.obj == pytest.approx(cold.obj, rel=1e-4)


class TestDMoptQPWarm:
    def test_qp_warm_same_goldens(self, aes_ctx):
        cold = optimize_dose_map(aes_ctx, 10.0, mode="qp")
        warm = optimize_dose_map(
            aes_ctx, 10.0, mode="qp", warm_start=cold.solve
        )
        assert warm.solve.warm_started
        assert warm.solve.iterations < cold.solve.iterations
        assert warm.mct == pytest.approx(cold.mct, abs=1e-6)
        assert warm.leakage == pytest.approx(cold.leakage, rel=1e-6)


class TestSweepChaining:
    def test_sweep_matches_independent_solves(self, aes_ctx):
        ranges = [4.0, 5.0]
        chained = dmopt_dose_range_sweep(aes_ctx, 10.0, ranges, mode="qp")
        independent = [
            optimize_dose_map(aes_ctx, 10.0, mode="qp", dose_range=r)
            for r in ranges
        ]
        assert len(chained) == 2
        assert not chained[0].solve.warm_started
        assert chained[1].solve.warm_started
        for got, want in zip(chained, independent):
            assert got.mct == pytest.approx(want.mct, abs=1e-6)
            assert got.leakage == pytest.approx(want.leakage, rel=1e-6)
        # warm chaining must actually help on the second point
        assert chained[1].solve.iterations < independent[1].solve.iterations

    @pytest.mark.parametrize(
        "wrap",
        [tuple, lambda r: (x for x in r)],
        ids=["tuple", "generator"],
    )
    def test_sweep_accepts_any_iterable(self, aes_ctx, wrap):
        # the span attribute once spent an iterator before the loop ran
        ranges = [4.0, 5.0]
        res = dmopt_dose_range_sweep(aes_ctx, 30.0, wrap(ranges), mode="qp")
        assert [r.formulation.dose_range for r in res] == ranges
        assert all(r.ok for r in res)

    def test_sweep_warm_start_off(self, aes_ctx):
        res = dmopt_dose_range_sweep(
            aes_ctx, 30.0, [4.0, 5.0], mode="qp", warm_start=False
        )
        assert not any(r.solve.warm_started for r in res)

"""Cross-module property-based tests (hypothesis).

Invariants that must hold regardless of input details -- the contracts
the optimization relies on when it composes the substrates.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.core import DesignContext
from repro.core.snap import SNAP_CEIL, SNAP_FLOOR, SNAP_NEAREST, snap_dose_map
from repro.dosemap import DoseMap, GridPartition
from repro.library import CellLibrary
from repro.netlist import make_design
from repro.solver import (
    STATUS_ILL_CONDITIONED,
    STATUS_SOLVED,
    qp as admm,
    solve_qp,
    solve_qp_ipm,
)
from repro.solver.guards import SYMMETRIC_SPLU


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-90", scale=0.25))


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


def _dose_maps(min_side=2, max_side=6):
    """Hypothesis strategy: random feasible-range dose maps."""

    @st.composite
    def build(draw):
        m = draw(st.integers(min_side, max_side))
        n = draw(st.integers(min_side, max_side))
        vals = draw(
            st.lists(
                st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=m * n,
                max_size=m * n,
            )
        )
        part = GridPartition(width=n * 10.0, height=m * 10.0, g=10.0)
        return DoseMap(part, values=np.array(vals).reshape(m, n))

    return build()


class TestSnapProperties:
    @settings(deadline=None, max_examples=30)
    @given(_dose_maps())
    def test_snap_idempotent(self, dm):
        lib = CellLibrary("65nm")
        once = snap_dose_map(dm, lib, SNAP_NEAREST)
        twice = snap_dose_map(once, lib, SNAP_NEAREST)
        assert np.array_equal(once.values, twice.values)

    @settings(deadline=None, max_examples=30)
    @given(_dose_maps())
    def test_snap_orderings(self, dm):
        """floor <= nearest <= ceil, all within half a step of input."""
        lib = CellLibrary("65nm")
        lo = snap_dose_map(dm, lib, SNAP_FLOOR).values
        mid = snap_dose_map(dm, lib, SNAP_NEAREST).values
        hi = snap_dose_map(dm, lib, SNAP_CEIL).values
        assert np.all(lo <= mid + 1e-12)
        assert np.all(mid <= hi + 1e-12)
        assert np.max(np.abs(mid - dm.values)) <= 0.25 + 1e-9

    @settings(deadline=None, max_examples=30)
    @given(_dose_maps())
    def test_snap_preserves_feasibility_margin(self, dm):
        """Snapping changes each grid by < one step, so a map feasible
        with 0.5 % margin stays feasible after snapping."""
        lib = CellLibrary("65nm")
        snapped = snap_dose_map(dm, lib, SNAP_NEAREST)
        assert snapped.range_violations(5.0) <= 1e-9
        if dm.is_feasible(dose_range=5.0, smoothness=1.5):
            assert snapped.is_feasible(dose_range=5.0, smoothness=2.0)


class TestDoseMapProperties:
    @settings(deadline=None, max_examples=25)
    @given(_dose_maps(), st.integers(1, 3), st.integers(1, 3))
    def test_tiling_preserves_values_and_mean(self, dm, nx, ny):
        big = dm.tiled(nx, ny)
        assert big.values.shape == (dm.values.shape[0] * ny,
                                    dm.values.shape[1] * nx)
        assert big.values.mean() == pytest.approx(dm.values.mean())
        m, n = dm.values.shape
        for ty in range(ny):
            for tx in range(nx):
                tile = big.values[ty * m:(ty + 1) * m, tx * n:(tx + 1) * n]
                assert np.array_equal(tile, dm.values)

    @settings(deadline=None, max_examples=25)
    @given(_dose_maps())
    def test_flat_roundtrip(self, dm):
        assert np.array_equal(dm.from_flat(dm.flat()).values, dm.values)

    @settings(deadline=None, max_examples=25)
    @given(_dose_maps(), st.floats(0.1, 10.0))
    def test_smoothness_monotone_in_bound(self, dm, delta):
        """A larger bound can only reduce the violation."""
        assert dm.smoothness_violations(delta) >= dm.smoothness_violations(
            delta + 1.0
        )


class TestSTAMonotonicity:
    def test_mct_monotone_in_uniform_dose(self, ctx):
        doses = [-4.0, -2.0, 0.0, 2.0, 4.0]
        mcts = []
        for d in doses:
            gd = {g: (d, 0.0) for g in ctx.netlist.gates}
            mcts.append(ctx.analyzer.analyze(doses=gd).mct)
        assert all(b < a for a, b in zip(mcts, mcts[1:]))

    def test_single_gate_dose_never_hurts_mct(self, ctx):
        """Speeding up any one gate cannot increase the longest path."""
        base = ctx.baseline.mct
        import itertools

        for g in itertools.islice(ctx.netlist.gates, 0, 60, 7):
            res = ctx.analyzer.analyze(doses={g: (5.0, 0.0)})
            assert res.mct <= base + 1e-9, g

    def test_dose_superposition_bound(self, ctx):
        """Dosing a region is at least as fast as dosing a subregion."""
        gates = list(ctx.netlist.gates)
        half = {g: (4.0, 0.0) for g in gates[: len(gates) // 2]}
        full = {g: (4.0, 0.0) for g in gates}
        mct_half = ctx.analyzer.analyze(doses=half).mct
        mct_full = ctx.analyzer.analyze(doses=full).mct
        assert mct_full <= mct_half + 1e-9


class TestLibraryProperties:
    @settings(deadline=None, max_examples=12)
    @given(
        st.sampled_from(["INVX1", "NAND2X1", "NOR2X2", "XOR2X1", "DFFX1"]),
        st.floats(min_value=-4.5, max_value=4.5),
    )
    def test_delay_leakage_tradeoff_everywhere(self, master, dose):
        """At any dose, moving toward +dose is faster and leakier."""
        lib = CellLibrary("65nm")
        a = lib.characterized(master, lib.snap_dose(dose))
        b = lib.characterized(master, lib.snap_dose(dose) + 0.5)
        if b.dl_nm == a.dl_nm:  # clipped at the range edge
            return
        assert b.delay_at(0.05, 2.0) < a.delay_at(0.05, 2.0)
        assert b.leakage_uw > a.leakage_uw


@st.composite
def _convex_qps(draw, strictly_convex=False):
    """Small random convex QPs ``(P, q, A, l, u)``.

    ``P`` is PSD (rank-deficient unless ``strictly_convex``).  ``A`` is
    a random sparse block under a two-sided box on ``x``, which keeps
    every problem bounded; its rows are two-sided, upper-only or
    lower-only.  Bounds are cut around a random point, so every problem
    is feasible.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, 8))
    rank = n if strictly_convex else draw(st.integers(0, n))
    M = rng.standard_normal((n, rank))
    P = M @ M.T + (0.1 * np.eye(n) if strictly_convex else 0.0)
    q = rng.standard_normal(n)
    R = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    A = sp.vstack([sp.eye(n), sp.csr_matrix(R)], format="csc")
    ax = A @ rng.uniform(-1.0, 1.0, n)
    width = rng.uniform(0.1, 2.0, n + m)
    l, u = ax - width, ax + width
    kind = rng.integers(0, 3, m)
    l[n:][kind == 1] = -np.inf
    u[n:][kind == 2] = np.inf
    return sp.csc_matrix(P), q, A, l, u


class TestQPSolverProperties:
    """The IPM's symmetric factorization on its cached ordering."""

    TOL = 1e-7

    @settings(deadline=None, max_examples=40)
    @given(_convex_qps())
    def test_ipm_meets_kkt_and_matches_admm(self, problem):
        P, q, A, l, u = problem
        res = solve_qp_ipm(P, q, A, l, u, tol=self.TOL)
        assert res.status == STATUS_SOLVED
        x, z = res.x, res.info["z"]
        up, lo = np.isfinite(u), np.isfinite(l)
        # z holds the duals of the stacked rows [A[up]; -A[lo]]
        y = np.zeros(A.shape[0])
        y[up] += z[: up.sum()]
        y[lo] -= z[up.sum():]
        ax = A @ x
        h = np.concatenate([u[up], -l[lo]])
        slack = np.concatenate([u[up] - ax[up], ax[lo] - l[lo]])
        scale_h = max(1.0, np.abs(h).max())
        scale_obj = max(1.0, np.abs(q).max())
        assert slack.min() >= -10 * self.TOL * scale_h
        assert np.abs(P @ x + q + A.T @ y).max() <= 10 * self.TOL * scale_obj
        assert z.min() >= 0.0
        assert float(z @ np.abs(slack)) <= 10 * self.TOL * z.size * scale_h

        ref = solve_qp(P, q, A, l, u, eps_abs=1e-7, eps_rel=1e-7)
        assert ref.status == STATUS_SOLVED
        assert res.obj == pytest.approx(ref.obj, rel=1e-4, abs=1e-4)

    @settings(deadline=None, max_examples=25)
    @given(_convex_qps(strictly_convex=True), st.integers(0, 2**32 - 1))
    def test_workspace_reuse_across_retargets(self, problem, seed):
        """One ordering serves every retarget: same x as a fresh solve."""
        P, q, A, l, u = problem
        rng = np.random.default_rng(seed)
        workspace = {}
        for step in range(3):
            scale = rng.uniform(0.5, 2.0)
            shift = rng.uniform(0.0, 0.5, l.size)
            args = (scale * P, q, A, l - shift, u + shift)
            reused = solve_qp_ipm(*args, workspace=workspace)
            if step == 0:
                ws = workspace["ws"]
            assert workspace["ws"] is ws
            fresh = solve_qp_ipm(*args)
            assert reused.status == fresh.status == STATUS_SOLVED
            np.testing.assert_allclose(reused.x, fresh.x, atol=1e-8)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_singular_normal_system_is_ill_conditioned(self, n_used, n_free,
                                                       seed):
        """Unregularized variables absent from P and A: N is singular."""
        rng = np.random.default_rng(seed)
        n = n_used + n_free
        P = np.zeros((n, n))
        M = rng.standard_normal((n_used, n_used))
        P[:n_used, :n_used] = M @ M.T
        A = np.zeros((n_used, n))
        A[:, :n_used] = np.eye(n_used) + rng.standard_normal(
            (n_used, n_used)
        ) * (rng.random((n_used, n_used)) < 0.3)
        q = np.concatenate([rng.standard_normal(n_used), np.zeros(n_free)])
        ones = np.ones(n_used)
        workspace = {}
        for _ in range(2):  # fresh, then on the cached ordering
            res = solve_qp_ipm(
                sp.csc_matrix(P), q, sp.csc_matrix(A), -ones, ones,
                reg=0.0, workspace=workspace,
            )
            assert res.status == STATUS_ILL_CONDITIONED
            assert res.failed

    @settings(deadline=None, max_examples=30)
    @given(_convex_qps(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    def test_admm_kkt_factors_symmetrically(self, problem, log_rho, seed):
        """The quasi-definite KKT factors with the symmetric keywords."""
        P, _, A, _, _ = problem
        calls = []

        class Recorder:
            def splu(self, M, **kwargs):
                calls.append(kwargs)
                return spla.splu(M, **kwargs)

        rng = np.random.default_rng(seed)
        rho = 10.0 ** (log_rho + rng.uniform(-1.0, 1.0, A.shape[0]))
        with mock.patch.object(admm, "spla", Recorder()):
            kkt = admm._KKT(P, A, admm._SIGMA, rho)
        assert calls == [{"permc_spec": "MMD_AT_PLUS_A", **SYMMETRIC_SPLU}]
        n = P.shape[0]
        K = sp.bmat([[P + admm._SIGMA * sp.eye(n), A.T],
                     [A, -sp.diags(1.0 / rho)]]).toarray()
        rhs = rng.standard_normal(K.shape[0])
        sol = np.concatenate(kkt.solve(rhs))
        assert np.abs(K @ sol - rhs).max() <= 1e-8 * (
            np.abs(K).max() * np.abs(sol).max() + np.abs(rhs).max()
        )

"""Tests for the first-order SSTA engine (validated against Monte Carlo
and against the per-gate walk of ``tests/oracles/ssta.py``)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DesignContext, optimize_dose_map
from repro.dosemap import DoseMap, GridPartition
from repro.library import CellLibrary
from repro.netlist import make_design
from repro.variation import (
    SSTA,
    CanonicalDelay,
    TimingMonteCarlo,
    VariationModel,
    clark_max,
    ssta_timing_yield,
)
from tests.oracles.netlists import random_dag_context
from tests.oracles.ssta import ssta_analyze


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


@pytest.fixture(scope="module")
def model():
    return VariationModel(
        sigma_random_nm=1.0, sigma_systematic_nm=1.0,
        correlation_grid_um=20.0, seed=21,
    )


class TestCanonicalAlgebra:
    def _cv(self, mean, sens, rand):
        return CanonicalDelay(mean, np.array(sens, dtype=float), rand)

    def test_variance(self):
        c = self._cv(1.0, [0.3, 0.4], 0.5)
        assert c.variance == pytest.approx(0.09 + 0.16 + 0.25)
        assert c.sigma == pytest.approx(math.sqrt(0.5))

    def test_plus_exact(self):
        a = self._cv(1.0, [0.3, 0.0], 0.4)
        b = self._cv(2.0, [0.1, 0.2], 0.3)
        s = a.plus(b)
        assert s.mean == 3.0
        assert np.allclose(s.sens, [0.4, 0.2])
        assert s.rand == pytest.approx(0.5)

    def test_clark_max_dominant(self):
        """When A >> B, max(A, B) ~ A."""
        a = self._cv(10.0, [0.1, 0.0], 0.1)
        b = self._cv(1.0, [0.0, 0.1], 0.1)
        m = clark_max(a, b)
        assert m.mean == pytest.approx(10.0, abs=1e-6)
        assert np.allclose(m.sens, a.sens, atol=1e-6)

    def test_clark_max_symmetric_against_mc(self):
        """Equal-mean case vs brute-force sampling."""
        a = self._cv(1.0, [0.2, 0.0], 0.1)
        b = self._cv(1.0, [0.0, 0.2], 0.1)
        m = clark_max(a, b)
        rng = np.random.default_rng(0)
        n = 200_000
        x = rng.standard_normal((n, 2))
        ra, rb = rng.standard_normal(n), rng.standard_normal(n)
        sa = 1.0 + x @ np.array([0.2, 0.0]) + 0.1 * ra
        sb = 1.0 + x @ np.array([0.0, 0.2]) + 0.1 * rb
        samples = np.maximum(sa, sb)
        assert m.mean == pytest.approx(samples.mean(), abs=5e-3)
        assert m.sigma == pytest.approx(samples.std(), rel=0.05)

    def test_max_of_identical_is_identity(self):
        a = self._cv(1.0, [0.3], 0.0)
        m = clark_max(a, a)
        assert m.mean == pytest.approx(a.mean, abs=1e-9)
        assert m.sigma == pytest.approx(a.sigma, rel=1e-6)


class TestSSTAEngine:
    def test_mean_anchors_to_golden(self, ctx, model):
        mct = SSTA(ctx, model).analyze()
        # Clark max inflates the mean slightly above the deterministic
        # MCT (max of random variables >= max of means)
        assert mct.mean >= ctx.baseline.mct * 0.98
        assert mct.mean <= ctx.baseline.mct * 1.10
        assert mct.sigma > 0

    def test_matches_monte_carlo(self, ctx, model):
        """SSTA mean/sigma within ~10 % of a 400-sample MC."""
        ssta_mct = SSTA(ctx, model).analyze()
        tmc = TimingMonteCarlo(ctx)
        samples = tmc.mct_samples(tmc.sample_dl(model, 400))
        assert ssta_mct.mean == pytest.approx(samples.mean(), rel=0.05)
        assert ssta_mct.sigma == pytest.approx(samples.std(), rel=0.35)

    def test_more_variation_more_sigma(self, ctx):
        small = SSTA(ctx, VariationModel(0.5, 0.5, 20.0)).analyze()
        large = SSTA(ctx, VariationModel(2.0, 2.0, 20.0)).analyze()
        assert large.sigma > small.sigma

    def test_dose_map_improves_ssta_yield(self, ctx, model):
        res = optimize_dose_map(ctx, 10.0, mode="qcp")
        base = SSTA(ctx, model).analyze()
        opt = SSTA(ctx, model).analyze(dose_map=res.dose_map_poly)
        target = ctx.baseline.mct
        assert ssta_timing_yield(opt, target) > ssta_timing_yield(base, target)

    def test_yield_bounds(self):
        c = CanonicalDelay(1.0, np.array([0.1]), 0.0)
        assert ssta_timing_yield(c, 10.0) > 0.999
        assert ssta_timing_yield(c, 0.0) < 0.001
        det = CanonicalDelay(1.0, np.zeros(1), 0.0)
        assert ssta_timing_yield(det, 1.0) == 1.0
        assert ssta_timing_yield(det, 0.5) == 0.0

    def test_quantile(self):
        c = CanonicalDelay(1.0, np.array([0.0]), 2.0)
        assert c.quantile(0.5) == pytest.approx(1.0)
        assert c.quantile(0.8413) == pytest.approx(3.0, abs=1e-2)


#: Level-vectorized SSTA vs the per-gate walk.  The level kernel runs
#: the scalar Clark formulas in the same order, so only the
#: sensitivity dot products (summed in another order) and exp/hypot
#: (numpy's instead of ``math``'s) differ, by an ulp or so; sigma comes
#: out of a cancellation (variance minus sensitivities squared), so it
#: keeps less of that.
MEAN_RTOL, SIGMA_RTOL = 1e-12, 1e-9


def _assert_matches_oracle(ctx, model, dose_map):
    got = SSTA(ctx, model).analyze(dose_map)
    want = ssta_analyze(ctx, model, dose_map)
    assert got.mean == pytest.approx(want.mean, rel=MEAN_RTOL, abs=0.0)
    assert got.sigma == pytest.approx(want.sigma, rel=SIGMA_RTOL, abs=0.0)
    assert got.sens.shape == want.sens.shape


def _random_dose_map(ctx, seed, grid=5.0):
    place = ctx.placement
    part = GridPartition(place.die.width, place.die.height, grid)
    rng = np.random.default_rng(seed)
    return DoseMap(part, values=rng.uniform(-5.0, 5.0, (part.m, part.n)))


@functools.lru_cache(maxsize=None)
def _design_ctx(design):
    return DesignContext(make_design(design, scale=0.25))


@functools.lru_cache(maxsize=None)
def _lib65():
    return CellLibrary("65nm")


class TestAgainstPerGateOracle:
    @pytest.mark.parametrize(
        "design", ["AES-65", "JPEG-65", "AES-90", "JPEG-90"]
    )
    @pytest.mark.parametrize("mapped", [False, True])
    def test_fixed_designs(self, design, mapped, model):
        ctx = _design_ctx(design)
        dose_map = _random_dose_map(ctx, 3, grid=10.0) if mapped else None
        _assert_matches_oracle(ctx, model, dose_map)

    def test_zero_variation_sigma_is_exactly_zero(self):
        ctx = _design_ctx("JPEG-65")
        for dose_map in (None, _random_dose_map(ctx, 4, grid=10.0)):
            mct = SSTA(ctx, VariationModel(0, 0)).analyze(dose_map)
            assert mct.sigma == 0.0
            want = ssta_analyze(ctx, VariationModel(0, 0), dose_map)
            assert mct.mean == pytest.approx(want.mean, rel=MEAN_RTOL)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(3, 60),
        sigmas=st.tuples(
            st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 1.0, 2.0])
        ),
        corr_grid=st.sampled_from([5.0, 20.0]),
        mapped=st.booleans(),
    )
    def test_generated_netlists(self, seed, n_gates, sigmas, corr_grid,
                                mapped):
        """Random DAGs with FFs and a gate reading one net on both
        pins, with and without a dose map."""
        ctx = random_dag_context(seed, n_gates, _lib65(), shared_pins=True)
        model = VariationModel(*sigmas, correlation_grid_um=corr_grid)
        dose_map = _random_dose_map(ctx, seed) if mapped else None
        _assert_matches_oracle(ctx, model, dose_map)

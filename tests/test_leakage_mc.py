"""Tests for the Monte Carlo leakage estimator and signoff reports."""

import numpy as np
import pytest

from repro.core import DesignContext, optimize_dose_map
from repro.netlist import make_design
from repro.sta import report_dose_map, report_power, report_timing
from repro.variation import (
    LeakageMonteCarlo,
    TimingMonteCarlo,
    VariationModel,
    leakage_statistics,
)


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


@pytest.fixture(scope="module")
def lmc(ctx):
    return LeakageMonteCarlo(ctx)


class TestLeakageMC:
    def test_nominal_matches_golden(self, ctx, lmc):
        assert lmc.nominal_leakage() == pytest.approx(
            ctx.baseline_leakage, rel=1e-9
        )

    def test_heavy_right_tail(self, ctx, lmc):
        """Exponential leakage turns symmetric CD noise into a
        right-skewed chip leakage distribution: mean > median."""
        tmc = TimingMonteCarlo(ctx)
        dl = tmc.sample_dl(VariationModel(sigma_random_nm=2.0, seed=9), 400)
        stats = leakage_statistics(lmc.leakage_samples(dl))
        assert stats["mean_over_median"] > 1.0
        assert stats["p99"] > stats["p95"] > stats["p50"]

    def test_dose_map_shifts_leakage_down(self, ctx, lmc):
        res = optimize_dose_map(ctx, 10.0, mode="qp")
        tmc = TimingMonteCarlo(ctx)
        dl = tmc.sample_dl(VariationModel(seed=10), 100)
        base = lmc.leakage_samples(dl).mean()
        opt = lmc.leakage_samples(dl, dose_map=res.dose_map_poly).mean()
        assert opt < base

    def test_shape_validation(self, lmc):
        with pytest.raises(ValueError, match="gate columns"):
            lmc.leakage_samples(np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_dl_rejected(self, lmc, bad):
        dl = np.zeros((1, lmc.graph.n))
        dl[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lmc.leakage_samples(dl)

    def test_statistics_validation(self):
        with pytest.raises(ValueError, match="no samples"):
            leakage_statistics(np.array([]))

    def test_larger_sigma_larger_mean(self, ctx, lmc):
        """Jensen's inequality on the convex leakage curve: more CD
        variance means more *mean* leakage at the same mean CD."""
        tmc = TimingMonteCarlo(ctx)
        small = tmc.sample_dl(
            VariationModel(sigma_random_nm=0.5, sigma_systematic_nm=0.0,
                           seed=11), 300
        )
        large = tmc.sample_dl(
            VariationModel(sigma_random_nm=3.0, sigma_systematic_nm=0.0,
                           seed=11), 300
        )
        assert (
            lmc.leakage_samples(large).mean()
            > lmc.leakage_samples(small).mean()
        )


class TestReports:
    def test_timing_report(self, ctx):
        text = report_timing(ctx.timing_graph, ctx.baseline, n_paths=2)
        assert "Path 1:" in text and "Path 2:" in text
        assert f"{ctx.baseline.mct:.4f}" in text
        assert "worst slack  : +0.0000" in text

    def test_timing_report_path_sums_to_mct(self, ctx):
        text = report_timing(ctx.timing_graph, ctx.baseline, n_paths=1)
        # last arrival figure of path 1 equals the path delay = MCT
        numbers = [
            float(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("  ") and line.split()[-1].replace(".", "").isdigit()
        ]
        assert numbers[-1] == pytest.approx(ctx.baseline.mct, abs=5e-4)

    def test_power_report(self, ctx):
        text = report_power(ctx.netlist, ctx.library, top_n=5)
        assert "total leakage" in text
        assert f"{ctx.netlist.n_gates} cells" in text
        assert "(others)" in text

    def test_dose_map_report(self, ctx):
        res = optimize_dose_map(ctx, 10.0, mode="qcp")
        art = report_dose_map(res.dose_map_poly)
        assert "Dose map (poly)" in art
        assert "legend" in art
        # one bar line per grid row
        assert sum(1 for l in art.splitlines() if l.startswith("  |")) == (
            res.dose_map_poly.partition.m
        )

"""Tests for the signoff reports: timing paths, leakage power and the
dose map."""

import pytest

from repro.core import DesignContext, optimize_dose_map
from repro.netlist import make_design
from repro.sta import report_dose_map, report_power, report_timing


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


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

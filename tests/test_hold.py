"""Tests for min-delay (hold) analysis."""

import pytest

from repro.library import CellLibrary
from repro.netlist import Netlist, make_design
from repro.placement import Die, Placement, place_design
from repro.sta import VectorTimingAnalyzer, analyze_hold


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


def _place_all(nl, die_w=40.0):
    die = Die(width=die_w, height=9.0, row_height=1.8, site_width=0.2)
    p = Placement(die)
    for i, name in enumerate(nl.gates):
        p.place(name, (i * 2.0) % 38.0, 1.8 * ((i * 2) // 38))
    return p


def _reg_to_reg(n_mid=2):
    """FF -> n_mid INVs -> FF."""
    nl = Netlist("r2r")
    nl.add_primary_input("d0")
    nl.add_gate("ff_a", "DFFX1", ["d0"], "q0")
    prev = "q0"
    for i in range(n_mid):
        nl.add_gate(f"u{i}", "INVX1", [prev], f"n{i}")
        prev = f"n{i}"
    nl.add_gate("ff_b", "DFFX1", [prev], "q1")
    nl.add_gate("po", "BUFX1", ["q1"], "out")
    nl.add_primary_output("out")
    return nl


class TestHoldAnalysis:
    def test_min_le_max_arrival(self, lib65):
        d = make_design("AES-65", scale=0.2)
        pl = place_design(d)
        ta = VectorTimingAnalyzer(d.netlist, d.library, pl)
        max_res = ta.analyze()
        hold = analyze_hold(ta)
        for g in d.netlist.gates:
            assert hold.min_arrival[g] <= max_res.arrival[g] + 1e-12

    def test_short_path_has_less_hold_slack(self, lib65):
        short = _reg_to_reg(1)
        long = _reg_to_reg(6)
        h_short = analyze_hold(
            VectorTimingAnalyzer(short, lib65, _place_all(short))
        )
        h_long = analyze_hold(
            VectorTimingAnalyzer(long, lib65, _place_all(long))
        )
        assert h_short.worst_hold_slack < h_long.worst_hold_slack

    def test_hold_endpoints_are_ff_dpins(self, lib65):
        nl = _reg_to_reg(2)
        hold = analyze_hold(VectorTimingAnalyzer(nl, lib65, _place_all(nl)))
        assert len(hold.hold_slack) == 1  # only ff_b's D pin (ff_a is PI-fed)
        (key,) = hold.hold_slack
        assert key.startswith("FF:ff_b:")

    def test_violation_with_huge_requirement(self, lib65):
        nl = _reg_to_reg(1)
        ta = VectorTimingAnalyzer(nl, lib65, _place_all(nl))
        hold = analyze_hold(ta, hold_ns=10.0)
        assert hold.worst_hold_slack < 0
        assert len(hold.violations) == 1

    def test_no_violation_with_zero_requirement(self, lib65):
        nl = _reg_to_reg(1)
        ta = VectorTimingAnalyzer(nl, lib65, _place_all(nl))
        hold = analyze_hold(ta, hold_ns=0.0)
        assert hold.worst_hold_slack > 0
        assert hold.violations == []

    def test_more_dose_reduces_hold_slack(self, lib65):
        """The paper's Section I point: extra dose (shorter gates) makes
        short paths faster and thus hold-riskier."""
        nl = _reg_to_reg(2)
        ta = VectorTimingAnalyzer(nl, lib65, _place_all(nl))
        nominal = analyze_hold(ta)
        dosed = analyze_hold(
            ta, doses={g: (5.0, 0.0) for g in nl.gates}
        )
        assert dosed.worst_hold_slack < nominal.worst_hold_slack

    def test_dmopt_result_is_hold_safe(self):
        """The QCP dose map must not introduce hold violations on the
        benchmark design (validation step of the flow)."""
        from repro.core import DesignContext, optimize_dose_map
        from repro.netlist import make_design

        ctx = DesignContext(make_design("AES-65", scale=0.25))
        res = optimize_dose_map(ctx, 10.0, mode="qcp")
        doses = ctx.gate_doses(res.dose_map_poly)
        hold = analyze_hold(ctx.analyzer, doses=doses)
        assert hold.worst_hold_slack >= 0, "dose map created a hold violation"

    def test_empty_hold_set(self, lib65):
        """A purely combinational design has no hold endpoints."""
        nl = Netlist("comb")
        nl.add_primary_input("a")
        nl.add_gate("u0", "INVX1", ["a"], "y")
        nl.add_primary_output("y")
        hold = analyze_hold(VectorTimingAnalyzer(nl, lib65, _place_all(nl)))
        assert hold.hold_slack == {}
        assert hold.worst_hold_slack == float("inf")

"""Tests for electrical rule checks."""

import pytest

from repro.core import DesignContext, optimize_dose_map
from repro.library import CellLibrary
from repro.netlist import Netlist, make_design
from repro.placement import Die, Placement
from repro.sta import (
    VectorTimingAnalyzer,
    check_electrical_rules,
    default_limits,
)


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


def _fanout_monster(lib, fanout=40):
    """A weak driver into a huge fanout: guaranteed ERC trouble."""
    nl = Netlist("monster")
    nl.add_primary_input("a")
    nl.add_gate("drv", "INVX1", ["a"], "big")
    for i in range(fanout):
        nl.add_gate(f"ld{i}", "INVX1", ["big"], f"z{i}")
    die = Die(width=60.0, height=18.0, row_height=1.8, site_width=0.2)
    pl = Placement(die)
    pl.place("drv", 0.0, 0.0)
    for i in range(fanout):
        pl.place(f"ld{i}", (i * 1.4) % 58.0, 1.8 * (1 + i // 40))
    return VectorTimingAnalyzer(nl, lib, pl)


class TestERC:
    def test_clean_design(self, ctx):
        erc = check_electrical_rules(ctx.analyzer)
        # the fanout-sized benchmark designs are largely sane; the few
        # violators are drive-limited cells (DFF tops out at X4,
        # XNOR2 at X1)
        assert len(erc.slew_violations) < 0.05 * ctx.netlist.n_gates
        limited = ("DFF", "SDFF", "XNOR2", "NAND4", "NOR4", "FA")
        for gate, _v, _l in erc.slew_violations:
            assert ctx.netlist.gate(gate).master.startswith(limited)
        assert "ERC:" in erc.summary()

    def test_fanout_monster_flagged(self):
        lib = CellLibrary("65nm")
        erc = check_electrical_rules(_fanout_monster(lib))
        assert not erc.clean
        assert erc.cap_violations
        assert erc.cap_violations[0][0] == "drv"

    def test_violations_sorted_worst_first(self):
        lib = CellLibrary("65nm")
        erc = check_electrical_rules(_fanout_monster(lib), max_slew_ns=0.01)
        vals = [v for _g, v, _l in erc.slew_violations]
        assert vals == sorted(vals, reverse=True)

    def test_explicit_limits(self, ctx):
        strict = check_electrical_rules(
            ctx.analyzer, max_slew_ns=1e-6, max_cap_ff=1e-6
        )
        # every gate has positive output slew; cap violations exclude
        # gates driving dangling (zero-load) nets
        assert len(strict.slew_violations) == ctx.netlist.n_gates
        assert len(strict.cap_violations) >= 0.8 * ctx.netlist.n_gates

    def test_default_limits_from_library(self):
        lib = CellLibrary("65nm")
        slew, cap = default_limits(lib)
        assert slew == pytest.approx(0.512)
        assert cap is None

    def test_negative_dose_worsens_transitions(self, ctx):
        """Leakage-recovery doses slow transitions: the ERC interaction
        the module docstring warns about."""
        base = check_electrical_rules(ctx.analyzer, max_slew_ns=0.25)
        slow = check_electrical_rules(
            ctx.analyzer,
            doses={g: (-5.0, 0.0) for g in ctx.netlist.gates},
            max_slew_ns=0.25,
        )
        assert len(slow.slew_violations) >= len(base.slew_violations)

    def test_dmopt_result_is_erc_clean(self, ctx):
        """The QP dose map must not create transition violations against
        the characterization-window limit."""
        res = optimize_dose_map(ctx, 10.0, mode="qp")
        erc = check_electrical_rules(
            ctx.analyzer, doses=ctx.gate_doses(res.dose_map_poly)
        )
        base = check_electrical_rules(ctx.analyzer)
        assert len(erc.slew_violations) <= len(base.slew_violations) + 2

"""Tests for the interchange formats (Verilog / DEF)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.io import (
    DefError,
    VerilogError,
    parse_def,
    parse_verilog,
    roundtrip_equal,
    write_def,
    write_verilog,
)
from repro.library import CellLibrary
from repro.netlist import Netlist, generate_aes_like, make_design, resize_for_fanout
from repro.placement import place_design


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


@pytest.fixture(scope="module")
def small_design():
    return make_design("AES-65", scale=0.2)


class TestVerilog:
    def test_roundtrip_tiny(self, lib65):
        nl = Netlist("tiny")
        nl.add_primary_input("a")
        nl.add_primary_input("b")
        nl.add_gate("u1", "NAND2X1", ["a", "b"], "n1")
        nl.add_gate("ff1", "DFFX1", ["n1"], "q")
        nl.add_gate("u2", "INVX2", ["q"], "y")
        nl.add_primary_output("y")
        text = write_verilog(nl, lib65)
        parsed = parse_verilog(text, lib65)
        assert roundtrip_equal(nl, parsed)

    def test_roundtrip_full_design(self, lib65, small_design):
        text = write_verilog(small_design.netlist, small_design.library)
        parsed = parse_verilog(text, small_design.library)
        assert roundtrip_equal(small_design.netlist, parsed)

    def test_written_text_shape(self, lib65):
        nl = Netlist("t")
        nl.add_primary_input("a")
        nl.add_gate("u1", "INVX1", ["a"], "y")
        nl.add_primary_output("y")
        text = write_verilog(nl, lib65)
        assert "module t (a, y);" in text
        assert "INVX1 u1 ( .A(a), .Y(y) );" in text
        assert text.rstrip().endswith("endmodule")

    def test_comments_stripped(self, lib65):
        text = (
            "// header\nmodule m (a, y);\n input a;\n output y;\n"
            "/* block\ncomment */ INVX1 u1 ( .A(a), .Y(y) );\nendmodule\n"
        )
        parsed = parse_verilog(text, lib65)
        assert parsed.n_gates == 1

    def test_behavioral_rejected(self, lib65):
        text = "module m (y);\n output y;\n assign y = 1'b0;\nendmodule"
        with pytest.raises(VerilogError, match="behavioral"):
            parse_verilog(text, lib65)

    def test_unknown_master_rejected(self, lib65):
        text = (
            "module m (a, y);\n input a;\n output y;\n"
            " MAGICX9 u1 ( .A(a), .Y(y) );\nendmodule"
        )
        with pytest.raises(VerilogError, match="unknown cell master"):
            parse_verilog(text, lib65)

    def test_missing_pin_rejected(self, lib65):
        text = (
            "module m (a, y);\n input a;\n output y;\n"
            " NAND2X1 u1 ( .A(a), .Y(y) );\nendmodule"
        )
        with pytest.raises(VerilogError, match="missing input pin"):
            parse_verilog(text, lib65)

    def test_no_module_rejected(self, lib65):
        with pytest.raises(VerilogError, match="no module"):
            parse_verilog("wire x;", lib65)

    @settings(deadline=None, max_examples=5)
    @given(st.integers(min_value=1, max_value=500))
    def test_roundtrip_random_designs(self, seed):
        lib = CellLibrary("65nm")
        nl = generate_aes_like(n_lanes=3, n_rounds=1, sbox_depth=3,
                               sbox_width=4, seed=seed)
        nl = resize_for_fanout(nl, lib)
        parsed = parse_verilog(write_verilog(nl, lib), lib)
        assert roundtrip_equal(nl, parsed)


class TestDef:
    def test_roundtrip(self, small_design):
        pl = place_design(small_design)
        text = write_def(small_design.netlist, pl)
        parsed = parse_def(text, small_design.netlist)
        assert len(parsed) == len(pl)
        for name, (x, y) in pl.items():
            px, py = parsed.location(name)
            assert abs(px - x) < 1e-3 and abs(py - y) < 1e-3
        assert parsed.die.width == pytest.approx(pl.die.width, abs=1e-3)

    def test_master_mismatch_detected(self, small_design):
        pl = place_design(small_design)
        text = write_def(small_design.netlist, pl)
        gate0 = next(iter(small_design.netlist.gates.values()))
        bad = text.replace(f"- {gate0.name} {gate0.master}",
                           f"- {gate0.name} INVX8", 1)
        if gate0.master == "INVX8":  # make sure we actually changed it
            bad = text.replace(f"- {gate0.name} {gate0.master}",
                               f"- {gate0.name} INVX1", 1)
        with pytest.raises(DefError, match="master"):
            parse_def(bad, small_design.netlist)

    def test_unknown_component_detected(self, small_design):
        pl = place_design(small_design)
        text = write_def(small_design.netlist, pl)
        bad = text.replace("END COMPONENTS",
                           "  - ghost INVX1 + PLACED ( 0 0 ) ;\nEND COMPONENTS")
        with pytest.raises(DefError, match="not in netlist"):
            parse_def(bad, small_design.netlist)

    def test_missing_header(self):
        with pytest.raises(DefError, match="missing"):
            parse_def("COMPONENTS 0 ;\nEND COMPONENTS")

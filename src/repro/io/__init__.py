"""Interchange formats: structural Verilog and DEF-like placement."""

from repro.io.defio import DefError, parse_def, write_def
from repro.io.verilog import (
    VerilogError,
    parse_verilog,
    roundtrip_equal,
    write_verilog,
)

__all__ = [
    "write_verilog",
    "parse_verilog",
    "roundtrip_equal",
    "VerilogError",
    "write_def",
    "parse_def",
    "DefError",
]

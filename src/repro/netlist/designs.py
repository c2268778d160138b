"""Named benchmark designs mirroring the paper's Table I testcases.

The paper uses four industrial designs; we generate synthetic analogues
(see :mod:`repro.netlist.generators` and DESIGN.md for the substitution
rationale) at roughly 1/7 scale so the full benchmark suite runs in
minutes.  Chip area is derived from each node's *cells-per-grid density*
in the paper (about 6.3 cells per 5x5 um^2 grid at 65 nm and 2.2 at
90 nm), because Section V identifies that density -- not raw cell count --
as the first-order control on achievable optimization quality.

Use :func:`make_design` to get a :class:`DesignBundle` with the sized
netlist, its library, and the die outline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.library import CellLibrary
from repro.netlist.generators import (
    generate_aes_like,
    generate_jpeg_like,
    resize_for_fanout,
)
from repro.netlist.netlist import Netlist

#: Cell density (cells per um^2) per node, from paper Table I:
#: 65 nm ~ 16187/58000 ~ 0.28; 90 nm ~ 21944/250000 ~ 0.088.
CELL_DENSITY = {"65nm": 0.27, "90nm": 0.088}


@dataclass
class DesignBundle:
    """A generated testcase: netlist + library + die outline (um)."""

    name: str
    netlist: Netlist
    library: CellLibrary
    die_width: float
    die_height: float

    @property
    def node_name(self) -> str:
        return self.library.node.name

    @property
    def die_area(self) -> float:
        return self.die_width * self.die_height

    def __repr__(self):
        return (
            f"DesignBundle({self.name!r}, {self.netlist.n_gates} gates, "
            f"die {self.die_width:.0f}x{self.die_height:.0f} um)"
        )


def _die_for(netlist: Netlist, library: CellLibrary) -> tuple:
    """Square-ish die sized for the node's paper-matching cell density,
    with the height snapped to an integer number of placement rows."""
    density = CELL_DENSITY[library.node.name]
    side = math.sqrt(netlist.n_gates / density)
    row_h = library.node.row_height
    n_rows = max(2, int(round(side / row_h)))
    height = n_rows * row_h
    width = netlist.n_gates / density / height
    return width, height


_SPECS = {
    # name: (generator, node, kwargs)
    "AES-65": (
        generate_aes_like,
        "65nm",
        dict(n_lanes=12, n_rounds=2, sbox_depth=9, sbox_width=8,
             depth_jitter=0.0, seed=65001),
    ),
    "JPEG-65": (
        generate_jpeg_like,
        "65nm",
        dict(n_channels=16, min_width=6, max_width=16, quant_depth=8,
             quant_width=7, n_stages=4, depth_jitter=0.20, seed=65002),
    ),
    "AES-90": (
        generate_aes_like,
        "90nm",
        dict(n_lanes=10, n_rounds=2, sbox_depth=8, sbox_width=8,
             depth_jitter=0.35, seed=90001),
    ),
    "JPEG-90": (
        generate_jpeg_like,
        "90nm",
        dict(n_channels=14, min_width=5, max_width=14, quant_depth=7,
             quant_width=6, n_stages=4, depth_jitter=0.45, seed=90002),
    ),
}


def design_names():
    """The four paper testcase names."""
    return list(_SPECS)


def _spec(name: str) -> tuple:
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown design {name!r}; available: {design_names()}"
        ) from None


def design_node(name: str) -> str:
    """Technology node of a testcase (e.g. ``"65nm"``), without building it."""
    return _spec(name)[1]


def make_design(name: str, scale: float = 1.0) -> DesignBundle:
    """Generate a named testcase.

    Parameters
    ----------
    name:
        One of ``AES-65``, ``JPEG-65``, ``AES-90``, ``JPEG-90``.
    scale:
        Structural scale factor (>1 grows lane/channel counts toward the
        paper's full-size instances; the default keeps the suite fast).
        Must be finite and > 0; small scales clamp at two lanes/channels.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    generator, node_name, kwargs = _spec(name)
    kwargs = dict(kwargs)
    if scale != 1.0:
        for key in ("n_lanes", "n_channels"):
            if key in kwargs:
                kwargs[key] = max(2, int(round(kwargs[key] * scale)))
    library = CellLibrary(node_name)
    netlist = generator(name=name, node_name=node_name, **kwargs)
    netlist = resize_for_fanout(netlist, library)
    netlist.validate(library)
    die_w, die_h = _die_for(netlist, library)
    return DesignBundle(
        name=name,
        netlist=netlist,
        library=library,
        die_width=die_w,
        die_height=die_h,
    )

"""Electrical rule checks (ERC): max-transition and max-capacitance.

Signoff flows gate timing results on electrical sanity: a cell driving
far beyond its characterized load window produces garbage delays, and
slow transitions burn short-circuit power and amplify noise.  Dose maps
interact with this: *reducing* dose lengthens gates and slows their
output transitions, so a leakage-recovery map can push marginal nets over
the transition limit -- worth checking after DMopt, exactly like timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sta.hold import gate_variants


@dataclass
class ErcResult:
    """Violations found by :func:`check_electrical_rules`.

    Each violation is (gate name, value, limit).
    """

    max_slew_ns: float
    max_cap_ff: float
    slew_violations: list = field(default_factory=list)
    cap_violations: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.slew_violations and not self.cap_violations

    def summary(self) -> str:
        return (
            f"ERC: {len(self.slew_violations)} max-transition and "
            f"{len(self.cap_violations)} max-capacitance violations "
            f"(limits {self.max_slew_ns} ns / {self.max_cap_ff} fF)"
        )


def default_limits(library) -> tuple:
    """Characterization-window limits: the table axes' outer corners.

    A cell operating beyond its characterized slew/load window is
    extrapolating -- the classic signoff max_transition / max_cap source.
    """
    inv = library.nominal("INVX1")
    return float(inv.delay.slew_axis[-1]), None  # cap limit is per-cell


def check_electrical_rules(
    analyzer,
    doses=None,
    max_slew_ns: float = None,
    max_cap_ff: float = None,
) -> ErcResult:
    """Check every cell's output transition and load against limits.

    Parameters
    ----------
    analyzer:
        A :class:`~repro.sta.compiled.VectorTimingAnalyzer`.
    doses:
        Optional dose assignment (slower gates under negative dose).
    max_slew_ns:
        Global transition limit; default: the library's characterized
        slew-axis maximum.
    max_cap_ff:
        Global load limit; default: per-cell, the cell's characterized
        load-axis maximum.
    """
    lib = analyzer.library
    if max_slew_ns is None:
        max_slew_ns, _ = default_limits(lib)
    result = analyzer.analyze(doses=doses)
    loads = result.load
    index = analyzer.graph.index
    variants = gate_variants(lib, analyzer.graph, doses)

    erc = ErcResult(max_slew_ns=max_slew_ns, max_cap_ff=max_cap_ff or -1.0)
    for name in analyzer.netlist.gates:
        cc = variants[index[name]]
        slew = cc.slew_at(result.input_slew[name], loads[name])
        if slew > max_slew_ns:
            erc.slew_violations.append((name, float(slew), max_slew_ns))
        limit = (
            max_cap_ff
            if max_cap_ff is not None
            else float(cc.delay.load_axis[-1])
        )
        if loads[name] > limit:
            erc.cap_violations.append((name, float(loads[name]), limit))
    erc.slew_violations.sort(key=lambda v: -v[1])
    erc.cap_violations.sort(key=lambda v: -v[1])
    return erc

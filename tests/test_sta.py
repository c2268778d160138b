"""Unit tests for the STA engine and path enumeration."""

import pytest

from repro.library import CellLibrary
from repro.netlist import Netlist, make_design
from repro.placement import Die, Placement, place_design
from repro.sta import (
    VectorTimingAnalyzer,
    criticality_histogram,
    net_wire_cap,
    top_k_paths,
)


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


def _die(w=40.0, h=9.0):
    return Die(width=w, height=h, row_height=1.8, site_width=0.2)


def _place_all(nl, spacing=2.0):
    p = Placement(_die())
    for i, name in enumerate(nl.gates):
        p.place(name, (i * spacing) % 38.0, 1.8 * ((i * 2) // 38))
    return p


def _chain(n=5, master="INVX1"):
    nl = Netlist("chain")
    nl.add_primary_input("in")
    prev = "in"
    for i in range(n):
        nl.add_gate(f"u{i}", master, [prev], f"n{i}")
        prev = f"n{i}"
    nl.add_primary_output(prev)
    return nl


@pytest.fixture(scope="module")
def aes():
    d = make_design("AES-65")
    pl = place_design(d)
    ta = VectorTimingAnalyzer(d.netlist, d.library, pl)
    return d, pl, ta, ta.analyze()


class TestForwardPass:
    def test_chain_arrival_monotone(self, lib65):
        nl = _chain(5)
        res = VectorTimingAnalyzer(nl, lib65, _place_all(nl)).analyze()
        arr = [res.arrival[f"u{i}"] for i in range(5)]
        assert all(b > a for a, b in zip(arr, arr[1:]))

    def test_mct_is_max_endpoint(self, lib65):
        nl = _chain(5)
        res = VectorTimingAnalyzer(nl, lib65, _place_all(nl)).analyze()
        assert res.mct == pytest.approx(max(res.endpoint_arrival.values()))
        assert res.mct == pytest.approx(res.arrival["u4"])

    def test_longer_chain_longer_mct(self, lib65):
        short = _chain(3)
        long = _chain(9)
        mct_s = VectorTimingAnalyzer(
            short, lib65, _place_all(short)
        ).analyze().mct
        mct_l = VectorTimingAnalyzer(
            long, lib65, _place_all(long)
        ).analyze().mct
        assert mct_l > 2 * mct_s

    def test_ff_starts_and_ends_paths(self, lib65):
        nl = Netlist("seq")
        nl.add_primary_input("in")
        nl.add_gate("u0", "INVX1", ["in"], "d")
        nl.add_gate("ff", "DFFX1", ["d"], "q")
        nl.add_gate("u1", "INVX1", ["q"], "out")
        nl.add_primary_output("out")
        res = VectorTimingAnalyzer(nl, lib65, _place_all(nl)).analyze()
        # FF D endpoint includes setup; FF output launches at clk->q
        assert any(k.startswith("FF:ff") for k in res.endpoint_arrival)
        assert res.arrival["ff"] > 0  # clk->q
        # the input cone does not accumulate into the output cone
        assert res.arrival["u1"] < res.arrival["u0"] + res.arrival["ff"] + 1.0

    def test_dose_speeds_up_timing(self, lib65):
        nl = _chain(6)
        pl = _place_all(nl)
        ta = VectorTimingAnalyzer(nl, lib65, pl)
        base = ta.analyze().mct
        fast = ta.analyze(doses={f"u{i}": (5.0, 0.0) for i in range(6)}).mct
        slow = ta.analyze(doses={f"u{i}": (-5.0, 0.0) for i in range(6)}).mct
        assert fast < base < slow

    def test_partial_dose_map(self, lib65):
        """Gates missing from the dose dict stay at nominal."""
        nl = _chain(6)
        pl = _place_all(nl)
        ta = VectorTimingAnalyzer(nl, lib65, pl)
        base = ta.analyze().mct
        partial = ta.analyze(doses={"u0": (5.0, 0.0)}).mct
        full = ta.analyze(doses={f"u{i}": (5.0, 0.0) for i in range(6)}).mct
        assert full < partial < base


class TestSlack:
    def test_worst_slack_zero_at_mct(self, aes):
        _d, _pl, _ta, res = aes
        assert res.worst_slack == pytest.approx(0.0, abs=1e-9)

    def test_slack_with_relaxed_clock(self, lib65):
        nl = _chain(4)
        pl = _place_all(nl)
        ta = VectorTimingAnalyzer(nl, lib65, pl)
        mct = ta.analyze().mct
        res = ta.analyze(clock_period=mct + 1.0)
        assert res.worst_slack == pytest.approx(1.0, abs=1e-9)

    def test_critical_gates_on_critical_path(self, aes):
        _d, _pl, _ta, res = aes
        crit = res.critical_gates(1e-9)
        assert len(crit) >= 2
        assert all(res.slack[g] <= 1e-9 for g in crit)

    def test_all_slacks_nonnegative_at_mct(self, aes):
        _d, _pl, _ta, res = aes
        assert min(res.slack.values()) >= -1e-9


class TestWireModel:
    def test_wire_cap_scales_with_distance(self, lib65):
        nl = _chain(2)
        near = Placement(_die())
        near.place("u0", 0.0, 0.0)
        near.place("u1", 1.0, 0.0)
        far = Placement(_die())
        far.place("u0", 0.0, 0.0)
        far.place("u1", 30.0, 0.0)
        c_near = net_wire_cap(nl, near, "n0", lib65.node)
        c_far = net_wire_cap(nl, far, "n0", lib65.node)
        assert c_far > 10 * c_near

    def test_far_placement_slower(self, lib65):
        nl = _chain(4)
        near = Placement(_die())
        far = Placement(_die())
        for i in range(4):
            near.place(f"u{i}", float(i), 0.0)
            far.place(f"u{i}", (i % 2) * 38.0, 1.8 * (i % 5))
        mct_near = VectorTimingAnalyzer(nl, lib65, near).analyze().mct
        mct_far = VectorTimingAnalyzer(nl, lib65, far).analyze().mct
        assert mct_far > mct_near


class TestPaths:
    def test_top1_matches_mct(self, aes):
        d, _pl, ta, res = aes
        paths = top_k_paths(ta.graph, res, 1)
        assert len(paths) == 1
        assert paths[0].delay == pytest.approx(res.mct, rel=1e-9)

    def test_paths_sorted_nonincreasing(self, aes):
        d, _pl, ta, res = aes
        paths = top_k_paths(ta.graph, res, 50)
        delays = [p.delay for p in paths]
        assert delays == sorted(delays, reverse=True)
        assert len(paths) == 50

    def test_paths_are_connected(self, aes):
        d, _pl, ta, res = aes
        for p in top_k_paths(ta.graph, res, 5):
            for a, b in zip(p.gates, p.gates[1:]):
                assert b in d.netlist.fanout_gates(a)

    def test_path_delay_consistent_with_dag(self, lib65):
        nl = _chain(5)
        ta = VectorTimingAnalyzer(nl, lib65, _place_all(nl))
        paths = top_k_paths(ta.graph, ta.analyze(), 3)
        assert len(paths) == 1  # a chain has exactly one path
        assert paths[0].gates == tuple(f"u{i}" for i in range(5))
        assert paths[0].endpoint.startswith("PO:")

    def test_k_validation(self, lib65):
        nl = _chain(3)
        ta = VectorTimingAnalyzer(nl, lib65, _place_all(nl))
        with pytest.raises(ValueError, match="positive"):
            top_k_paths(ta.graph, ta.analyze(), 0)

    def test_histogram(self):
        class P:
            def __init__(self, d):
                self.delay = d

        paths = [P(1.0), P(0.96), P(0.92), P(0.5)]
        hist = criticality_histogram(paths, 1.0)
        assert hist[0.95] == pytest.approx(50.0)
        assert hist[0.90] == pytest.approx(75.0)
        assert hist[0.80] == pytest.approx(75.0)

    def test_histogram_empty(self):
        assert criticality_histogram([], 1.0) == {0.95: 0.0, 0.90: 0.0, 0.80: 0.0}


class TestPowerAnalysis:
    def test_total_matches_sum(self, aes):
        from repro.power import gate_leakage, leakage_by_master, total_leakage

        d, _pl, _ta, _res = aes
        tot = total_leakage(d.netlist, d.library)
        by_master = leakage_by_master(d.netlist, d.library)
        assert tot == pytest.approx(sum(by_master.values()))
        one = gate_leakage(d.netlist, d.library, next(iter(d.netlist.gates)))
        assert one > 0

    def test_dose_increases_leakage(self, aes):
        from repro.power import total_leakage

        d, _pl, _ta, _res = aes
        base = total_leakage(d.netlist, d.library)
        doses = {g: (3.0, 0.0) for g in d.netlist.gates}
        assert total_leakage(d.netlist, d.library, doses) > base

"""Unit tests for the placement substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.library import CellLibrary
from repro.netlist import Netlist, make_design
from repro.placement import (
    Die,
    LegalizationError,
    Placement,
    has_overlaps,
    incident_hpwl,
    incident_nets,
    legalize,
    max_displacement,
    net_hpwl,
    place_design,
    serpentine_placement,
    total_hpwl,
)


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


@pytest.fixture(scope="module")
def placed_aes():
    d = make_design("AES-65")
    return d, place_design(d)


def _die():
    return Die(width=20.0, height=9.0, row_height=1.8, site_width=0.2)


def _chain_netlist(n=4):
    nl = Netlist("chain")
    nl.add_primary_input("in")
    prev = "in"
    for i in range(n):
        nl.add_gate(f"u{i}", "INVX1", [prev], f"n{i}")
        prev = f"n{i}"
    nl.add_primary_output(prev)
    return nl


class TestDie:
    def test_rows_and_sites(self):
        die = _die()
        assert die.n_rows == 5
        assert die.n_sites == 100

    def test_row_of_clamps(self):
        die = _die()
        assert die.row_of(-1.0) == 0
        assert die.row_of(100.0) == die.n_rows - 1
        assert die.row_of(1.9) == 1

    def test_invalid_die(self):
        with pytest.raises(ValueError):
            Die(width=-1, height=9, row_height=1.8, site_width=0.2)


class TestPlacement:
    def test_place_and_lookup(self):
        p = Placement(_die())
        p.place("u0", 1.0, 1.8)
        assert p.location("u0") == (1.0, 1.8)
        assert "u0" in p
        assert len(p) == 1

    def test_out_of_die_rejected(self):
        p = Placement(_die())
        with pytest.raises(ValueError, match="outside die"):
            p.place("u0", 25.0, 0.0)

    def test_unplaced_lookup_raises(self):
        p = Placement(_die())
        with pytest.raises(KeyError, match="not placed"):
            p.location("ghost")

    def test_swap(self):
        p = Placement(_die())
        p.place("a", 1.0, 0.0)
        p.place("b", 5.0, 1.8)
        p.swap("a", "b")
        assert p.location("a") == (5.0, 1.8)
        assert p.location("b") == (1.0, 0.0)

    def test_distance_manhattan(self):
        p = Placement(_die())
        p.place("a", 1.0, 0.0)
        p.place("b", 4.0, 1.8)
        assert p.distance("a", "b") == pytest.approx(3.0 + 1.8)

    def test_copy_is_independent(self):
        p = Placement(_die())
        p.place("a", 1.0, 0.0)
        q = p.copy()
        q.place("a", 2.0, 0.0)
        assert p.location("a") == (1.0, 0.0)

    def test_cells_in_region(self):
        p = Placement(_die())
        p.place("a", 1.0, 0.0)
        p.place("b", 10.0, 3.6)
        assert p.cells_in_region(0, 0, 5, 2) == ["a"]
        assert set(p.cells_in_region(0, 0, 20, 9)) == {"a", "b"}

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["place", "swap", "copy", "query"]),
                st.integers(0, 7),
                st.integers(0, 7),
                st.sampled_from([0.0, 2.5, 5.0, 10.0, 20.0]),
                st.sampled_from([0.0, 1.8, 3.6, 9.0]),
            ),
            max_size=40,
        ),
        box=st.tuples(
            st.sampled_from([0.0, 2.5, 5.0, 7.5, 10.0, 20.0]),
            st.sampled_from([0.0, 1.8, 3.6, 5.4, 9.0]),
            st.sampled_from([0.0, 2.5, 5.0, 7.5, 10.0, 20.0]),
            st.sampled_from([0.0, 1.8, 3.6, 5.4, 9.0]),
        ),
    )
    def test_cells_in_region_matches_scan(self, ops, box):
        """The coordinate index, kept in place across moves and swaps
        and rebuilt after a new cell, answers exactly the scan over
        every placed cell, points on the box edges included."""
        def scan(p, x0, y0, x1, y1):
            return [
                name for name, (x, y) in p.items()
                if x0 <= x <= x1 and y0 <= y <= y1
            ]

        p = Placement(_die())
        others = []
        for op, a, b, x, y in ops:
            if op == "place":
                p.place(f"g{a}", x, y)
            elif op == "swap" and len(p):
                placed = [name for name, _loc in p.items()]
                p.swap(placed[a % len(placed)], placed[b % len(placed)])
            elif op == "copy":
                others.append(p)
                p = p.copy()
            assert p.cells_in_region(*box) == scan(p, *box)
        for q in others:
            assert q.cells_in_region(*box) == scan(q, *box)

    def test_neighborhood_bbox(self):
        nl = _chain_netlist(3)
        p = Placement(_die())
        p.place("u0", 1.0, 0.0)
        p.place("u1", 5.0, 1.8)
        p.place("u2", 3.0, 3.6)
        box = p.neighborhood_bbox("u1", nl)
        assert box == (1.0, 0.0, 5.0, 3.6)
        assert p.in_box("u2", box)

    def test_gate_pitch(self, placed_aes):
        d, pl = placed_aes
        pitch = pl.gate_pitch()
        assert 0.5 < pitch < 5.0

    def test_gate_pitch_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Placement(_die()).gate_pitch()


class TestHPWL:
    def test_two_point_net(self):
        nl = _chain_netlist(2)
        p = Placement(_die())
        p.place("u0", 1.0, 0.0)
        p.place("u1", 4.0, 3.6)
        assert net_hpwl(nl, p, "n0") == pytest.approx(3.0 + 3.6)

    def test_single_endpoint_net_is_zero(self):
        nl = _chain_netlist(2)
        p = Placement(_die())
        p.place("u0", 1.0, 0.0)
        # "in" net: driver is a PI (unplaced), only one placed sink
        assert net_hpwl(nl, p, "in") == 0.0

    def test_incident_nets_dedup(self, lib65):
        nl = Netlist("dup")
        nl.add_primary_input("a")
        nl.add_gate("g", "NAND2X1", ["a", "a"], "y")
        assert incident_nets(nl, "g") == ["a", "y"]

    def test_incident_hpwl_sums_nets(self):
        nl = _chain_netlist(3)
        p = Placement(_die())
        p.place("u0", 0.0, 0.0)
        p.place("u1", 2.0, 0.0)
        p.place("u2", 6.0, 0.0)
        assert incident_hpwl(nl, p, "u1") == pytest.approx(2.0 + 4.0)

    def test_total_hpwl_nonnegative(self, placed_aes):
        d, pl = placed_aes
        assert total_hpwl(d.netlist, pl) > 0


class TestLegalize:
    def test_removes_overlaps(self, lib65):
        nl = Netlist("ov")
        nl.add_primary_input("a")
        prev = "a"
        for i in range(5):
            nl.add_gate(f"u{i}", "INVX1", [prev], f"n{i}")
            prev = f"n{i}"
        p = Placement(_die())
        for i in range(5):
            p.place(f"u{i}", 1.0, 0.0)  # all stacked on one spot
        legal = legalize(p, nl, lib65)
        assert not has_overlaps(legal, nl, lib65)
        assert len(legal) == 5

    def test_row_overflow_raises(self, lib65):
        nl = Netlist("of")
        nl.add_primary_input("a")
        die = Die(width=1.0, height=1.8, row_height=1.8, site_width=0.2)
        p = Placement(die)
        prev = "a"
        for i in range(20):  # 20 INVX1 of 0.2 um in a 1 um row
            nl.add_gate(f"u{i}", "INVX1", [prev], f"n{i}")
            prev = f"n{i}"
            p.place(f"u{i}", 0.5, 0.0)
        with pytest.raises(LegalizationError):
            legalize(p, nl, lib65)

    def test_already_legal_is_stable(self, lib65):
        nl = _chain_netlist(3)
        p = Placement(_die())
        p.place("u0", 0.0, 0.0)
        p.place("u1", 2.0, 0.0)
        p.place("u2", 4.0, 1.8)
        legal = legalize(p, nl, lib65)
        assert max_displacement(p, legal) < 0.11  # only site snapping

    def test_legalized_on_sites_and_rows(self, lib65, placed_aes):
        d, pl = placed_aes
        die = pl.die
        for name, (x, y) in pl.items():
            assert abs(y / die.row_height - round(y / die.row_height)) < 1e-9
            assert abs(x / die.site_width - round(x / die.site_width)) < 1e-6


class TestPlacer:
    def test_full_design_placement_legal(self, placed_aes):
        d, pl = placed_aes
        assert len(pl) == d.netlist.n_gates
        assert not has_overlaps(pl, d.netlist, d.library)

    def test_placement_deterministic(self):
        d = make_design("AES-90")
        p1 = place_design(d)
        p2 = place_design(d)
        assert dict(p1.items()) == dict(p2.items())

    def test_placement_has_locality(self, placed_aes):
        """Connected cells should be much closer than random pairs."""
        d, pl = placed_aes
        import numpy as np

        rng = np.random.default_rng(0)
        names = list(d.netlist.gates)
        connected, random_pairs = [], []
        for name in names[:: max(1, len(names) // 300)]:
            for succ in d.netlist.fanout_gates(name)[:2]:
                connected.append(pl.distance(name, succ))
            other = names[int(rng.integers(len(names)))]
            if other != name:
                random_pairs.append(pl.distance(name, other))
        assert np.mean(connected) < 0.5 * np.mean(random_pairs)

    def test_bad_utilization_rejected(self, lib65):
        nl = _chain_netlist(3)
        with pytest.raises(ValueError, match="utilization"):
            serpentine_placement(nl, lib65, _die(), utilization=0.0)

    @settings(deadline=None, max_examples=5)
    @given(st.integers(min_value=0, max_value=1000))
    def test_placer_always_legal(self, seed):
        lib = CellLibrary("65nm")
        nl = _chain_netlist(40)
        die = Die(width=15.0, height=9.0, row_height=1.8, site_width=0.2)
        pl = serpentine_placement(nl, lib, die, seed=seed)
        assert not has_overlaps(pl, nl, lib)
        assert len(pl) == 40

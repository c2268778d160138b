"""Tests for the global router and its STA integration."""

import numpy as np
import pytest

from repro.netlist import Netlist, make_design
from repro.placement import Die, Placement, net_hpwl, place_design
from repro.route import GlobalRouter, RoutingGrid
from repro.route.router import _l_paths
from repro.sta import VectorTimingAnalyzer


@pytest.fixture(scope="module")
def routed_design():
    d = make_design("AES-65", scale=0.25)
    pl = place_design(d)
    router = GlobalRouter(d.netlist, pl, gcell=5.0, capacity=40)
    return d, pl, router.route()


class TestRoutingGrid:
    def test_dimensions(self):
        g = RoutingGrid(width=50.0, height=30.0, gcell=10.0)
        assert (g.m, g.n) == (3, 5)

    def test_gcell_of_clamps(self):
        g = RoutingGrid(width=50.0, height=30.0, gcell=10.0)
        assert g.gcell_of(0.0, 0.0) == (0, 0)
        assert g.gcell_of(49.9, 29.9) == (2, 4)
        assert g.gcell_of(100.0, 100.0) == (2, 4)

    def test_path_usage_accounting(self):
        g = RoutingGrid(width=30.0, height=30.0, gcell=10.0)
        path = [(0, 0), (0, 1), (1, 1)]
        g.add_path(path)
        assert g.edge_usage("h", 0, 0) == 1
        assert g.edge_usage("v", 0, 1) == 1
        g.add_path(path, delta=-1)
        assert g.overflow() == 0
        assert g.h_usage.sum() == 0 and g.v_usage.sum() == 0

    def test_overflow_counts_excess(self):
        g = RoutingGrid(width=30.0, height=10.0, gcell=10.0, capacity=2)
        path = [(0, 0), (0, 1)]
        for _ in range(5):
            g.add_path(path)
        assert g.overflow() == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RoutingGrid(width=-1.0, height=10.0, gcell=5.0)
        with pytest.raises(ValueError):
            RoutingGrid(width=10.0, height=10.0, gcell=5.0, capacity=0)


class TestLPaths:
    def test_both_ls_connect(self):
        a, b = _l_paths((0, 0), (2, 3))
        for path in (a, b):
            assert path[0] == (0, 0) and path[-1] == (2, 3)
            for (i1, j1), (i2, j2) in zip(path, path[1:]):
                assert abs(i1 - i2) + abs(j1 - j2) == 1

    def test_degenerate_same_cell(self):
        a, b = _l_paths((1, 1), (1, 1))
        assert a == [(1, 1)] and b == [(1, 1)]

    def test_straight_line(self):
        a, b = _l_paths((0, 0), (0, 3))
        assert a == b == [(0, 0), (0, 1), (0, 2), (0, 3)]


class TestRouter:
    def test_full_design_routes(self, routed_design):
        d, pl, result = routed_design
        assert result.total_wirelength > 0
        assert set(result.net_lengths) == set(d.netlist.nets)

    def test_routed_length_lower_bounded_by_distance(self, routed_design):
        """Each connection is at least the gcell Manhattan distance."""
        d, pl, result = routed_design
        grid = result.grid
        checked = 0
        for net_name, net in d.netlist.nets.items():
            if net.driver is None or not net.sinks:
                continue
            src = grid.gcell_of(*pl.location(net.driver))
            for sink, _pin in net.sinks[:1]:
                dst = grid.gcell_of(*pl.location(sink))
                min_len = (abs(src[0] - dst[0]) + abs(src[1] - dst[1])) * grid.gcell
                assert result.net_lengths[net_name] >= min_len - 1e-9
                checked += 1
            if checked > 50:
                break

    def test_reroute_reduces_overflow(self):
        """A congested-but-routable design must end with much less
        overflow after rip-up-and-reroute than after L-routing only.
        (With capacity far below aggregate demand, detours can only
        inflate total usage -- the test capacity is chosen above the
        mean-demand floor, like a real metal stack.)"""
        d = make_design("AES-65", scale=0.25)
        pl = place_design(d)
        initial = GlobalRouter(d.netlist, pl, gcell=5.0, capacity=40).route(
            max_reroute_rounds=0
        )
        final = GlobalRouter(d.netlist, pl, gcell=5.0, capacity=40).route(
            max_reroute_rounds=4
        )
        assert final.overflow < 0.2 * initial.overflow
        assert final.rerouted > 0

    def test_congestion_map_shape(self, routed_design):
        _d, _pl, result = routed_design
        cmap = result.grid.congestion_map()
        assert cmap.shape == (result.grid.m, result.grid.n)
        assert np.all(cmap >= 0)

    def test_dijkstra_matches_l_when_uncongested(self):
        nl = Netlist("two")
        nl.add_primary_input("a")
        nl.add_gate("u1", "INVX1", ["a"], "n1")
        nl.add_gate("u2", "INVX1", ["n1"], "y")
        nl.add_primary_output("y")
        die = Die(width=30.0, height=9.0, row_height=1.8, site_width=0.2)
        pl = Placement(die)
        pl.place("u1", 1.0, 0.0)
        pl.place("u2", 25.0, 7.2)
        router = GlobalRouter(nl, pl, gcell=5.0)
        res = router.route()
        src = router.grid.gcell_of(1.0, 0.0)
        dst = router.grid.gcell_of(25.0, 7.2)
        expected = (abs(src[0] - dst[0]) + abs(src[1] - dst[1])) * 5.0
        assert res.net_lengths["n1"] == pytest.approx(expected)


class TestSTAIntegration:
    def test_routed_lengths_increase_loads(self, routed_design):
        """Routed lengths are gcell-quantized upper estimates of HPWL,
        so routed MCT lands above the HPWL MCT but in the same regime."""
        d, pl, result = routed_design
        base = VectorTimingAnalyzer(d.netlist, d.library, pl).analyze()
        routed = VectorTimingAnalyzer(
            d.netlist, d.library, pl, net_lengths=result.net_lengths
        ).analyze()
        assert routed.mct >= base.mct * 0.99
        assert routed.mct <= base.mct * 1.6

    def test_hpwl_close_to_routed_for_short_nets(self, routed_design):
        """Star-routed length correlates with HPWL across the design."""
        d, pl, result = routed_design
        hp, rt = [], []
        for net_name in list(d.netlist.nets)[:400]:
            h = net_hpwl(d.netlist, pl, net_name)
            if h > 0:
                hp.append(h)
                rt.append(result.net_lengths[net_name])
        corr = np.corrcoef(hp, rt)[0, 1]
        assert corr > 0.7

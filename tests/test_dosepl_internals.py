"""Unit tests for dosePl's internal heuristics (Algorithm 1 pieces)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dosepl import DoseplConfig, _cell_leakage, _path_weights
from repro.core import DesignContext
from repro.dosemap import DoseMap, GridPartition
from repro.netlist import make_design
from repro.power import total_leakage
from repro.power.leakage import gate_leakage
from repro.sta.compiled import CompiledTimingGraph
from repro.sta.paths import TimingPath


@pytest.fixture(scope="module")
def ctx90():
    return DesignContext(make_design("AES-90", scale=0.2))


class TestPathWeights:
    def _path(self, gates, delay):
        return TimingPath(gates=tuple(gates), delay=delay, endpoint="PO:x")

    def test_weight_formula(self):
        """Eq. (13): W(cell) = sum over its paths of exp(-slack)."""
        period = 10.0
        paths = [
            self._path(["a", "b"], 9.5),  # slack 0.5
            self._path(["b", "c"], 8.0),  # slack 2.0
        ]
        w = _path_weights(paths, period)
        assert w["a"] == pytest.approx(math.exp(-0.5))
        assert w["b"] == pytest.approx(math.exp(-0.5) + math.exp(-2.0))
        assert w["c"] == pytest.approx(math.exp(-2.0))

    def test_critical_paths_dominate(self):
        period = 5.0
        paths = [
            self._path(["crit"], 5.0),  # zero slack
            self._path(["cool"], 1.0),  # 4 ns slack
        ]
        w = _path_weights(paths, period)
        assert w["crit"] > 10 * w["cool"]

    def test_empty(self):
        assert _path_weights([], 1.0) == {}


class TestCellLeakageHelper:
    def test_matches_library(self):
        ctx = DesignContext(make_design("AES-90", scale=0.2))
        gate = next(iter(ctx.netlist.gates))
        master = ctx.netlist.gate(gate).master
        direct = ctx.library.characterized(master, 2.0, 0.0).leakage_uw
        assert _cell_leakage(ctx, gate, 2.0) == pytest.approx(direct)

    def test_snaps_continuous_dose(self):
        ctx = DesignContext(make_design("AES-90", scale=0.2))
        gate = next(iter(ctx.netlist.gates))
        assert _cell_leakage(ctx, gate, 1.13) == pytest.approx(
            _cell_leakage(ctx, gate, 1.0)
        )


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = DoseplConfig()
        assert cfg.rounds == 10  # "total number of rounds ... is 10"
        assert cfg.swaps_per_path == 1  # "one cell per critical path"
        assert cfg.swaps_per_round == 1  # "one swap for each round"
        assert cfg.hpwl_increase_limit == pytest.approx(0.20)  # "20%"
        assert cfg.leakage_increase_limit == pytest.approx(0.10)  # "10%"


# ----------------------------------------------------------------------
# differential tests: the array dose lookup and the variant-table /
# leakage lookups against the per-gate loops they replace
# ----------------------------------------------------------------------
class _Locations:
    """Placement stand-in: any coordinates, also off the die."""

    def __init__(self, xy):
        self.xy = xy

    def location(self, name):
        return self.xy[name]


def _reference_gate_doses(ctx, dose_maps, place, snap):
    """The per-gate dose_of_gate + snap_dose loop, scalar arithmetic."""
    lib = ctx.library

    def dose_of(dm, name):
        if dm is None:
            return 0.0
        x, y = place.location(name)
        p = dm.partition
        j = min(p.n - 1, max(0, int(x / p.cell_width)))
        i = min(p.m - 1, max(0, int(y / p.cell_height)))
        return float(dm.values[i, j])

    def snap_one(d):
        clipped = min(max(float(d), -lib.dose_range), lib.dose_range)
        return round(clipped / 0.5) * 0.5

    doses = {}
    for name in ctx.netlist.gates:
        dp, da = (dose_of(dm, name) for dm in dose_maps)
        if snap:
            dp, da = snap_one(dp), snap_one(da)
        doses[name] = (dp, da)
    return doses


# grid-edge multiples, far outside the field on both sides, and quarter
# dose steps beyond +-range (ties at k/4 exercise half-to-even rounding)
_EDGE_FRACTIONS = [-0.5, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0]
_QUARTER_DOSES = [k * 0.25 for k in range(-30, 31)]


class TestGateDosesDifferential:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**31 - 1),
        g=st.sampled_from([5.0, 7.3, 20.0]),
        with_active=st.booleans(),
        snap=st.booleans(),
    )
    def test_matches_per_gate_loop(self, ctx90, seed, g, with_active, snap):
        rng = random.Random(seed)
        die = ctx90.placement.die
        part = GridPartition(die.width, die.height, g)
        edges_x = [k * part.cell_width for k in range(part.n + 1)]
        edges_y = [k * part.cell_height for k in range(part.m + 1)]
        xy = {}
        for name in ctx90.netlist.gates:
            roll = rng.random()
            if roll < 0.3:  # exactly on a grid edge
                xy[name] = (rng.choice(edges_x), rng.choice(edges_y))
            elif roll < 0.5:  # anywhere, inside or outside the die
                xy[name] = (
                    rng.choice(_EDGE_FRACTIONS) * die.width,
                    rng.choice(_EDGE_FRACTIONS) * die.height,
                )
            else:
                xy[name] = ctx90.placement.location(name)

        def dose_map():
            vals = [
                rng.choice(_QUARTER_DOSES) if rng.random() < 0.5
                else rng.uniform(-8.0, 8.0)
                for _ in range(part.n_grids)
            ]
            return DoseMap(part, values=np.reshape(vals, (part.m, part.n)))

        maps = (dose_map(), dose_map() if with_active else None)
        place = _Locations(xy)
        got = ctx90.gate_doses(*maps, placement=place, snap=snap)
        ref = _reference_gate_doses(ctx90, maps, place, snap)
        assert got == ref
        # repr tells -0.0 from 0.0 and np.float64 from float
        assert repr(got) == repr(ref)

    def test_default_placement_and_missing_map(self, ctx90):
        die = ctx90.placement.die
        part = GridPartition(die.width, die.height, 10.0)
        dm = DoseMap(part, values=np.full((part.m, part.n), -0.2))
        got = ctx90.gate_doses(dm)
        ref = _reference_gate_doses(ctx90, (dm, None), ctx90.placement, True)
        assert repr(got) == repr(ref)  # -0.2 snaps to 0.0, not -0.0

    def test_non_finite_coordinate_rejected(self, ctx90):
        die = ctx90.placement.die
        dm = DoseMap(GridPartition(die.width, die.height, 10.0))
        xy = {n: (1.0, 1.0) for n in ctx90.netlist.gates}
        xy[next(iter(xy))] = (float("nan"), 1.0)
        with pytest.raises(ValueError, match="finite"):
            ctx90.gate_doses(dm, placement=_Locations(xy))


def _random_dose_dict(ctx, rng):
    """Partial (poly, active) doses: snapped, near-duplicates below the
    1e-3 variant key, and gates left out (nominal)."""
    doses = {}
    for name in ctx.netlist.gates:
        roll = rng.random()
        if roll < 0.2:
            continue
        dp = ctx.library.snap_dose(rng.uniform(-6.0, 6.0))
        if roll < 0.3:
            dp += rng.choice([1e-5, -1e-5, 0.0])
        da = 0.0 if roll < 0.7 else ctx.library.snap_dose(rng.uniform(-3, 3))
        doses[name] = (dp, da)
    return doses


class TestVariantLookupDifferential:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_vids_for_matches_per_gate_loop(self, ctx90, seed):
        """The variant table gathered at the graph's ids equals each
        gate's own characterized variant."""
        doses = _random_dose_dict(ctx90, random.Random(seed))
        lib = ctx90.library
        graph = CompiledTimingGraph(ctx90.netlist, lib)
        got = graph.vids_for(doses)
        ref = [
            lib.characterized(m, *doses.get(name, (0.0, 0.0)))
            for name, m in zip(graph.names, graph.masters)
        ]
        tab = lib.variant_table()
        assert np.array_equal(
            tab.delay[got], np.stack([c.delay.values for c in ref])
        )
        assert np.array_equal(
            tab.out_slew[got], np.stack([c.out_slew.values for c in ref])
        )
        assert tab.input_cap[got].tolist() == [c.input_cap_ff for c in ref]
        assert tab.leakage[got].tolist() == [c.leakage_uw for c in ref]
        assert tab.setup[got].tolist() == [c.setup_ns for c in ref]

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_total_leakage_matches_per_gate_sum(self, ctx90, seed):
        doses = _random_dose_dict(ctx90, random.Random(seed))
        nl, lib = ctx90.netlist, ctx90.library
        ref = sum(gate_leakage(nl, lib, g, doses) for g in nl.gates)
        assert total_leakage(nl, lib, doses) == ref

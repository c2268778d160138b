"""Unit tests for the standard-cell library substrate (repro.library)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.library import (
    CellLibrary,
    DOSE_STEP,
    NLDMTable,
    build_masters,
    cell_leakage,
    characterize_cell,
)
from repro.tech import get_node
from tests.oracles import characterize as reference


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


@pytest.fixture(scope="module")
def lib90():
    return CellLibrary("90nm")


class TestMasters:
    def test_master_counts_match_paper(self, lib65):
        """Paper: 36 combinational + 9 sequential masters."""
        assert len(lib65.combinational_names) == 36
        assert len(lib65.sequential_names) == 9

    def test_drive_strength_scales_width(self, lib65):
        x1 = lib65.cell("INVX1")
        x4 = lib65.cell("INVX4")
        assert x4.w_n == pytest.approx(4 * x1.w_n)
        assert x4.w_p == pytest.approx(4 * x1.w_p)

    def test_stack_sizing(self, lib65):
        """NAND2 pull-down is stacked and upsized 2x vs the inverter."""
        inv = lib65.cell("INVX1")
        nand = lib65.cell("NAND2X1")
        assert nand.stack_n == 2
        assert nand.w_n == pytest.approx(2 * inv.w_n)
        assert nand.w_p == pytest.approx(inv.w_p)

    def test_sequential_flags(self, lib65):
        assert lib65.cell("DFFX1").is_sequential
        assert lib65.cell("DFFX1").setup_ns > 0
        assert not lib65.cell("NAND2X1").is_sequential

    def test_unknown_master_raises(self, lib65):
        with pytest.raises(KeyError, match="unknown cell master"):
            lib65.cell("NAND9X9")

    def test_invalid_master_construction(self):
        masters = build_masters(200.0, 400.0)
        m = masters["INVX1"]
        with pytest.raises(ValueError):
            type(m)(**{**m.__dict__, "w_n": -1.0})


class TestNLDMTable:
    def _table(self):
        return NLDMTable(
            slew_axis=np.array([0.01, 0.1, 1.0]),
            load_axis=np.array([1.0, 2.0, 4.0]),
            values=np.arange(9.0).reshape(3, 3),
        )

    def test_lookup_exact_corner(self):
        t = self._table()
        assert t.lookup(0.01, 1.0) == 0.0
        assert t.lookup(1.0, 4.0) == 8.0

    def test_lookup_interpolates(self):
        t = self._table()
        # midway between loads 1 and 2 on the first slew row: (0+1)/2
        assert t.lookup(0.01, 1.5) == pytest.approx(0.5)

    def test_lookup_clamps_out_of_range(self):
        t = self._table()
        assert t.lookup(10.0, 100.0) == 8.0
        assert t.lookup(0.0, 0.0) == 0.0

    def test_nearest_index(self):
        t = self._table()
        assert t.nearest_index(0.09, 3.9) == (1, 2)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="does not match"):
            NLDMTable(np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.zeros((3, 3)))

    def test_monotone_axis_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            NLDMTable(np.array([0.2, 0.1]), np.array([1.0, 2.0]), np.zeros((2, 2)))


class TestAgainstReference:
    """The production lookup and characterization against the numpy,
    per-transistor forms in ``tests/oracles``: equal to the last bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-0.1, 1.0), st.floats(-1.0, 80.0))
    def test_lookup_matches_numpy_form(self, lib65, slew, load):
        for name in ("INVX1", "NAND2X2", "DFFX1"):
            table = lib65.characterized(name, -1.5, 0.0).delay
            assert table.lookup(slew, load) == reference.lookup(
                table, slew, load
            )

    def test_characterization_matches_per_transistor_form(self, lib65, lib90):
        for lib in (lib65, lib90):
            for name in lib.masters:
                master = lib.cell(name)
                for dl, dw in ((0.0, 0.0), (-2.5, 0.0), (1.5, -4.0), (3.0, 6.0)):
                    cc = characterize_cell(lib.node, master, dl, dw)
                    delay, slew, cap, leak = reference.characterize(
                        lib.node, master, dl, dw
                    )
                    assert np.array_equal(cc.delay.values, delay), name
                    assert np.array_equal(cc.out_slew.values, slew), name
                    assert cc.input_cap_ff == cap and cc.leakage_uw == leak


class TestCharacterization:
    def test_delay_monotone_in_dose(self, lib65):
        """More poly dose -> shorter gate -> faster cell."""
        delays = [
            lib65.characterized("NAND2X1", d).delay_at(0.05, 2.0)
            for d in (-4.0, -2.0, 0.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(delays, delays[1:]))

    def test_leakage_monotone_in_dose(self, lib65):
        leaks = [
            lib65.characterized("NAND2X1", d).leakage_uw
            for d in (-4.0, -2.0, 0.0, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(leaks, leaks[1:]))

    def test_active_dose_modulates_width(self, lib65):
        """More active dose -> narrower transistors -> slower, less leaky."""
        fast = lib65.characterized("INVX1", 0.0, -3.0)  # wider
        slow = lib65.characterized("INVX1", 0.0, 3.0)  # narrower
        assert fast.delay_at(0.05, 2.0) < slow.delay_at(0.05, 2.0)
        assert fast.leakage_uw > slow.leakage_uw

    def test_width_effect_much_smaller_than_length(self, lib65):
        """Paper Sec. V: max |dW| = 10 nm vs >=200 nm widths -> slight impact."""
        nom = lib65.nominal("INVX1")
        dl_only = lib65.characterized("INVX1", 5.0, 0.0)
        dw_only = lib65.characterized("INVX1", 0.0, 5.0)
        dl_shift = abs(dl_only.delay_at(0.05, 2.0) - nom.delay_at(0.05, 2.0))
        dw_shift = abs(dw_only.delay_at(0.05, 2.0) - nom.delay_at(0.05, 2.0))
        assert dw_shift < 0.35 * dl_shift

    def test_multistage_cells_slower(self, lib65):
        buf = lib65.nominal("BUFX1").delay_at(0.05, 2.0)
        inv = lib65.nominal("INVX1").delay_at(0.05, 2.0)
        assert buf > inv

    def test_higher_drive_faster_under_load(self, lib65):
        x1 = lib65.nominal("INVX1").delay_at(0.05, 8.0)
        x4 = lib65.nominal("INVX4").delay_at(0.05, 8.0)
        assert x4 < x1

    def test_sequential_has_clkq_and_setup(self, lib65):
        dff = lib65.nominal("DFFX1")
        assert dff.setup_ns > 0
        assert dff.delay_at(0.05, 2.0) > lib65.nominal("BUFX1").delay_at(0.05, 2.0)

    def test_characterize_rejects_nonphysical_bias(self, lib65):
        node = get_node("65nm")
        with pytest.raises(ValueError):
            characterize_cell(node, lib65.cell("INVX1"), dl_nm=-65.0)
        with pytest.raises(ValueError):
            characterize_cell(node, lib65.cell("INVX1"), dw_nm=-1e6)

    def test_cache_returns_same_object(self, lib65):
        a = lib65.characterized("INVX2", 1.5, 0.0)
        b = lib65.characterized("INVX2", 1.5, 0.0)
        assert a is b

    def test_leakage_helper_matches_characterized(self, lib65):
        node = get_node("65nm")
        m = lib65.cell("NOR2X1")
        assert lib65.nominal("NOR2X1").leakage_uw == pytest.approx(
            cell_leakage(node, m)
        )


class TestDoseGrid:
    def test_variant_grid_has_21_steps(self, lib65):
        """Paper: 21 characterized libraries from -5 % to +5 % per layer."""
        doses = lib65.variant_doses()
        assert len(doses) == 21
        assert doses[0] == -5.0 and doses[-1] == 5.0
        assert np.allclose(np.diff(doses), DOSE_STEP)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_snap_dose_lands_on_grid(self, dose):
        lib = CellLibrary("65nm")
        snapped = lib.snap_dose(dose)
        assert -5.0 <= snapped <= 5.0
        assert abs(snapped / DOSE_STEP - round(snapped / DOSE_STEP)) < 1e-9

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_snap_dose_error_bounded(self, dose):
        lib = CellLibrary("65nm")
        assert abs(lib.snap_dose(dose) - dose) <= DOSE_STEP / 2 + 1e-12

    def test_dose_cd_conversion(self, lib65):
        assert lib65.dose_to_dl(5.0) == -10.0
        assert lib65.dose_to_dw(-5.0) == 10.0


class TestCrossNode:
    def test_90nm_cells_leak_more(self, lib65, lib90):
        """90 nm node carries higher absolute leakage per um in this setup
        (paper Table III shows ~5x the 65 nm chip totals)."""
        l65 = lib65.nominal("INVX1").leakage_uw
        l90 = lib90.nominal("INVX1").leakage_uw
        assert l90 > l65

    def test_repr(self, lib65):
        assert "36 comb + 9 seq" in repr(lib65)


#: A dose request: on the 0.5 % grid, or anywhere in the range.
_grid_dose = st.integers(-10, 10).map(lambda k: k * DOSE_STEP)
_any_dose = st.one_of(_grid_dose, st.floats(-5.0, 5.0, allow_nan=False))


class TestVariantTable:
    """The array-backed variant table against the per-transistor oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        node=st.sampled_from(["65nm", "90nm"]),
        requests=st.lists(
            st.tuples(st.integers(0, 44), _any_dose, _any_dose),
            min_size=1, max_size=6,
        ),
        scalar=st.booleans(),
    )
    def test_variants_equal_oracle(self, node, requests, scalar):
        """Every requested variant, and every step of a grid row it
        filled, equals ``tests/oracles/characterize.py`` to the last bit
        at the request's doses rounded to 1e-3 %."""
        lib = CellLibrary(node)
        names = list(lib.masters)
        if scalar:
            vids = [lib.variant_id(m, dp, da) for m, dp, da in requests]
        else:
            mids, dps, das = (np.array(col) for col in zip(*requests))
            vids = lib.variant_ids(mids, dps, das).tolist()
        checked = list(zip(vids, requests))
        for m, dp, da in requests:
            kp, ka = round(dp, 3), round(da, 3)
            if lib.snap_dose(kp) == kp and lib.snap_dose(ka) == ka:
                n_before = len(lib.variant_table().leakage)
                row = lib.variant_ids(
                    np.full(21, m), lib.variant_doses(), np.full(21, da)
                )
                # the row was characterized whole by the first request
                if (kp, ka) != (0.0, 0.0):
                    assert len(lib.variant_table().leakage) == n_before
                checked += [
                    (v, (m, d, da))
                    for v, d in zip(row.tolist(), lib.variant_doses())
                ]
        table = lib.variant_table()
        for vid, (m, dp, da) in checked:
            master = lib.cell(names[m])
            delay, slew, cap, leak = reference.characterize(
                lib.node, master,
                lib.dose_to_dl(round(dp, 3)), lib.dose_to_dw(round(da, 3)),
            )
            assert np.array_equal(table.delay[vid], delay)
            assert np.array_equal(table.out_slew[vid], slew)
            assert table.input_cap[vid] == cap
            assert table.leakage[vid] == leak
            assert table.setup[vid] == master.setup_ns
            cc = lib.characterized(names[m], dp, da)
            assert np.array_equal(cc.delay.values, delay)
            assert cc.leakage_uw == leak

    def test_rows_are_characterized_whole(self):
        lib = CellLibrary("65nm")
        lib.variant_ids(lib.master_ids(["INVX1", "NAND2X1", "INVX1"]))
        assert len(lib.variant_table().leakage) == 2  # nominal only
        lib.characterized("INVX1", 0.5)
        # the rest of INVX1's row: 20 more variants, the nominal reused
        assert len(lib.variant_table().leakage) == 22
        assert lib.variant_id(lib.master_id["INVX1"]) == 0
        lib.characterized("INVX1", 0.0, 0.5)  # a new active-dose row
        assert len(lib.variant_table().leakage) == 43

    def test_cache_does_not_depend_on_request_order(self):
        """A nearby dose that asks first does not set the variant: both
        doses key to 2.5 % and get the variant characterized there."""
        lib = CellLibrary("65nm")
        near = lib.characterized("INVX1", 2.5004)
        exact = lib.characterized("INVX1", 2.5)
        fresh = CellLibrary("65nm").characterized("INVX1", 2.5)
        assert near.dl_nm == exact.dl_nm == fresh.dl_nm == -5.0
        assert np.array_equal(near.delay.values, fresh.delay.values)
        assert near.leakage_uw == fresh.leakage_uw

    def test_unphysical_row_edge_characterizes_only_the_request(self):
        """With a dose range whose edge gives a non-positive gate length,
        an in-range dose still characterizes; the edge itself raises."""
        lib = CellLibrary("65nm", dose_range=40.0)
        assert lib.characterized("INVX1", 1.0).dl_nm == -2.0
        with pytest.raises(ValueError, match="non-positive length"):
            lib.characterized("INVX1", 40.0)

"""Unit tests for the dose map substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dosemap import (
    DoseMap,
    GridPartition,
    fit_actuators,
    legendre_scan_profile,
    slit_profile,
)
from repro.placement import Die, Placement


class TestGridPartition:
    def test_counts(self):
        p = GridPartition(width=100.0, height=90.0, g=10.0)
        assert (p.m, p.n) == (9, 10)
        assert p.n_grids == 90

    def test_partial_grid_rounds_up(self):
        p = GridPartition(width=101.0, height=99.0, g=10.0)
        assert (p.m, p.n) == (10, 11)
        assert p.cell_width <= 10.0 and p.cell_height <= 10.0

    def test_grid_of_corners(self):
        p = GridPartition(width=100.0, height=100.0, g=10.0)
        assert p.grid_of(0.0, 0.0) == (0, 0)
        assert p.grid_of(99.9, 99.9) == (9, 9)
        assert p.grid_of(100.0, 100.0) == (9, 9)  # clamped
        assert p.grid_of(-5.0, -5.0) == (0, 0)  # clamped

    def test_index_roundtrip(self):
        p = GridPartition(width=50.0, height=30.0, g=10.0)
        assert p.index_of(0, 0) == 0
        assert p.index_of(2, 4) == 2 * 5 + 4
        with pytest.raises(IndexError):
            p.index_of(3, 0)

    def test_center_inside_cell(self):
        p = GridPartition(width=50.0, height=30.0, g=10.0)
        x, y = p.center_of(1, 2)
        assert p.grid_of(x, y) == (1, 2)

    def test_neighbor_pairs_count(self):
        """Paper eq. (4): (M-1)(N-1) diagonal + M(N-1) + (M-1)N pairs."""
        p = GridPartition(width=40.0, height=30.0, g=10.0)
        m, n = p.m, p.n
        pairs = list(p.neighbor_pairs())
        assert len(pairs) == (m - 1) * (n - 1) + m * (n - 1) + (m - 1) * n

    def test_neighbor_pairs_are_adjacent(self):
        p = GridPartition(width=40.0, height=40.0, g=10.0)
        for (i1, j1), (i2, j2) in p.neighbor_pairs():
            assert max(abs(i1 - i2), abs(j1 - j2)) == 1

    def test_assign_gates(self):
        p = GridPartition(width=20.0, height=3.6, g=5.0)
        die = Die(width=20.0, height=3.6, row_height=1.8, site_width=0.2)
        pl = Placement(die)
        pl.place("a", 1.0, 0.0)
        pl.place("b", 17.0, 1.8)
        assign = p.assign_gates(pl)
        assert assign["a"] == p.index_of(0, 0)
        assert assign["b"] == p.index_of(0, 3)

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            GridPartition(width=-1.0, height=10.0, g=5.0)
        with pytest.raises(ValueError):
            GridPartition(width=10.0, height=10.0, g=0.0)


class TestDoseMap:
    def _partition(self):
        return GridPartition(width=40.0, height=30.0, g=10.0)

    def test_default_zero(self):
        dm = DoseMap(self._partition())
        assert dm.dose_at(5.0, 5.0) == 0.0
        assert dm.is_feasible()

    def test_values_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            DoseMap(self._partition(), values=np.zeros((2, 2)))

    def test_layer_validation(self):
        with pytest.raises(ValueError, match="layer"):
            DoseMap(self._partition(), layer="metal1")

    def test_flat_roundtrip(self):
        p = self._partition()
        vals = np.arange(p.n_grids, dtype=float).reshape(p.m, p.n)
        dm = DoseMap(p, values=vals)
        dm2 = dm.from_flat(dm.flat())
        assert np.array_equal(dm2.values, vals)

    def test_dose_of_gate(self):
        p = GridPartition(width=20.0, height=3.6, g=5.0)
        die = Die(width=20.0, height=3.6, row_height=1.8, site_width=0.2)
        pl = Placement(die)
        pl.place("a", 12.0, 0.0)
        vals = np.zeros((p.m, p.n))
        vals[0, 2] = 3.5
        dm = DoseMap(p, values=vals)
        assert dm.dose_of_gate(pl, "a") == 3.5

    def test_range_violation(self):
        p = self._partition()
        vals = np.zeros((p.m, p.n))
        vals[0, 0] = 7.0
        dm = DoseMap(p, values=vals)
        assert dm.range_violations(5.0) == pytest.approx(2.0)
        assert not dm.is_feasible()

    def test_smoothness_violation(self):
        p = self._partition()
        vals = np.zeros((p.m, p.n))
        vals[0, 0], vals[0, 1] = -2.0, 2.0  # jump of 4 > delta=2
        dm = DoseMap(p, values=vals)
        assert dm.smoothness_violations(2.0) == pytest.approx(2.0)
        assert dm.is_feasible(smoothness=4.0)

    def test_diagonal_smoothness_checked(self):
        p = self._partition()
        vals = np.zeros((p.m, p.n))
        vals[0, 0], vals[1, 1] = 0.0, 3.0
        dm = DoseMap(p, values=vals)
        assert dm.smoothness_violations(2.0) >= 1.0 - 1e-9

    def test_tiled(self):
        p = GridPartition(width=40.0, height=30.0, g=10.0)
        vals = np.arange(p.n_grids, dtype=float).reshape(p.m, p.n)
        dm = DoseMap(p, values=vals)
        big = dm.tiled(2, 3)
        assert big.values.shape == (p.m * 3, p.n * 2)
        assert np.array_equal(big.values[:3, :4], vals)
        assert np.array_equal(big.values[3:6, 4:8], vals)

    def test_tiled_validation(self):
        dm = DoseMap(self._partition())
        with pytest.raises(ValueError):
            dm.tiled(0, 1)

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=-5, max_value=5))
    def test_uniform_map_always_smooth(self, value):
        p = GridPartition(width=40.0, height=30.0, g=10.0)
        dm = DoseMap(p, values=np.full((p.m, p.n), value))
        assert dm.smoothness_violations(0.0) == 0.0
        assert dm.is_feasible(dose_range=5.0, smoothness=0.0)


class TestProfiles:
    def test_legendre_p1_is_linear(self):
        y = np.linspace(-1, 1, 5)
        assert np.allclose(legendre_scan_profile([1.0], y), y)

    def test_legendre_no_constant_term(self):
        """The paper's sum starts at n=1: profile at y=0 has no L0 part."""
        # P1(0)=0, P2(0)=-0.5: only even orders contribute at y=0
        out = legendre_scan_profile([3.0], 0.0)
        assert out == pytest.approx(0.0)

    def test_legendre_order_limit(self):
        with pytest.raises(ValueError, match="at most 8"):
            legendre_scan_profile(np.ones(9), 0.0)

    def test_legendre_domain_check(self):
        with pytest.raises(ValueError, match="<= 1"):
            legendre_scan_profile([1.0], 1.5)

    def test_slit_quadratic_default_shape(self):
        x = np.linspace(-1, 1, 11)
        prof = slit_profile([0.0, 0.0, 1.0], x)  # x^2
        assert np.allclose(prof, x**2)

    def test_slit_order_limit(self):
        with pytest.raises(ValueError, match="limited to 6"):
            slit_profile(np.ones(8), 0.0)

    def test_fit_actuators_exact_for_separable(self):
        """A separable quadratic-in-x + linear-in-y map fits exactly."""
        m, n = 8, 10
        x = np.linspace(-1, 1, n)
        y = np.linspace(-1, 1, m)
        dose = 0.5 * x[None, :] ** 2 + 1.5 * y[:, None]
        _s, _l, realized, rms = fit_actuators(dose, slit_order=2)
        assert rms < 1e-9
        assert np.allclose(realized, dose, atol=1e-8)

    def test_fit_actuators_residual_for_nonseparable(self):
        """A checkerboard map is not separable: residual must be large."""
        dose = np.indices((6, 6)).sum(axis=0) % 2 * 4.0 - 2.0
        *_rest, rms = fit_actuators(dose)
        assert rms > 0.5

    def test_fit_actuators_validation(self):
        with pytest.raises(ValueError):
            fit_actuators(np.zeros((4, 4)), slit_order=9)
        with pytest.raises(ValueError):
            fit_actuators(np.zeros(4))

class TestNonFinite:
    """A NaN/inf dose must never read as an in-range, smooth map."""

    def _partition(self):
        return GridPartition(width=40.0, height=30.0, g=10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects(self, bad):
        p = self._partition()
        vals = np.zeros((p.m, p.n))
        vals[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            DoseMap(p, values=vals)

    def test_from_flat_rejects(self):
        dm = DoseMap(self._partition())
        flat = dm.flat()
        flat[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dm.from_flat(flat)

    def test_mutated_map_is_infeasible(self):
        dm = DoseMap(self._partition())
        dm.values[0, 0] = np.nan
        assert dm.range_violations() == np.inf
        assert dm.smoothness_violations() == np.inf
        assert not dm.is_feasible()


class TestVectorLookup:
    """``grid_of``/``dose_at`` take coordinate arrays with the scalar
    semantics: truncation toward the lower grid, clamped to the field."""

    @staticmethod
    def _reference_grid_of(p, x, y):
        j = min(p.n - 1, max(0, int(x / p.cell_width)))
        i = min(p.m - 1, max(0, int(y / p.cell_height)))
        return i, j

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(-100.0, 200.0),
                    st.sampled_from([0.0, 12.5, 25.0, 87.5, 100.0, -0.0]),
                    st.floats(-1e300, 1e300),
                ),
                st.one_of(
                    st.floats(-50.0, 100.0),
                    st.sampled_from([0.0, 7.5, 15.0, 45.0, 60.0]),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_arrays_match_scalar_reference(self, points):
        p = GridPartition(width=100.0, height=60.0, g=12.5)
        xs = np.array([x for x, _ in points])
        ys = np.array([y for _, y in points])
        ii, jj = p.grid_of(xs, ys)
        for k, (x, y) in enumerate(points):
            ref = self._reference_grid_of(p, x, y)
            assert (int(ii[k]), int(jj[k])) == ref
            got = p.grid_of(x, y)
            assert got == ref and all(type(v) is int for v in got)

    @settings(deadline=None, max_examples=100)
    @given(
        x=st.one_of(
            st.floats(-100.0, 200.0),
            st.sampled_from([0.0, -0.0, 12.5, 25.0, 87.5, 100.0]),
            st.floats(-1e300, 1e300),
            st.integers(-10**6, 10**6),
        ),
        y=st.one_of(
            st.floats(-50.0, 100.0),
            st.sampled_from([0.0, 7.5, 15.0, 45.0, 60.0]),
            st.floats(-1e300, 1e300),
            st.integers(-10**6, 10**6),
        ),
        g=st.sampled_from([7.0, 12.5, 33.3]),
    )
    def test_scalar_path_equals_array_path(self, x, y, g):
        """One point takes a plain-float path; it must land in the grid
        the array path gives, boundaries and far-outside points too."""
        p = GridPartition(width=100.0, height=60.0, g=g)
        ii, jj = p.grid_of(np.array([x], dtype=float), np.array([y], dtype=float))
        got = p.grid_of(x, y)
        assert got == (int(ii[0]), int(jj[0]))
        assert all(type(v) is int for v in got)
        assert p.grid_of(np.float64(x), np.float64(y)) == got

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        p = GridPartition(width=100.0, height=60.0, g=12.5)
        with pytest.raises(ValueError, match="finite"):
            p.grid_of(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            p.grid_of(1.0, float(bad))
        with pytest.raises(ValueError, match="finite"):
            p.grid_of(np.array([1.0, 2.0]), np.array([1.0, bad]))

    def test_doses_of_gates(self):
        p = GridPartition(width=20.0, height=3.6, g=5.0)
        die = Die(width=20.0, height=3.6, row_height=1.8, site_width=0.2)
        pl = Placement(die)
        for k, x in enumerate((0.0, 5.0, 12.0, 20.0)):
            pl.place(f"g{k}", x, 1.8 * (k % 2))
        dm = DoseMap(p, values=np.arange(p.n_grids, dtype=float).reshape(
            p.m, p.n))
        names = ["g3", "g0", "g2", "g1"]
        doses = dm.doses_of_gates(pl, names)
        assert doses.tolist() == [dm.dose_of_gate(pl, g) for g in names]
        assert dm.doses_of_gates(pl, []).shape == (0,)

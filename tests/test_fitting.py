"""Unit tests for delay/leakage coefficient fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fitting import DelayFitter, LeakageFitter
from repro.library import CellLibrary
from tests.oracles import fitting as reference

_LIBS = {node: CellLibrary(node) for node in ("65nm", "90nm")}


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


class TestDelayFit:
    def test_signs(self, lib65):
        """A_p > 0 (longer gate slower), B_p < 0 (wider gate faster)."""
        fitter = DelayFitter(lib65, fit_width=True)
        fit = fitter.fit_for("INVX1", 0.05, 2.0)
        assert fit.a > 0
        assert fit.b < 0

    def test_poly_only_has_zero_b(self, lib65):
        fit = DelayFitter(lib65, fit_width=False).fit_for("INVX1", 0.05, 2.0)
        assert fit.b == 0.0

    def test_prediction_matches_library(self, lib65):
        """Linear model tracks the characterized delay within ~3 %."""
        fitter = DelayFitter(lib65)
        nominal = lib65.nominal("NAND2X1")
        slew = float(nominal.delay.slew_axis[2])
        load = float(nominal.delay.load_axis[3])
        fit = fitter.fit_for("NAND2X1", slew, load)
        for dose in (-4.0, -2.0, 2.0, 4.0):
            actual = lib65.characterized("NAND2X1", dose).delay_at(slew, load)
            predicted = fit.predict(lib65.dose_to_dl(dose))
            assert predicted == pytest.approx(actual, rel=0.03)

    def test_t0_matches_nominal(self, lib65):
        fitter = DelayFitter(lib65)
        nominal = lib65.nominal("INVX2")
        slew = float(nominal.delay.slew_axis[1])
        load = float(nominal.delay.load_axis[1])
        fit = fitter.fit_for("INVX2", slew, load)
        assert fit.t0 == pytest.approx(nominal.delay_at(slew, load), rel=0.02)

    def test_load_dependence(self, lib65):
        """Bigger load -> bigger delay sensitivity to gate length."""
        fitter = DelayFitter(lib65)
        nominal = lib65.nominal("INVX1")
        small = fitter.fit_at_entry("INVX1", 2, 0)
        large = fitter.fit_at_entry("INVX1", 2, 6)
        assert large.a > small.a

    def test_cache_hit(self, lib65):
        fitter = DelayFitter(lib65)
        a = fitter.fit_at_entry("INVX1", 0, 0)
        b = fitter.fit_at_entry("INVX1", 0, 0)
        assert a is b

    def test_width_fit_has_worse_residuals(self, lib65):
        """Paper Sec. V: both-layer fitting has much larger max SSR than
        poly-only fitting (0.0101 vs 0.0005) -- more free parameters and
        a bigger characterized space to cover."""
        poly = DelayFitter(lib65, fit_width=False)
        both = DelayFitter(lib65, fit_width=True)
        masters = ["INVX1", "NAND2X1", "NOR2X2", "XOR2X1", "BUFX2", "AOI21X1"]
        for m in masters:
            for i in (0, 3):
                for j in (1, 4):
                    poly.fit_at_entry(m, i, j)
                    both.fit_at_entry(m, i, j)
        assert both.max_ssr() > poly.max_ssr()

    def test_sample_count_validation(self, lib65):
        with pytest.raises(ValueError, match="at least 3"):
            DelayFitter(lib65, n_dose_samples=2)


class TestPerMasterFits:
    @settings(max_examples=30, deadline=None)
    @given(
        node=st.sampled_from(sorted(_LIBS)),
        master=st.integers(0, 44),
        fit_width=st.booleans(),
    )
    def test_equal_per_entry_lstsq(self, node, master, fit_width):
        """All 49 entries of a master's fit equal the entry-by-entry
        least squares to the last bit, ssr included."""
        lib = _LIBS[node]
        name = list(lib.masters)[master]
        fits = DelayFitter(lib, fit_width=fit_width).master_fits(name)
        for i in range(fits.shape[1]):
            for j in range(fits.shape[2]):
                assert tuple(fits[:, i, j].tolist()) == reference.fit_at_entry(
                    lib, name, i, j, fit_width=fit_width
                ), (i, j)

    def test_gate_fits_read_the_nearest_entry(self, lib65):
        fitter = DelayFitter(lib65)
        masters = ["INVX1", "NAND2X1", "INVX1"]
        slews = [0.05, 0.3, 0.001]
        loads = [2.0, 9.0, 60.0]
        a, b = fitter.gate_fits(masters, slews, loads)
        want = [fitter.fit_for(m, s, c) for m, s, c in zip(masters, slews, loads)]
        assert a.tolist() == [f.a for f in want]
        assert b.tolist() == [f.b for f in want]
        assert np.all(b == 0.0)


class TestLeakageFit:
    def test_signs(self, lib65):
        """alpha > 0 (convex), beta < 0 (longer leaks less), gamma > 0."""
        fit = LeakageFitter(lib65, fit_width=True).fit("INVX1")
        assert fit.alpha > 0
        assert fit.beta < 0
        assert fit.gamma > 0

    def test_quadratic_tracks_exponential(self, lib65):
        """Quadratic fit within ~15 % of the exponential truth in-range."""
        fit = LeakageFitter(lib65).fit("INVX1")
        for dose in (-5.0, -2.5, 0.0, 2.5, 5.0):
            actual = lib65.characterized("INVX1", dose).leakage_uw
            predicted = fit.predict(lib65.dose_to_dl(dose))
            assert predicted == pytest.approx(actual, rel=0.15)

    def test_delta_prediction_consistent(self, lib65):
        fit = LeakageFitter(lib65).fit("NAND2X1")
        assert fit.predict_delta(3.0) == pytest.approx(
            fit.predict(3.0) - fit.c
        )
        assert fit.predict_delta(0.0) == 0.0

    def test_constant_near_nominal_leakage(self, lib65):
        fit = LeakageFitter(lib65).fit("NOR2X1")
        assert fit.c == pytest.approx(
            lib65.nominal("NOR2X1").leakage_uw, rel=0.10
        )

    def test_bigger_cells_have_bigger_coefficients(self, lib65):
        fitter = LeakageFitter(lib65)
        small = fitter.fit("INVX1")
        big = fitter.fit("INVX4")
        assert abs(big.beta) > abs(small.beta)
        assert big.alpha > small.alpha

    def test_cache(self, lib65):
        fitter = LeakageFitter(lib65)
        assert fitter.fit("INVX1") is fitter.fit("INVX1")
        assert fitter.max_ssr() >= 0.0

    def test_sample_count_validation(self, lib65):
        with pytest.raises(ValueError, match="at least 3"):
            LeakageFitter(lib65, n_dose_samples=2)

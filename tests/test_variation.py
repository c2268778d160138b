"""Tests for the Monte Carlo timing-yield estimator."""

import functools

import numpy as np
import pytest

from repro.core import DesignContext, optimize_dose_map
from repro.dosemap import DoseMap, GridPartition
from repro.netlist import make_design
from repro.variation import (
    SSTA,
    TimingMonteCarlo,
    VariationModel,
    timing_yield,
    yield_curve,
)
from repro.variation.montecarlo import _BLOCK
from tests.oracles import montecarlo as unblocked
from tests.oracles.sta import TimingAnalyzer


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


@pytest.fixture(scope="module")
def mc(ctx):
    return TimingMonteCarlo(ctx)


class TestSampling:
    def test_shape_and_determinism(self, mc):
        model = VariationModel(seed=5)
        a = mc.sample_dl(model, 16)
        b = mc.sample_dl(model, 16)
        assert a.shape == (16, mc.graph.n)
        assert np.array_equal(a, b)

    def test_sample_count_validation(self, mc):
        with pytest.raises(ValueError, match="at least one"):
            mc.sample_dl(VariationModel(), 0)

    def test_total_sigma(self, mc):
        """Per-gate sigma ~ sqrt(sig_r^2 + sig_s^2)."""
        model = VariationModel(
            sigma_random_nm=1.0, sigma_systematic_nm=1.0, seed=1
        )
        dl = mc.sample_dl(model, 400)
        assert dl.std() == pytest.approx(np.sqrt(2.0), rel=0.1)

    def test_systematic_component_is_spatially_correlated(self, ctx, mc):
        """Gates in the same correlation grid share the systematic part."""
        model = VariationModel(
            sigma_random_nm=0.0, sigma_systematic_nm=1.0,
            correlation_grid_um=1e9,  # one grid for the whole die
        )
        dl = mc.sample_dl(model, 8)
        # all gates identical per sample
        assert np.allclose(dl, dl[:, :1])


class TestVariationModelValidation:
    @pytest.mark.parametrize(
        "field", ["sigma_random_nm", "sigma_systematic_nm"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_bad_sigma_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            VariationModel(**{field: value})

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 0.0, -20.0]
    )
    def test_bad_correlation_grid_rejected(self, value):
        with pytest.raises(ValueError, match="correlation_grid_um"):
            VariationModel(correlation_grid_um=value)

    def test_zero_sigmas_allowed(self):
        model = VariationModel(0, 0)
        assert model.sigma_random_nm == 0 and model.sigma_systematic_nm == 0


class TestMCTEvaluation:
    def test_nominal_anchors_to_golden(self, ctx, mc):
        """Zero-variation linearized MCT ~ golden baseline MCT."""
        assert mc.nominal_mct() == pytest.approx(ctx.baseline.mct, rel=0.02)

    def test_variation_spreads_mct(self, mc):
        dl = mc.sample_dl(VariationModel(seed=2), 200)
        mcts = mc.mct_samples(dl)
        assert mcts.std() > 0
        assert mcts.shape == (200,)

    def test_positive_dl_slows(self, mc):
        n_gates = mc.graph.n
        slow = mc.mct_samples(np.full((1, n_gates), 3.0))[0]
        fast = mc.mct_samples(np.full((1, n_gates), -3.0))[0]
        assert fast < mc.nominal_mct() < slow

    def test_shape_validation(self, mc):
        with pytest.raises(ValueError, match="gate columns"):
            mc.mct_samples(np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_dl_rejected(self, mc, bad):
        dl = np.zeros((2, mc.graph.n))
        dl[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mc.mct_samples(dl)

    def test_dose_map_shifts_distribution(self, ctx, mc):
        res = optimize_dose_map(ctx, 10.0, mode="qcp")
        dl = mc.sample_dl(VariationModel(seed=3), 100)
        base = mc.mct_samples(dl)
        opt = mc.mct_samples(dl, dose_map=res.dose_map_poly)
        assert opt.mean() < base.mean()


def _per_gate_loop_mct(ctx, dl_nm, dose_map):
    """Reference: the netlist walk with one Python step per gate."""
    nl, lib, base = ctx.netlist, ctx.library, ctx.baseline
    order = nl.topological_order(lib)
    index = {name: i for i, name in enumerate(order)}
    shift = np.array(
        [lib.dose_to_dl(dose_map.dose_of_gate(ctx.placement, g)) for g in order]
    )
    t0 = np.array([base.gate_delay[g] for g in order])
    a = np.array([ctx.delay_fit_for(g).a for g in order])
    delays = np.maximum(t0[None, :] + a[None, :] * (dl_nm + shift), 0.0)
    arrival = np.zeros_like(delays)
    mct = np.zeros(len(dl_nm))
    seq = [lib.cell(nl.gates[g].master).is_sequential for g in order]
    for i, name in enumerate(order):
        pins = [
            arrival[:, index[drv]] + base.wire_delay.get((drv, name), 0.0)
            for drv in nl.fanin_gates(name)
        ]
        arrival[:, i] = delays[:, i]
        if pins and not seq[i]:
            arrival[:, i] += np.max(pins, axis=0)
        if nl.nets[nl.gates[name].output].is_primary_output:
            mct = np.maximum(mct, arrival[:, i])
    for i, name in enumerate(order):
        if seq[i]:
            setup = lib.cell(nl.gates[name].master).setup_ns
            for drv in nl.fanin_gates(name):
                wd = base.wire_delay.get((drv, name), 0.0)
                mct = np.maximum(mct, arrival[:, index[drv]] + (wd + setup))
    return mct


class TestAgainstPerGateLoop:
    def test_bit_identical_to_per_gate_loop(self, ctx, mc):
        """Level-by-level propagation on the compiled graph uses only max
        and add on the loop's operands, so it reproduces the loop
        exactly, with and without a dose map."""
        place = ctx.placement
        part = GridPartition(place.die.width, place.die.height, 10.0)
        rng = np.random.default_rng(0)
        dose_map = DoseMap(part, values=rng.uniform(-5, 5, (part.m, part.n)))
        dl = mc.sample_dl(VariationModel(seed=7), 64)
        zero_map = DoseMap(part)
        assert np.array_equal(
            mc.mct_samples(dl), _per_gate_loop_mct(ctx, dl, zero_map)
        )
        assert np.array_equal(
            mc.mct_samples(dl, dose_map),
            _per_gate_loop_mct(ctx, dl, dose_map),
        )


class TestBlockedAgainstUnblocked:
    """Samples are drawn and timed in blocks of ``_BLOCK`` columns; every
    block boundary must leave the numbers of drawing and timing all
    samples at once (``tests/oracles/montecarlo.py``) bit for bit."""

    @pytest.mark.parametrize(
        "n_samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2000]
    )
    @pytest.mark.parametrize(
        "model",
        [VariationModel(seed=8), VariationModel(0.0, 1.5, 7.0, seed=9),
         VariationModel(1.0, 0.0, seed=10)],
        ids=["both", "systematic", "random"],
    )
    def test_bit_identical(self, ctx, mc, n_samples, model):
        dl = mc.sample_dl(model, n_samples)
        assert np.array_equal(dl, unblocked.sample_dl(mc, model, n_samples))
        place = ctx.placement
        part = GridPartition(place.die.width, place.die.height, 10.0)
        rng = np.random.default_rng(n_samples)
        dose_map = DoseMap(part, values=rng.uniform(-5, 5, (part.m, part.n)))
        for dm in (None, dose_map):
            got = mc.mct_samples(dl, dm)
            assert got.shape == (n_samples,)
            assert np.array_equal(got, unblocked.mct_samples(mc, dl, dm))

    def test_zero_samples(self, mc):
        got = mc.mct_samples(np.zeros((0, mc.graph.n)))
        assert got.shape == (0,)
        assert np.array_equal(
            got, unblocked.mct_samples(mc, np.zeros((0, mc.graph.n)))
        )

    def test_shares_the_graph_slot_layout(self, ctx, mc):
        """Monte Carlo times over the compiled graph's one layout: each
        level's slot rows list every gate's real fan-in arcs in arc
        order, padded with -1."""
        g = ctx.timing_graph
        assert len(mc._levels) == len(g.fanin_slots) == g.n_levels
        for (ids, src, _wire), (slot_ids, slot_src, _arc) in zip(
            mc._levels, g.fanin_slots
        ):
            assert ids is slot_ids and src is slot_src
        for ids, src, arc in g.fanin_slots:
            assert src.shape == arc.shape == (src.shape[0], len(ids))
            for col, gid in enumerate(ids.tolist()):
                p = int(g.pos_of[gid])
                arcs = list(range(g.fi_ptr[p] + 1, g.fi_ptr[p + 1]))
                pad = [-1] * (src.shape[0] - len(arcs))
                assert arc[:, col].tolist() == arcs + pad
                assert src[:, col].tolist() == g.fi_src[arcs].tolist() + pad


class TestYield:
    def test_yield_monotone_in_period(self, mc):
        dl = mc.sample_dl(VariationModel(seed=4), 200)
        mcts = mc.mct_samples(dl)
        periods = np.linspace(mcts.min(), mcts.max(), 9)
        curve = yield_curve(mcts, periods)
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == 1.0

    def test_yield_bounds(self):
        mcts = np.array([1.0, 2.0, 3.0, 4.0])
        assert timing_yield(mcts, 0.5) == 0.0
        assert timing_yield(mcts, 2.5) == 0.5
        assert timing_yield(mcts, 10.0) == 1.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            timing_yield(np.array([]), 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            timing_yield([bad, 1.0], 2.0)
        with pytest.raises(ValueError, match="finite"):
            yield_curve(np.array([1.0, bad]), [0.5, 2.0])

    def test_dmopt_improves_timing_yield(self, ctx, mc):
        """The title claim, measured directly: yield at the baseline MCT
        target improves under the optimized dose map."""
        res = optimize_dose_map(ctx, 10.0, mode="qcp")
        dl = mc.sample_dl(VariationModel(seed=6), 300)
        target = ctx.baseline.mct
        y_base = timing_yield(mc.mct_samples(dl), target)
        y_opt = timing_yield(
            mc.mct_samples(dl, dose_map=res.dose_map_poly), target
        )
        assert y_opt > y_base


@functools.lru_cache(maxsize=None)
def _design_ctx(design):
    return DesignContext(make_design(design, scale=0.3))


@pytest.fixture(
    scope="module",
    params=[
        (design, engine)
        for design in ("AES-65", "JPEG-65", "AES-90", "JPEG-90")
        for engine in ("vector", "reference")
    ],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def engine_golden(request):
    """A design context and one STA engine's golden baseline on it: the
    context's own engine (``vector``) or the reference oracle's."""
    design, engine = request.param
    ctx = _design_ctx(design)
    if engine == "vector":
        return ctx, ctx.baseline
    oracle = TimingAnalyzer(ctx.netlist, ctx.library, ctx.placement)
    return ctx, oracle.analyze()


class TestEnginesAgreeAtZeroVariation:
    """Without variation, Monte Carlo and SSTA both reproduce the golden
    baseline they linearize, as both the STA engine and the reference
    oracle time it."""

    def test_one_timing_graph_per_context(self, engine_golden):
        ctx, golden = engine_golden
        assert ctx.timing_graph is ctx.analyzer.graph
        # sample columns keep the netlist's topological order, which is
        # the order both engines report gates in
        assert ctx.timing_graph.names == ctx.netlist.topological_order(
            ctx.library
        )
        assert list(golden.arrival) == ctx.timing_graph.names

    def test_monte_carlo_nominal_is_golden(self, engine_golden):
        ctx, golden = engine_golden
        assert TimingMonteCarlo(ctx).nominal_mct() == pytest.approx(
            golden.mct, rel=1e-12
        )

    def test_ssta_without_variation_is_golden(self, engine_golden):
        ctx, golden = engine_golden
        mct = SSTA(ctx, VariationModel(0, 0)).analyze()
        assert mct.mean == pytest.approx(golden.mct, rel=1e-12)
        assert mct.sigma == 0.0

"""Integration tests for dosePl, sweeps, and the end-to-end flow."""

import pytest

from repro.core import (
    DesignContext,
    DoseplConfig,
    bias_critical_paths,
    optimize_dose_map,
    run_dosepl,
    run_flow,
    uniform_dose_sweep,
)
from repro.netlist import make_design
from repro.placement import has_overlaps


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.3))


@pytest.fixture(scope="module")
def qcp(ctx):
    return optimize_dose_map(ctx, grid_size=5.0, mode="qcp")


@pytest.fixture(scope="module")
def dosepl_result(ctx, qcp):
    return run_dosepl(
        ctx, qcp.dose_map_poly,
        config=DoseplConfig(top_k=200, rounds=6),
    )


class TestDosepl:
    def test_never_degrades(self, dosepl_result):
        """Accept/rollback discipline: golden MCT can only improve."""
        assert dosepl_result.mct <= dosepl_result.baseline_mct + 1e-12

    def test_history_monotone(self, dosepl_result):
        mcts = [m for _r, m, _l in dosepl_result.history]
        assert all(b <= a + 1e-12 for a, b in zip(mcts, mcts[1:]))

    def test_placement_stays_legal(self, ctx, dosepl_result):
        assert not has_overlaps(
            dosepl_result.placement, ctx.netlist, ctx.library
        )
        assert len(dosepl_result.placement) == ctx.netlist.n_gates

    def test_original_placement_untouched(self, ctx, dosepl_result):
        """dosePl must work on a copy, not mutate the context placement."""
        fresh = ctx.analyzer.analyze()
        assert fresh.mct == pytest.approx(ctx.baseline.mct)
        assert dosepl_result.placement is not ctx.placement

    def test_rounds_bounded(self, dosepl_result):
        assert dosepl_result.rounds_run == 6
        assert dosepl_result.swaps_accepted <= 6

    def test_runtime_recorded(self, dosepl_result):
        assert dosepl_result.runtime > 0

    def test_top_k_paths_once_per_golden_result(self, ctx, qcp,
                                                 monkeypatch):
        """Rounds after a rollback or a zero-swap round reuse the ranked
        paths of the unchanged golden result: one ``top_k_paths`` call
        for the input, and one per accepted round that another round
        follows.  The result is the same as without the count."""
        from repro.core import dosepl

        # swaps three cells a round, so some rounds roll back
        cfg = DoseplConfig(top_k=200, rounds=6, swaps_per_path=2,
                           swaps_per_round=3)
        plain = run_dosepl(ctx, qcp.dose_map_poly, config=cfg)
        real = dosepl.top_k_paths
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(dosepl, "top_k_paths", counting)
        res = run_dosepl(ctx, qcp.dose_map_poly, config=cfg)

        mcts = [m for _r, m, _l in res.history]
        accepted = [b < a for a, b in zip(mcts, mcts[1:])]
        assert sum(accepted) == res.swaps_accepted
        assert not all(accepted)
        assert len(calls) == 1 + sum(accepted[:-1]) < cfg.rounds
        # a distinct golden result per call (``calls`` keeps them alive)
        assert len({id(result) for result in calls}) == len(calls)
        for field in ("mct", "leakage", "baseline_mct", "swaps_accepted",
                      "swaps_attempted", "rounds_run", "history",
                      "swaps_trial_rejected"):
            assert getattr(res, field) == getattr(plain, field), field
        assert dict(res.placement.items()) == dict(plain.placement.items())


class TestSweep:
    def test_sweep_monotone_trends(self, ctx):
        points = uniform_dose_sweep(ctx, doses=[-4.0, -2.0, 0.0, 2.0, 4.0])
        mcts = [p.mct for p in points]
        leaks = [p.leakage for p in points]
        assert all(b < a for a, b in zip(mcts, mcts[1:]))  # more dose=faster
        assert all(b > a for a, b in zip(leaks, leaks[1:]))  # and leakier

    def test_zero_dose_point_is_baseline(self, ctx):
        (point,) = uniform_dose_sweep(ctx, doses=[0.0])
        assert point.mct == pytest.approx(ctx.baseline.mct)
        assert point.mct_improvement_pct == pytest.approx(0.0)
        assert point.leakage == pytest.approx(ctx.baseline_leakage)

    def test_no_free_lunch(self, ctx):
        """The paper's motivating claim: no uniform dose improves both."""
        for p in uniform_dose_sweep(ctx, doses=[-3.0, -1.0, 1.0, 3.0]):
            improves_both = (
                p.mct_improvement_pct > 0.1
                and p.leakage_improvement_pct > 0.1
            )
            assert not improves_both

    def test_bias_critical_paths(self, ctx):
        res, leak, doses = bias_critical_paths(ctx, k=50)
        assert res.mct < ctx.baseline.mct  # timing headroom exposed
        assert leak > ctx.baseline_leakage  # at a leakage cost
        boosted = [g for g, (dp, _da) in doses.items() if dp > 0]
        assert 0 < len(boosted) < ctx.netlist.n_gates


class TestFlow:
    def test_flow_with_dosepl(self):
        flow = run_flow(
            DesignContext(make_design("AES-90", scale=0.3)),
            grid_size=10.0,
            mode="qcp",
            with_dosepl=True,
            dosepl_config=DoseplConfig(top_k=100, rounds=3),
        )
        assert flow.final_mct <= flow.ctx.baseline.mct
        assert flow.dosepl is not None
        assert flow.final_leakage > 0
        text = flow.summary()
        assert "after DMopt" in text and "after dosePl" in text

    def test_flow_without_dosepl(self, ctx):
        flow = run_flow(ctx, grid_size=10.0, mode="qp", with_dosepl=False)
        assert flow.dosepl is None
        assert flow.final_mct == flow.dmopt.mct
        assert "dosePl" not in flow.summary()


class TestAggressiveDosepl:
    def test_aggressive_never_worse(self, ctx, qcp, dosepl_result):
        """The improved (TCAD) swapping strategy explores more moves;
        accept/rollback guarantees it cannot end worse than the base
        config's result by more than golden-noise."""
        from repro.core import DoseplConfig, run_dosepl

        aggressive = run_dosepl(
            ctx, qcp.dose_map_poly,
            config=DoseplConfig(top_k=200, rounds=6, swaps_per_path=2,
                                swaps_per_round=3),
        )
        assert aggressive.mct <= aggressive.baseline_mct + 1e-12
        assert aggressive.mct <= dosepl_result.mct + 5e-3

    def test_aggressive_preset_shape(self):
        from repro.core import DoseplConfig

        cfg = DoseplConfig.aggressive()
        assert cfg.swaps_per_round > 1
        assert cfg.rounds >= 10

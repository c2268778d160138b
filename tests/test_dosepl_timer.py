"""dosePl's one timer: in step with the work placement at every round,
and its round signoff equal to a fresh golden evaluation."""

import inspect
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DesignContext, DoseplConfig, dosepl, optimize_dose_map
from repro.dosemap import DoseMap, GridPartition
from repro.library import CellLibrary
from repro.netlist import make_design
from repro.sta.compiled import VectorTimingAnalyzer
from tests.oracles.netlists import random_dag_context

#: Timing state a fresh bind must reproduce at each round's entry.
STATE_KEYS = ("arrival", "loads", "vids", "cap")


@contextmanager
def round_entries(ctx):
    """Wrap ``dosepl._try_round`` for the block.

    Yields a list that gets one entry per round: what differs, at the
    round's entry, between the run's timer and a fresh bind of the work
    placement timed at every gate's dose -- the state arrays, the
    coordinates, the trial MCT.  An empty entry means in step.
    """
    real = dosepl._try_round
    signature = inspect.signature(real)
    entries = []

    def checked(*args, **kwargs):
        arg = signature.bind(*args, **kwargs).arguments
        work, timer = arg["trial"], arg["timer"]
        fresh = ctx.analyzer.rebind(work)
        mct = fresh.mct(ctx.gate_dose_array(arg["dose_map"], placement=work))
        stale = [
            key for key in STATE_KEYS
            if not np.array_equal(timer._state[key], fresh._state[key])
        ]
        stale += [
            key for key in ("_x", "_y")
            if not np.array_equal(getattr(timer, key), getattr(fresh, key))
        ]
        if arg["trial_best"] != mct:
            stale.append("trial_best")
        if timer.placement is not work:
            stale.append("placement")
        entries.append(stale)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dosepl, "_try_round", checked)
        yield entries


@pytest.fixture(scope="module")
def aes65():
    ctx = DesignContext(make_design("AES-65", scale=0.3), seed=7)
    qcp = optimize_dose_map(ctx, grid_size=5.0, mode="qcp")
    return ctx, qcp.dose_map_poly


@pytest.mark.parametrize(
    "config", [DoseplConfig(trial_budget=1), DoseplConfig()],
    ids=["trial_budget=1", "default"],
)
def test_timer_in_step_at_every_round(aes65, config):
    """A swap kept after the round's trial budget is spent moves the
    timer too, so no later round screens swaps on stale geometry."""
    ctx, dose_map = aes65
    with round_entries(ctx) as entries:
        dosepl.run_dosepl(ctx, dose_map, config=config)
    assert entries == [[]] * config.rounds


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_gates=st.integers(30, 120),
       trial_budget=st.sampled_from((0, 1, 2, 32)))
def test_signoff_equals_golden_eval(lib65, seed, n_gates, trial_budget):
    """On generated designs under a random dose map, the result is what
    ``golden_eval`` signs its placement off at, the run binds one
    analyzer, and the timer is in step at every round.  A top-K of 5
    leaves non-critical swap partners on a small DAG."""
    ctx = random_dag_context(seed, n_gates, lib65)
    die = ctx.placement.die
    part = GridPartition(die.width, die.height, 5.0)
    values = np.random.default_rng(seed).uniform(-5.0, 5.0, (part.m, part.n))
    dose_map = DoseMap(part, values=values)
    cfg = DoseplConfig(top_k=5, swaps_per_path=2, swaps_per_round=3,
                       trial_budget=trial_budget)
    binds = []
    real_init = VectorTimingAnalyzer.__init__

    def counted_init(self, *args, **kwargs):
        binds.append(self)
        real_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorTimingAnalyzer, "__init__", counted_init)
        with round_entries(ctx) as entries:
            res = dosepl.run_dosepl(ctx, dose_map, config=cfg)
    golden, leakage = ctx.golden_eval(dose_map, placement=res.placement)
    assert res.mct == golden.mct
    assert res.leakage == leakage
    assert entries == [[]] * cfg.rounds
    # the run's timer; every other bind is a round-entry reference
    assert len(binds) == 1 + len(entries)

"""Differential and property tests: the STA engine vs the reference oracle.

The compiled engine (:mod:`repro.sta.compiled`) must be numerically
indistinguishable from the per-gate dict engine kept in
``tests/oracles/sta.py`` -- same arrivals, slacks,
MCT, slews, loads, wire delays, endpoint labels -- for any design, dose
assignment, and placement-mutation history.  These tests pin that down
with fixed designs, hypothesis-randomized DAGs, and random swap
sequences against from-scratch re-analysis.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

import repro.sta
from repro.core import DesignContext
from repro.library import CellLibrary
from repro.netlist import Netlist, make_design
from repro.placement import Die, Placement, place_design
from repro.sta import VectorTimingAnalyzer, make_analyzer
from repro.sta.compiled import CompiledTimingGraph, lex_max_reduce
from tests.oracles.netlists import random_dag, random_doses
from tests.oracles.sta import TimingAnalyzer, beats_worst_pin

ATOL = 1e-9


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


def assert_equivalent(ref_res, vec_res, atol=ATOL):
    """Field-by-field equality of two TimingResult objects."""
    assert vec_res.mct == pytest.approx(ref_res.mct, abs=atol)
    for field in ("arrival", "slack", "gate_delay", "input_slew", "load"):
        r, v = getattr(ref_res, field), getattr(vec_res, field)
        assert set(r) == set(v)
        for k in r:
            assert v[k] == pytest.approx(r[k], abs=atol), (field, k)
    assert set(ref_res.wire_delay) == set(vec_res.wire_delay)
    for k in ref_res.wire_delay:
        assert vec_res.wire_delay[k] == pytest.approx(
            ref_res.wire_delay[k], abs=atol
        ), ("wire_delay", k)
    assert set(ref_res.endpoint_arrival) == set(vec_res.endpoint_arrival)
    for k in ref_res.endpoint_arrival:
        assert vec_res.endpoint_arrival[k] == pytest.approx(
            ref_res.endpoint_arrival[k], abs=atol
        ), ("endpoint", k)


class TestDifferentialFixedDesigns:
    @pytest.fixture(scope="class")
    def aes(self):
        bundle = make_design("AES-65", scale=0.3)
        pl = place_design(bundle, seed=7)
        return bundle, pl

    def test_nominal(self, aes):
        bundle, pl = aes
        r = TimingAnalyzer(bundle.netlist, bundle.library, pl).analyze()
        v = VectorTimingAnalyzer(bundle.netlist, bundle.library, pl).analyze()
        assert_equivalent(r, v)

    def test_random_full_doses(self, aes):
        bundle, pl = aes
        doses = random_doses(bundle.netlist, bundle.library, seed=3)
        r = TimingAnalyzer(bundle.netlist, bundle.library, pl).analyze(doses)
        v = VectorTimingAnalyzer(bundle.netlist, bundle.library, pl).analyze(doses)
        assert_equivalent(r, v)

    def test_partial_doses_and_period(self, aes):
        bundle, pl = aes
        doses = random_doses(bundle.netlist, bundle.library, seed=9,
                             fraction=0.3)
        r = TimingAnalyzer(bundle.netlist, bundle.library, pl).analyze(
            doses, clock_period=5.0
        )
        v = VectorTimingAnalyzer(bundle.netlist, bundle.library, pl).analyze(
            doses, clock_period=5.0
        )
        assert_equivalent(r, v)

    def test_repeated_calls_are_stable(self, aes):
        """Warm (incremental) re-analysis must equal the first pass."""
        bundle, pl = aes
        vec = VectorTimingAnalyzer(bundle.netlist, bundle.library, pl)
        doses = random_doses(bundle.netlist, bundle.library, seed=4)
        first = vec.analyze(doses)
        second = vec.analyze(doses)  # no dirty work at all
        assert_equivalent(first, second, atol=0.0)
        nominal = vec.analyze()  # dose flip: full dirty cone
        r = TimingAnalyzer(bundle.netlist, bundle.library, pl).analyze()
        assert_equivalent(r, nominal)


class TestDifferentialRandomDesigns:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10_000), n_gates=st.integers(3, 40))
    def test_random_dag_equivalence(self, lib65, seed, n_gates):
        nl, pl = random_dag(seed, n_gates, lib65)
        doses = random_doses(nl, lib65, seed=seed + 1, fraction=0.5)
        r = TimingAnalyzer(nl, lib65, pl).analyze(doses)
        v = VectorTimingAnalyzer(nl, lib65, pl).analyze(doses)
        assert_equivalent(r, v)


class TestIncrementalRetiming:
    def test_swap_sequence_matches_scratch(self, lib65):
        bundle = make_design("AES-65", scale=0.3)
        nl, lib = bundle.netlist, bundle.library
        pl = place_design(bundle, seed=7)
        rng = random.Random(21)
        gates = list(nl.gates)
        doses = random_doses(nl, lib, seed=2)

        vec = VectorTimingAnalyzer(nl, lib, pl)
        vec.mct(doses)
        for step in range(25):
            a, b = rng.sample(gates, 2)
            pl.swap(a, b)
            upd = {
                a: (lib.snap_dose(rng.uniform(-6, 6)), 0.0),
                b: (lib.snap_dose(rng.uniform(-6, 6)), 0.0),
            }
            doses.update(upd)
            vec.update_placement((a, b))
            m_inc = vec.trial_mct(upd)
            m_scratch = VectorTimingAnalyzer(
                nl, lib, pl, graph=vec.graph
            ).mct(doses)
            assert m_inc == pytest.approx(m_scratch, abs=0.0), step
        # and the final state still matches the reference oracle exactly
        r = TimingAnalyzer(nl, lib, pl).analyze(doses)
        assert_equivalent(r, vec.analyze(doses))

    def test_undo_restores_state(self, lib65):
        bundle = make_design("AES-65", scale=0.3)
        nl, lib = bundle.netlist, bundle.library
        pl = place_design(bundle, seed=7)
        vec = VectorTimingAnalyzer(nl, lib, pl)
        m0 = vec.mct()
        a, b = list(nl.gates)[10], list(nl.gates)[200]
        pl.swap(a, b)
        vec.update_placement((a, b))
        vec.trial_mct()
        pl.swap(a, b)
        vec.update_placement((a, b))
        assert vec.trial_mct() == pytest.approx(m0, abs=0.0)

    def test_result_outlives_later_passes(self, lib65):
        """A result's dicts are built on first read, from the pass's own
        arrays: a later incremental pass, placement update or analyze on
        the same engine does not reach them."""
        bundle = make_design("AES-65", scale=0.2)
        nl, lib = bundle.netlist, bundle.library
        pl = place_design(bundle, seed=7)
        doses = random_doses(nl, lib, seed=3)
        vec = VectorTimingAnalyzer(nl, lib, pl)
        kept = vec.analyze(doses)
        want = TimingAnalyzer(nl, lib, pl.copy()).analyze(doses)
        a, b = list(nl.gates)[5], list(nl.gates)[150]
        pl.swap(a, b)
        vec.update_placement((a, b))
        vec.trial_mct({a: (5.0, 0.0), b: (-5.0, 0.0)})
        vec.analyze({a: (2.5, 0.0)}, clock_period=1.0)
        assert kept == want
        assert kept.arrays.gate_delay.tolist() == list(want.gate_delay.values())

    def test_dose_array_equals_dose_dict(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        nl, lib = bundle.netlist, bundle.library
        doses = random_doses(nl, lib, seed=4, fraction=0.5)
        vec = VectorTimingAnalyzer(nl, lib, place_design(bundle, seed=7))
        from_dict = vec.analyze(doses)
        from_array = vec.analyze(nl.dose_array(doses))
        assert from_array == from_dict
        assert vec.graph.vids_for(nl.dose_array(doses)).tolist() == (
            vec.graph.vids_for(doses).tolist()
        )

    def test_trial_mct_requires_seeded_state(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        pl = place_design(bundle, seed=7)
        vec = VectorTimingAnalyzer(bundle.netlist, bundle.library, pl)
        with pytest.raises(RuntimeError):
            vec.trial_mct()


_STATE_KEYS = ("arrival", "out_slew", "gate_delay", "in_slew", "loads",
               "vids", "cap")


def _state_equal(vec, fresh):
    for key in _STATE_KEYS:
        assert np.array_equal(vec._state[key], fresh._state[key]), key


def _largest_cone_gate(graph):
    """The gate whose combinational fanout cone is largest."""
    best, best_size = None, -1
    for gid in range(graph.n):
        seen, stack = set(), [gid]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(graph.comb_fanout[v])
        if len(seen) > best_size:
            best, best_size = gid, len(seen)
    return graph.names[best], best_size


def _swap_accept_reject(nl, lib, pl, seed, n_steps, big_cone_every=0,
                        wide_every=0):
    """Random swap + dose trials, each accepted or reverted; after every
    step the cached state equals a from-scratch pass bit for bit.

    Every ``big_cone_every``-th swap moves the gate with the largest
    fanout cone; every ``wide_every``-th trial also re-doses 40 % of the
    gates, past the incremental engine's full-pass limit.  Returns the
    kind of each trial pass ("cone" or "full")."""
    rng = random.Random(seed)
    placed = [g for g in nl.gates if pl.is_placed(g)]
    doses = random_doses(nl, lib, seed=seed, fraction=0.5)
    vec = VectorTimingAnalyzer(nl, lib, pl)
    vec.mct(doses)
    big, _size = _largest_cone_gate(vec.graph)
    kinds = []
    for step in range(n_steps):
        if big_cone_every and step % big_cone_every == 0 and big in placed:
            a = big
            b = rng.choice([g for g in placed if g != big])
        else:
            a, b = rng.sample(placed, 2)
        pl.swap(a, b)
        wide = wide_every and step % wide_every == 1
        upd = {
            g: (lib.snap_dose(rng.uniform(-6, 6)), 0.0)
            for g in nl.gates
            if g in (a, b) and rng.random() < 0.8
            or wide and rng.random() < 0.4
        }
        vec.update_placement((a, b))
        vec.trial_mct(upd)
        kinds.append(vec._undo[0])
        if rng.random() < 0.5:  # accept
            doses.update(upd)
        else:  # reject: put the cells back, drop the pass
            pl.swap(a, b)
            vec.update_placement((a, b))
            vec.revert_trial()
        fresh = VectorTimingAnalyzer(nl, lib, pl, graph=vec.graph)
        fresh.mct(doses)
        _state_equal(vec, fresh)  # before any further pass on ``vec``
        assert vec.mct(doses) == fresh.mct(doses), step
    return kinds


_WIRE_KEYS = ("_fi_rw", "_fi_cw", "_fo_rw", "_fo_cw", "_ff_rw", "_ff_cw",
              "_wire_cap")


class TestIncrementalGeometry:
    """``update_placement`` refreshes the wire arrays a move touches with
    the kernels a fresh bind runs over the whole design, so after any
    move sequence the engine's wire arrays and net loads are exactly a
    fresh ``rebind``'s."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(4, 50),
        moves=st.lists(
            st.tuples(st.booleans(), st.integers(0, 999),
                      st.integers(0, 999), st.booleans()),
            min_size=1, max_size=10,
        ),
    )
    def test_moves_match_rebind(self, lib65, seed, n_gates, moves):
        nl, pl = random_dag(seed, n_gates, lib65, shared_pins=seed % 2 == 0)
        rng = random.Random(seed)
        names = list(nl.gates)
        doses = random_doses(nl, lib65, seed=seed, fraction=0.5)
        vec = VectorTimingAnalyzer(nl, lib65, pl)
        vec.mct(doses)
        for swap, i, j, redose in moves:
            a, b = names[i % len(names)], names[j % len(names)]
            if swap and a != b and pl.is_placed(a) and pl.is_placed(b):
                pl.swap(a, b)
                moved = (a, b)
            else:  # move a (placing it, if it was not) to a new site
                pl.place(a, round(rng.uniform(0, 58.0), 1),
                         1.8 * rng.randrange(6))
                moved = (a,)
            vec.update_placement(moved)
            upd = ({a: (lib65.snap_dose(rng.uniform(-6, 6)), 0.0)}
                   if redose else {})
            doses.update(upd)
            vec.trial_mct(upd)
            fresh = vec.rebind(pl)
            fresh.mct(doses)
            for key in _WIRE_KEYS:
                assert np.array_equal(getattr(vec, key),
                                      getattr(fresh, key)), key
            assert np.array_equal(vec._state["loads"],
                                  fresh._state["loads"])


class TestTrialRevert:
    """``revert_trial`` restores exactly the state a re-timing pass over
    the undone move would compute."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), n_gates=st.integers(8, 60))
    def test_random_dags(self, lib65, seed, n_gates):
        nl, pl = random_dag(seed, n_gates, lib65)
        if sum(pl.is_placed(g) for g in nl.gates) < 2:
            return
        kinds = _swap_accept_reject(nl, lib65, pl, seed, 12,
                                    big_cone_every=3)
        big, size = _largest_cone_gate(CompiledTimingGraph(nl, lib65))
        if pl.is_placed(big) and size > 0.35 * len(nl.gates):
            assert "full" in kinds

    def test_design_with_full_pass_fallback(self, lib65):
        bundle = make_design("AES-65", scale=0.3)
        nl, lib = bundle.netlist, bundle.library
        pl = place_design(bundle, seed=7)
        kinds = _swap_accept_reject(nl, lib, pl, 5, 24, big_cone_every=4,
                                    wide_every=4)
        assert {"full", "cone"} <= set(kinds)

    def test_revert_after_full_dose_change(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        nl, lib = bundle.netlist, bundle.library
        pl = place_design(bundle, seed=7)
        vec = VectorTimingAnalyzer(nl, lib, pl)
        m0 = vec.mct()
        before = {k: vec._state[k].copy() for k in _STATE_KEYS}
        vec.trial_mct({name: (2.5, 0.0) for name in nl.gates})
        assert vec._undo[0] == "full"
        vec.revert_trial()
        assert vec.trial_mct() == m0
        for key in _STATE_KEYS:
            assert np.array_equal(vec._state[key], before[key]), key

    def test_revert_needs_a_pass(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        pl = place_design(bundle, seed=7)
        vec = VectorTimingAnalyzer(bundle.netlist, bundle.library, pl)
        with pytest.raises(RuntimeError):
            vec.revert_trial()
        vec.mct()
        vec.trial_mct({next(iter(bundle.netlist.gates)): (1.0, 0.0)})
        vec.revert_trial()
        with pytest.raises(RuntimeError):  # one pass is undone once
            vec.revert_trial()


class TestTieBreak:
    def test_lex_max_kernel(self):
        # segment 0: equal arrivals -> larger slew wins
        # segment 1: strictly larger arrival wins despite smaller slew
        arr = np.array([5.0, 5.0, 4.0, 7.0, 6.0])
        slew = np.array([0.2, 0.9, 1.5, 0.1, 2.0])
        starts = np.array([0, 3])
        seg_of = np.array([0, 0, 0, 1, 1])
        best_arr, best_slew = lex_max_reduce(arr, slew, starts, seg_of)
        assert best_arr.tolist() == [5.0, 7.0]
        assert best_slew.tolist() == [0.9, 0.1]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_scan_and_vector_kernels_agree(self, data):
        """Both backends' worst-pin selections are the same ordering.

        Random pin sets with *forced exact-arrival ties* (values drawn
        from a tiny pool so collisions are common): the reference
        engine's sequential scan (``beats_worst_pin``, seeded with the
        virtual primary-input pin) must pick exactly what the vectorized
        segment reduction picks.
        """
        pool = [0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.0]
        n = data.draw(st.integers(1, 8))
        arr = [data.draw(st.sampled_from(pool)) for _ in range(n)]
        slew = [data.draw(st.sampled_from(pool)) for _ in range(n)]
        init_slew = data.draw(st.sampled_from(pool))

        # reference scan, init (0.0, input_slew) like the dict engine
        best_a, best_s = 0.0, init_slew
        for a, s in zip(arr, slew):
            if beats_worst_pin(a, s, best_a, best_s):
                best_a, best_s = a, s

        # vector reduction over one segment with the virtual arc first
        va = np.array([0.0] + arr)
        vs = np.array([init_slew] + slew)
        got_a, got_s = lex_max_reduce(
            va, vs, np.array([0]), np.zeros(len(va), dtype=int)
        )
        assert (got_a[0], got_s[0]) == (best_a, best_s)

    def test_duplicate_net_pins(self, lib65):
        """Both pins of a gate on the same net: a genuine exact tie."""
        nl = Netlist("tie")
        nl.add_primary_input("a")
        nl.add_gate("u0", "INVX1", ["a"], "n0")
        nl.add_gate("g", "NAND2X1", ["n0", "n0"], "out")
        nl.add_primary_output("out")
        die = Die(width=40.0, height=9.0, row_height=1.8, site_width=0.2)
        pl = Placement(die)
        pl.place("u0", 0.0, 0.0)
        pl.place("g", 2.0, 1.8)
        r = TimingAnalyzer(nl, lib65, pl).analyze()
        v = VectorTimingAnalyzer(nl, lib65, pl).analyze()
        assert_equivalent(r, v, atol=0.0)


class TestBackendFactory:
    def test_default_backend_is_vector(self):
        """Every engine the flow builds is the compiled one, on one graph;
        no backend switch is left to default."""
        ctx = DesignContext(make_design("AES-65", scale=0.2))
        other = place_design(ctx.bundle, seed=11)
        for eng in (ctx.analyzer, ctx.analyzer_for(other)):
            assert isinstance(eng, VectorTimingAnalyzer)
            assert eng.graph is ctx.timing_graph
        assert not hasattr(repro.sta, "DEFAULT_STA_BACKEND")

    def test_make_analyzer_types(self, lib65):
        nl = Netlist("f")
        nl.add_primary_input("a")
        nl.add_gate("u", "INVX1", ["a"], "o")
        nl.add_primary_output("o")
        die = Die(width=40.0, height=9.0, row_height=1.8, site_width=0.2)
        pl = Placement(die)
        pl.place("u", 1.0, 0.0)
        assert isinstance(make_analyzer(nl, lib65, pl), VectorTimingAnalyzer)
        with pytest.raises(TypeError):
            make_analyzer(nl, lib65, pl, backend="vector")

    def test_graph_sharing_via_rebind(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        pl = place_design(bundle, seed=7)
        vec = VectorTimingAnalyzer(bundle.netlist, bundle.library, pl)
        other = place_design(bundle, seed=11)
        vec2 = vec.rebind(other)
        assert vec2.graph is vec.graph
        r = TimingAnalyzer(bundle.netlist, bundle.library, other).analyze()
        assert_equivalent(r, vec2.analyze())

    def test_graph_design_mismatch_rejected(self, lib65):
        b1 = make_design("AES-65", scale=0.2)
        b2 = make_design("AES-90", scale=0.2)
        g1 = CompiledTimingGraph(b1.netlist, b1.library)
        pl = place_design(b2, seed=7)
        with pytest.raises(ValueError):
            VectorTimingAnalyzer(b2.netlist, b2.library, pl, graph=g1)


class TestReferenceCaches:
    """The satellite fixes: per-call variant memo + nominal-load cache."""

    def test_nominal_loads_cached_and_reused(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        pl = place_design(bundle, seed=7)
        ta = TimingAnalyzer(bundle.netlist, bundle.library, pl)
        first = ta.analyze()
        assert ta._nominal_loads is not None
        assert ta._net_loads(None) is ta._nominal_loads
        second = ta.analyze()
        assert_equivalent(first, second, atol=0.0)

    def test_invalidate_caches_after_move(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        pl = place_design(bundle, seed=7)
        ta = TimingAnalyzer(bundle.netlist, bundle.library, pl)
        ta.analyze()
        a, b = list(bundle.netlist.gates)[:2]
        pl.swap(a, b)
        ta.invalidate_caches()
        assert ta._nominal_loads is None
        fresh = TimingAnalyzer(bundle.netlist, bundle.library, pl).analyze()
        assert_equivalent(fresh, ta.analyze(), atol=0.0)

    def test_dosed_calls_do_not_pollute_nominal_cache(self, lib65):
        bundle = make_design("AES-65", scale=0.2)
        pl = place_design(bundle, seed=7)
        ta = TimingAnalyzer(bundle.netlist, bundle.library, pl)
        doses = random_doses(bundle.netlist, bundle.library, seed=5)
        ta.analyze(doses)
        assert ta._nominal_loads is None

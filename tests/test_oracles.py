"""Generated-netlist oracle suite: ``src/`` engines vs ``tests/oracles/``.

Each property runs on random placed DAGs (``tests/oracles/netlists.py``)
that always include one gate reading the same net on both pins, so
paths through that pair exist twice:

* the STA engine's :class:`TimingResult` ``==`` the reference timer's;
* :func:`repro.sta.top_k_paths` on the compiled graph ``==`` the dict
  enumerator for K = 1, 10 and every path, duplicates included;
* :func:`repro.core.formulate.build_formulation` emits the matrices of
  the per-gate ``add_row`` reference;
* the pruning mask keeps exactly the rows the per-gate longest-path
  loops of ``tests/oracles/prune.py`` keep.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.formulate import _timing_row_mask, build_formulation
from repro.library import CellLibrary
from repro.netlist import Netlist
from repro.placement import Die, Placement
from repro.sta import VectorTimingAnalyzer, top_k_paths
from tests.oracles import paths as path_oracle
from tests.oracles.formulate import (
    assert_formulations_identical,
    build_reference_formulation,
)
from tests.oracles.netlists import random_dag, random_dag_context, random_doses
from tests.oracles.prune import reference_row_mask
from tests.oracles.sta import TimingAnalyzer

#: K large enough to enumerate every path of a generated DAG.
ALL_PATHS = 10**6

generated = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(0, 10_000)


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


def _engines(seed, n_gates, lib, dose_fraction, placed=0.9):
    nl, pl = random_dag(seed, n_gates, lib, shared_pins=True, placed=placed)
    doses = random_doses(nl, lib, seed=seed + 1, fraction=dose_fraction)
    return (
        TimingAnalyzer(nl, lib, pl),
        VectorTimingAnalyzer(nl, lib, pl),
        doses,
    )


class TestGeneratedNetlists:
    @generated
    @given(seed=seeds, n_gates=st.integers(3, 40),
           fraction=st.sampled_from([0.25, 0.5, 1.0]))
    def test_sta_equals_oracle(self, lib65, seed, n_gates, fraction):
        oracle, vec, doses = _engines(seed, n_gates, lib65, fraction)
        assert vec.analyze(doses) == oracle.analyze(doses)
        assert vec.analyze() == oracle.analyze()

    @generated
    @given(seed=seeds, n_gates=st.integers(3, 30),
           fraction=st.sampled_from([0.25, 1.0]),
           placed=st.sampled_from([0.9, 0.0]))
    def test_top_k_paths_equal_oracle(self, lib65, seed, n_gates, fraction,
                                      placed):
        """Unplaced DAGs (``placed=0``) tie many paths exactly, so the
        push order decides which of them come first."""
        oracle, vec, doses = _engines(seed, n_gates, lib65, fraction, placed)
        res = vec.analyze(doses)
        nl = oracle.netlist
        for k in (1, 10, ALL_PATHS):
            assert top_k_paths(vec.graph, res, k) == path_oracle.top_k_paths(
                nl, lib65, res, k
            ), k
        # both pins of "dup" read one net: every path into it is doubled
        into_dup = Counter(
            p for p in top_k_paths(vec.graph, res, ALL_PATHS)
            if p.gates[-1] == "dup"
        )
        assert into_dup and all(c % 2 == 0 for c in into_dup.values())

    def test_exact_ties_follow_netlist_order(self, lib65):
        """Two mirrored flop -> NAND2 cones with no wires tie exactly.
        The NAND2s, sources through their primary input, come in the
        reverse order in the netlist and in the graph; the ties must
        resolve in netlist order, as the dict enumerator resolves them."""
        nl = Netlist("ties")
        for pi in ("a", "d1", "d2"):
            nl.add_primary_input(pi)
        nl.add_gate("m2", "NAND2X1", ["a", "q2"], "o2")
        nl.add_gate("m1", "NAND2X1", ["a", "q1"], "o1")
        nl.add_gate("f1", "DFFRX1", ["d1"], "q1")
        nl.add_gate("f2", "DFFRX1", ["d2"], "q2")
        for po in ("o1", "o2"):
            nl.add_primary_output(po)
        unplaced = Placement(Die(width=20.0, height=9.0, row_height=1.8,
                                 site_width=0.2))
        vec = VectorTimingAnalyzer(nl, lib65, unplaced)
        res = vec.analyze()
        paths = top_k_paths(vec.graph, res, ALL_PATHS)
        assert vec.graph.names.index("m1") < vec.graph.names.index("m2")
        assert [p.gates for p in paths if len(p) == 1] == [("m2",), ("m1",)]
        assert paths == path_oracle.top_k_paths(nl, lib65, res, ALL_PATHS)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=seeds, n_gates=st.integers(5, 60), grid=st.sampled_from(
        [5.0, 10.0]), seam=st.booleans())
    def test_formulation_equals_oracle(self, lib65, seed, n_gates, grid, seam):
        ctx = random_dag_context(seed, n_gates, lib65, shared_pins=True)
        assert_formulations_identical(
            build_reference_formulation(ctx, grid, seam_smoothness=seam),
            build_formulation(ctx, grid, seam_smoothness=seam),
        )

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=seeds, n_gates=st.integers(5, 60), both=st.booleans(),
           prune_range=st.sampled_from([5.0, 7.0]))
    def test_prune_mask_equals_oracle(self, lib65, seed, n_gates, both,
                                      prune_range):
        ctx = random_dag_context(seed, n_gates, lib65, shared_pins=True,
                                 fit_width=both)
        assert np.array_equal(
            _timing_row_mask(ctx, both, prune_range),
            reference_row_mask(ctx, both, prune_range),
        )

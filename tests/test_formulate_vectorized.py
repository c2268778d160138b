"""Differential tests: block-COO formulation assembly vs the loop builder.

The block-wise COO assembler (:func:`build_formulation`) must emit
exactly the matrices the readable per-gate ``add_row`` reference in
``tests/oracles/formulate.py`` emits -- same ``A`` entries (compared as
canonically sorted COO triplets), same bounds, same leakage quadratic,
same row bookkeeping -- for any design, layer setting, and seam
setting.  Plus the formulation cache/retarget contract.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DesignContext
from repro.core.formulate import build_formulation, prune_formulation
from repro.library import CellLibrary
from tests.oracles.formulate import (
    assert_formulations_identical,
    build_reference_formulation,
)
from tests.oracles.netlists import random_dag_context


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


@pytest.fixture(scope="module")
def aes_ctx():
    return DesignContext("AES-65")


@pytest.fixture(scope="module")
def aes_ctx_w():
    return DesignContext("AES-65", fit_width=True)


def both_builders(ctx, grid_size, **kwargs):
    ref = build_reference_formulation(ctx, grid_size, **kwargs)
    vec = build_formulation(ctx, grid_size, **kwargs)
    return ref, vec


class TestDifferentialFixedDesign:
    @pytest.mark.parametrize("seam", [False, True])
    @pytest.mark.parametrize("grid", [5.0, 10.0, 30.0])
    def test_poly_only(self, aes_ctx, grid, seam):
        ref, vec = both_builders(aes_ctx, grid, seam_smoothness=seam)
        assert_formulations_identical(ref, vec)

    @pytest.mark.parametrize("seam", [False, True])
    @pytest.mark.parametrize("both_layers", [False, True])
    def test_both_layers(self, aes_ctx_w, both_layers, seam):
        ref, vec = both_builders(
            aes_ctx_w, 10.0, both_layers=both_layers, seam_smoothness=seam
        )
        assert_formulations_identical(ref, vec)

    def test_nondefault_bounds(self, aes_ctx):
        ref, vec = both_builders(
            aes_ctx, 10.0, dose_range=3.5, smoothness=1.25
        )
        assert_formulations_identical(ref, vec)

    def test_small_dense_equality(self, lib65):
        """On a tiny DAG the dense matrices must match element-wise."""
        ctx = random_dag_context(seed=5, n_gates=25, lib=lib65)
        ref, vec = both_builders(ctx, 10.0)
        assert np.array_equal(ref.A.toarray(), vec.A.toarray())


class TestDifferentialRandomDAGs:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(10, 120),
        seam=st.booleans(),
    )
    def test_random_dag(self, lib65, seed, n_gates, seam):
        ctx = random_dag_context(seed, n_gates, lib65)
        ref, vec = both_builders(ctx, 5.0, seam_smoothness=seam)
        assert_formulations_identical(ref, vec)


class TestFormulationCacheRetarget:
    def test_cache_hit_shares_matrices(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0)
        f2 = aes_ctx.formulation_for(10.0)
        assert f2.A is f1.A
        assert f2.P_leak is f1.P_leak

    def test_retarget_only_changes_bounds(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0, dose_range=5.0, smoothness=2.0)
        f2 = aes_ctx.formulation_for(10.0, dose_range=4.0, smoothness=1.0)
        assert f2.A is f1.A  # structure shared, no reassembly
        assert f2.shared is f1.shared  # solver workspaces carry over
        fresh = prune_formulation(aes_ctx, build_formulation(
            aes_ctx, 10.0, dose_range=4.0, smoothness=1.0
        ))
        assert np.array_equal(f2.l, fresh.l)
        assert np.array_equal(f2.u, fresh.u)

    def test_retarget_matches_fresh_build_everywhere(self, aes_ctx):
        """The cache serves the pruned fresh build, bounds retargeted."""
        f = aes_ctx.formulation_for(30.0, dose_range=2.5, smoothness=0.75)
        fresh = prune_formulation(aes_ctx, build_formulation(
            aes_ctx, 30.0, dose_range=2.5, smoothness=0.75
        ))
        assert_formulations_identical(fresh, f)
        assert f.prune_range == fresh.prune_range == 5.0

    def test_retarget_noop_returns_self(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0)
        assert f1.retarget() is f1
        assert f1.retarget(dose_range=f1.dose_range) is f1

    def test_distinct_structures_cached_separately(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0)
        f2 = aes_ctx.formulation_for(10.0, seam_smoothness=True)
        assert f1.A.shape[0] < f2.A.shape[0]
        assert aes_ctx.formulation_for(10.0).A is f1.A


#: Assembles one random DAG with both builders and prints a digest of
#: each program's bytes (``A``, ``l``, ``u``).
_ASSEMBLE = """
import hashlib
from repro.core.formulate import build_formulation
from repro.library import CellLibrary
from tests.oracles.formulate import build_reference_formulation
from tests.oracles.netlists import random_dag_context

ctx = random_dag_context(7, 40, CellLibrary("65nm"))
for build in (build_formulation, build_reference_formulation):
    f = build(ctx, 10.0)
    A = f.A.tocsc()
    digest = hashlib.sha256()
    for part in (A.indptr, A.indices, A.data, f.l, f.u):
        digest.update(part.tobytes())
    print(digest.hexdigest())
"""


class TestEndpointRowOrder:
    def test_independent_of_hash_seed(self):
        """A gate of this DAG drives several flip-flops: their endpoint
        rows follow the net's sink order, not the order of a set of
        gate names, so processes with different string hashes (a
        resumed run, spawned workers) assemble the same program."""
        root = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")])

        def digests(hash_seed):
            out = subprocess.run(
                [sys.executable, "-c", _ASSEMBLE], cwd=root, check=True,
                env=dict(env, PYTHONHASHSEED=str(hash_seed)),
                capture_output=True, text=True,
            ).stdout.split()
            assert len(out) == 2
            return out

        first = digests(0)
        assert first[0] == first[1]  # the oracle orders rows alike
        assert digests(1) == first

"""Reference formulation assembler: per-gate ``add_row`` loops, kept as
a test oracle.

:func:`_assemble_reference` is the readable golden model of the DMopt
matrices.  The production block-COO assembler
(:func:`repro.core.formulate.build_formulation`) must emit exactly the
same ``A`` entries, bounds, leakage quadratic and row bookkeeping; the
differential suites compare the two.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_SMOOTHNESS
from repro.core.formulate import Formulation, _seam_pairs
from repro.dosemap import GridPartition


def canonical_coo(A):
    """(row, col, val) triplets sorted row-major for exact comparison."""
    c = A.tocoo()
    order = np.lexsort((c.col, c.row))
    return c.row[order], c.col[order], c.data[order]


def assert_formulations_identical(ref, vec):
    assert ref.A.shape == vec.A.shape
    r1, c1, d1 = canonical_coo(ref.A)
    r2, c2, d2 = canonical_coo(vec.A)
    assert np.array_equal(r1, r2)
    assert np.array_equal(c1, c2)
    assert np.array_equal(d1, d2), "A values differ"
    assert np.array_equal(ref.l, vec.l)
    assert np.array_equal(ref.u, vec.u)
    assert np.array_equal(ref.P_leak.toarray(), vec.P_leak.toarray())
    assert np.array_equal(ref.q_leak, vec.q_leak)
    assert ref.row_clock == vec.row_clock
    assert ref.idx_T == vec.idx_T
    assert ref.n_gates == vec.n_gates
    assert ref.gate_grid == vec.gate_grid
    assert ref.gate_order == vec.gate_order
    assert ref.n_range_rows == vec.n_range_rows
    assert ref.n_smooth_rows == vec.n_smooth_rows


def build_reference_formulation(
    ctx,
    grid_size: float,
    both_layers: bool = False,
    dose_range: float = DEFAULT_DOSE_RANGE,
    smoothness: float = DEFAULT_SMOOTHNESS,
    seam_smoothness: bool = False,
) -> Formulation:
    """:func:`repro.core.formulate.build_formulation`'s contract, looped."""
    place = ctx.placement
    partition = GridPartition(place.die.width, place.die.height, grid_size)
    return _assemble_reference(
        ctx,
        partition,
        both_layers=both_layers,
        dose_range=dose_range,
        smoothness=smoothness,
        seam_smoothness=seam_smoothness,
    )


def _assemble_reference(
    ctx,
    partition: GridPartition,
    both_layers: bool,
    dose_range: float,
    smoothness: float,
    seam_smoothness: bool,
) -> Formulation:
    nl = ctx.netlist
    lib = ctx.library
    ds = lib.dose_sensitivity
    place = ctx.placement
    baseline = ctx.baseline

    g = partition.n_grids
    gate_grid = partition.assign_gates(place)

    gate_order = list(nl.gates)
    gate_idx = {name: i for i, name in enumerate(gate_order)}
    n = len(gate_order)
    off_active = g if both_layers else 0
    off_arr = g + off_active
    idx_T = off_arr + n
    n_vars = idx_T + 1

    rows, cols, vals = [], [], []
    lo, hi = [], []
    r = 0

    def add_row(entries, lb, ub):
        nonlocal r
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        lo.append(lb)
        hi.append(ub)
        r += 1

    # ---- (3)/(8) dose correction range
    n_layers = 2 if both_layers else 1
    for layer in range(n_layers):
        for k in range(g):
            add_row([(layer * g + k, 1.0)], -dose_range, dose_range)
    n_range_rows = r

    # ---- (4)/(9) smoothness
    for layer in range(n_layers):
        for (i1, j1), (i2, j2) in partition.neighbor_pairs():
            k1 = layer * g + partition.index_of(i1, j1)
            k2 = layer * g + partition.index_of(i2, j2)
            add_row([(k1, 1.0), (k2, -1.0)], -smoothness, smoothness)
        if seam_smoothness:
            for (i1, j1), (i2, j2) in _seam_pairs(partition):
                k1 = layer * g + partition.index_of(i1, j1)
                k2 = layer * g + partition.index_of(i2, j2)
                add_row([(k1, 1.0), (k2, -1.0)], -smoothness, smoothness)
    n_smooth_rows = r - n_range_rows

    # ---- (5)/(10) arrival propagation
    is_seq = {
        name: lib.cell(gate.master).is_sequential
        for name, gate in nl.gates.items()
    }
    seen_arcs = set()
    inf = np.inf
    for name in gate_order:
        gate = nl.gates[name]
        q_i = off_arr + gate_idx[name]
        fit = ctx.delay_fit_for(name)
        t0 = baseline.gate_delay[name]
        grid_k = gate_grid[name]
        # delay terms: t_q(d) - t_q0 = A*Ds*dP (+ B*Ds*dA)
        delay_terms = [(grid_k, fit.a * ds)]
        if both_layers:
            delay_terms.append((g + grid_k, fit.b * ds))

        if is_seq[name]:
            # launch: t_q(d) <= a_q   (a_source = 0)
            add_row(delay_terms + [(q_i, -1.0)], -inf, -t0)
            continue
        has_pi = any(nl.nets[net].driver is None for net in gate.inputs)
        if has_pi:
            add_row(delay_terms + [(q_i, -1.0)], -inf, -t0)
        for net_name in gate.inputs:
            drv = nl.nets[net_name].driver
            if drv is None:
                continue
            arc = (drv, name)
            if arc in seen_arcs:
                continue
            seen_arcs.add(arc)
            wire = baseline.wire_delay.get(arc, 0.0)
            r_i = off_arr + gate_idx[drv]
            # a_r - a_q + (t_q(d) - t_q0) <= -t_q0 - wire
            add_row(
                [(r_i, 1.0), (q_i, -1.0)] + delay_terms, -inf, -t0 - wire
            )

    # ---- endpoint constraints: a <= T (PO), a + wire + setup <= T (FF D)
    for name in gate_order:
        gate = nl.gates[name]
        r_i = off_arr + gate_idx[name]
        if nl.nets[gate.output].is_primary_output:
            add_row([(r_i, 1.0), (idx_T, -1.0)], -inf, 0.0)
        for succ in dict.fromkeys(nl.fanout_gates(name)):
            if not is_seq[succ]:
                continue
            wire = baseline.wire_delay.get((name, succ), 0.0)
            setup = lib.cell(nl.gate(succ).master).setup_ns
            add_row([(r_i, 1.0), (idx_T, -1.0)], -inf, -wire - setup)

    # ---- clock bound row (caller sets tau via formulation.row_clock)
    row_clock = r
    add_row([(idx_T, 1.0)], -inf, inf)

    A = sp.csc_matrix(
        (vals, (rows, cols)), shape=(r, n_vars)
    )
    l = np.array(lo)
    u = np.array(hi)

    # ---- delta-leakage quadratic (2)
    p_diag = np.zeros(n_vars)
    q_lin = np.zeros(n_vars)
    for name in gate_order:
        lfit = ctx.leakage_fit_for(name)
        k = gate_grid[name]
        p_diag[k] += 2.0 * lfit.alpha * ds * ds  # (1/2) x'Px convention
        q_lin[k] += lfit.beta * ds
        if both_layers:
            q_lin[g + k] += lfit.gamma * ds
    P_leak = sp.diags(p_diag, format="csc")

    return Formulation(
        partition=partition,
        both_layers=both_layers,
        n_gates=n,
        A=A,
        l=l,
        u=u,
        P_leak=P_leak,
        q_leak=q_lin,
        idx_T=idx_T,
        row_clock=row_clock,
        gate_grid=gate_grid,
        gate_order=gate_order,
        dose_range=dose_range,
        smoothness=smoothness,
        seam_smoothness=seam_smoothness,
        n_range_rows=n_range_rows,
        n_smooth_rows=n_smooth_rows,
    )

"""Sparse assembly of the paper's DMopt mathematical programs.

Variable vector layout (n = number of gates, G = number of dose grids):

    x = [ d^P_0 .. d^P_{G-1} | (d^A_0 .. d^A_{G-1}) | a_1 .. a_n | T ]

with the active-layer block present only for both-layer optimization.
A pruned program (see *Pruning* below) keeps only the arrival columns
its remaining rows use, in the same order.

Constraint blocks (paper equation numbers in parentheses):

* dose correction range, poly (3) and active (8):        L <= d <= U
* smoothness over 8-neighbor pairs, poly (4), active (9): |d_i - d_j| <= delta
* arrival propagation (5)/(10):  a_r + wire(r,q) + t_q(d) <= a_q
  with  t_q(d) = t_q0 + A_q Ds d^P_{g(q)} + B_q Ds d^A_{g(q)}
* endpoints: a <= T for PO drivers, a + wire + setup <= T for FF D-pins
* clock bound (6)/(11), QP only:  T <= tau

Delta-leakage (2) appears as the QP objective or the QCP quadratic
constraint:

    sum_p  alpha_p Ds^2 (d^P)^2  +  beta_p Ds d^P  +  gamma_p Ds d^A

Assembly is block-wise COO construction: per-gate coefficient/arc/
endpoint arrays are extracted once per design context (and cached on
it), then every constraint family is emitted as one concatenated triplet
batch and the leakage quadratic as ``np.bincount`` scatters.  The
program size depends on the grid count, not the gate count, so assembly
must not be the gate-bound step.  The readable per-gate ``add_row``
loop it must match entry for entry lives in ``tests/oracles/formulate.py``.

Pruning
-------
:func:`build_formulation` emits every row.  :func:`prune_formulation`
then drops the timing rows that cannot bind at any dose within
``+-R`` (``R = max(5, dose_range)``, the hardware range unless a wider
one is asked for), and the arrival columns only those rows use.  It is
what :meth:`~repro.core.model.DesignContext.formulation_for` serves.

With ``|d| <= R`` every gate delay lies in ``t0 +- (|A_q Ds| + |B_q
Ds|) R`` (the ``B`` term in both-layer mode only).  Let ``arr_slow`` be
the longest arrival at each gate with every gate at its slowest,
``down_slow`` the longest path from a gate's output to an endpoint
(wire and setup included), and ``MCT_fast`` the longest endpoint
arrival with every gate at its fastest.  A row is kept when the
longest path through it can reach ``MCT_fast``:

* arc ``r -> q``:   ``arr_slow[r] + wire + t_slow[q] + down_slow[q]``
* launch/PI of q:   ``t_slow[q] + down_slow[q]``
* endpoint of e:    ``arr_slow[e] + wire + setup``

Soundness: at any dose map ``d`` within the range, a critical path of
``d`` has length ``MCT(d) >= MCT_fast``, and every row on it bounds
that length from above, so all of its rows are kept.  Every point of
the pruned program therefore has ``T >= MCT(d)``, and the exact
arrivals of ``d`` complete it to a point of the full program with the
same doses and ``T``; the converse is row deletion.  The objective
reads only doses and ``T``, so QP and QCP optima are equal for every
range up to ``R``.  A wider range voids the argument:
:meth:`Formulation.retarget` refuses it, and the infeasibility
diagnosis, whose probes open the range, runs on the full program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from repro.constants import (
    DEFAULT_DOSE_RANGE,
    DEFAULT_SMOOTHNESS,
)
from repro.dosemap import DoseMap, GridPartition, LAYER_ACTIVE, LAYER_POLY

@dataclass
class Formulation:
    """Assembled matrices + variable bookkeeping for one DMopt instance.

    ``P_leak``/``q_leak`` encode delta-leakage as (1/2) x'P x + q'x; the
    same pair serves as QP objective or QCP constraint.  ``A, l, u`` hold
    every linear constraint *except* the clock bound, whose row index is
    ``row_clock`` (so the driver can set tau or drop it).

    The first ``n_range_rows`` rows are the dose-range family and the
    following ``n_smooth_rows`` rows the smoothness family; only their
    ``l``/``u`` values depend on ``dose_range``/``smoothness``, which is
    what makes cached formulations cheaply retargetable (see
    :meth:`retarget`).  ``shared`` is a mutable scratch dict carried
    across retargeted copies -- solvers stash reusable state there (e.g.
    the IPM's pattern workspace).
    """

    partition: GridPartition
    both_layers: bool
    n_gates: int
    A: sp.csc_matrix
    l: np.ndarray
    u: np.ndarray
    P_leak: sp.csc_matrix
    q_leak: np.ndarray
    idx_T: int
    row_clock: int
    gate_grid: dict
    gate_order: list = field(repr=False, default_factory=list)
    dose_range: float = DEFAULT_DOSE_RANGE
    smoothness: float = DEFAULT_SMOOTHNESS
    seam_smoothness: bool = False
    n_range_rows: int = 0
    n_smooth_rows: int = 0
    #: The dose range the timing rows were pruned for (``None``: the
    #: full program); bounds every :meth:`retarget`.
    prune_range: float = None
    shared: dict = field(repr=False, default_factory=dict)

    @property
    def n_vars(self) -> int:
        return self.idx_T + 1

    @property
    def n_dose_vars(self) -> int:
        return self.partition.n_grids * (2 if self.both_layers else 1)

    def split(self, x: np.ndarray):
        """Split a solution vector into (poly map, active map, T)."""
        g = self.partition.n_grids
        poly = DoseMap(self.partition, LAYER_POLY).from_flat(x[:g])
        active = None
        if self.both_layers:
            active = DoseMap(self.partition, LAYER_ACTIVE).from_flat(x[g : 2 * g])
        return poly, active, float(x[self.idx_T])

    def predicted_delta_leakage(self, x: np.ndarray) -> float:
        """Model-predicted delta leakage (uW) at a solution point."""
        return float(0.5 * x @ (self.P_leak @ x) + self.q_leak @ x)

    def retarget(self, dose_range: float = None, smoothness: float = None):
        """A sibling formulation with new range/smoothness bounds.

        Dose-range and smoothness values only appear in the ``l``/``u``
        entries of their constraint families, so a sweep point can reuse
        the assembled ``A``/``P_leak`` and swap bounds in O(rows).  The
        returned formulation shares ``A``, ``P_leak`` and ``shared``
        (solver workspaces stay valid: the sparsity is untouched).
        A pruned program refuses a range wider than the one it was
        pruned for: its dropped rows could bind there.
        """
        dr = self.dose_range if dose_range is None else float(dose_range)
        sm = self.smoothness if smoothness is None else float(smoothness)
        if self.prune_range is not None and dr > self.prune_range:
            raise ValueError(
                f"dose range {dr:g} exceeds the +-{self.prune_range:g} % "
                "this program was pruned for"
            )
        if dr == self.dose_range and sm == self.smoothness:
            return self
        l = self.l.copy()
        u = self.u.copy()
        nr, ns = self.n_range_rows, self.n_smooth_rows
        l[:nr] = -dr
        u[:nr] = dr
        l[nr : nr + ns] = -sm
        u[nr : nr + ns] = sm
        return replace(self, l=l, u=u, dose_range=dr, smoothness=sm)


def _seam_pairs(partition: GridPartition) -> list:
    """Wrap-around grid pairs across die-copy seams.

    In the tiled exposure field, grid (i, n-1) of one copy neighbors
    (i, 0) and (i+1, 0) of the next, including the diagonal family of
    the paper's constraint (4).
    """
    m_, n_ = partition.m, partition.n
    pairs = []
    for i in range(m_):
        pairs.append(((i, n_ - 1), (i, 0)))
        if i + 1 < m_:
            pairs.append(((i, n_ - 1), (i + 1, 0)))
    for j in range(n_):
        pairs.append(((m_ - 1, j), (0, j)))
        if j + 1 < n_:
            pairs.append(((m_ - 1, j), (0, j + 1)))
    pairs.append(((m_ - 1, n_ - 1), (0, 0)))
    return pairs


def build_formulation(
    ctx,
    grid_size: float,
    both_layers: bool = False,
    dose_range: float = DEFAULT_DOSE_RANGE,
    smoothness: float = DEFAULT_SMOOTHNESS,
    seam_smoothness: bool = False,
) -> Formulation:
    """Assemble the DMopt matrices for a design context.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`.
    grid_size:
        The paper's ``G`` in um (5, 10, 30, 50 in the experiments).
    both_layers:
        Include active-layer dose variables (gate width modulation).
        Requires ``ctx.fit_width`` so B_p/gamma_p are fitted.
    seam_smoothness:
        Also bound the dose step across die-copy seams (opposite field
        edges), so the per-die solution can be tiled over a multi-die
        exposure field without violating the scanner's smoothness limit
        (the paper's Section II-B multi-copy extension).
    """
    if both_layers and not ctx.fit_width:
        raise ValueError(
            "both-layer formulation needs a DesignContext with fit_width=True"
        )
    place = ctx.placement
    partition = GridPartition(place.die.width, place.die.height, grid_size)
    return _assemble_vector(
        ctx,
        partition,
        both_layers=both_layers,
        dose_range=dose_range,
        smoothness=smoothness,
        seam_smoothness=seam_smoothness,
    )


# ----------------------------------------------------------------------
# assembly: cached per-design arrays + block-wise COO batches
# ----------------------------------------------------------------------
@dataclass
class _DesignArrays:
    """Grid-independent per-gate/arc/endpoint arrays for one context.

    Extracted once per :class:`DesignContext` and cached on it; every
    grid size / bound setting then assembles from these without touching
    the netlist or the fitters again.
    """

    names: list
    x: np.ndarray
    y: np.ndarray
    is_seq: np.ndarray
    has_pi: np.ndarray
    t0: np.ndarray
    fit_a: np.ndarray
    fit_b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    arc_src: np.ndarray
    arc_snk: np.ndarray
    arc_wire: np.ndarray
    ep_gid: np.ndarray
    ep_u: np.ndarray


def _design_arrays(ctx) -> _DesignArrays:
    cached = ctx.__dict__.get("_formulate_design_arrays")
    if cached is not None:
        return cached
    nl = ctx.netlist
    lib = ctx.library
    place = ctx.placement
    baseline = ctx.baseline

    graph = ctx.timing_graph
    nl_pos = graph.nl_pos
    names = list(nl.gates)
    n = len(names)
    masters = [nl.gates[name].master for name in names]

    x = np.empty(n)
    y = np.empty(n)
    for i, name in enumerate(names):
        x[i], y[i] = place.location(name)
    is_seq = np.empty(n, dtype=bool)
    is_seq[nl_pos] = graph.is_seq
    # the baseline pass's arrays, from graph order to netlist order
    base = baseline.arrays
    t0, slews, loads = (np.empty(n) for _ in range(3))
    t0[nl_pos] = base.gate_delay
    slews[nl_pos] = base.input_slew
    loads[nl_pos] = base.load
    # delay fits at each gate's nearest table entry
    fit_a, fit_b = ctx.delay_fitter.gate_fits(masters, slews, loads)

    # leakage fits: one per master
    alpha = np.empty(n)
    beta = np.empty(n)
    gamma = np.empty(n)
    lmemo: dict = {}
    for i, m in enumerate(masters):
        fit = lmemo.get(m)
        if fit is None:
            fit = ctx.leakage_fitter.fit(m)
            lmemo[m] = fit
        alpha[i] = fit.alpha
        beta[i] = fit.beta
        gamma[i] = fit.gamma

    # timing arcs (deduplicated per (driver, sink), in input-pin order)
    # and primary-input flags, mirroring the reference row enumeration;
    # a stable sort keeps each gate's contiguous arcs in pin order
    has_pi = np.zeros(n, dtype=bool)
    has_pi[nl_pos] = graph.has_pi
    real = graph.real_fi
    arc_src, arc_snk, arc_wire = _first_per_pair(
        nl_pos[graph.fi_src[real]], nl_pos[graph.fi_sink[real]],
        base.fi_wire, n,
    )

    # endpoint rows: PO drivers (rhs 0) and FF D-pin fanin (rhs
    # -wire - setup), in per-gate then first-seen fanout order (a set
    # would order a gate's flip-flops by the process's string hash)
    fo = graph.fo_succ >= 0
    fo_succ = graph.fo_succ[fo]
    to_ff = graph.is_seq[fo_succ]
    fo_succ = fo_succ[to_ff]
    fo_drv = graph.fo_owner[fo][to_ff]
    # every (driver, flip-flop) fanout pair is an FF data-pin arc
    ff_key = graph.ff_src * n + graph.ff_gate
    ff_order = np.argsort(ff_key, kind="stable")
    ff_at = ff_order[np.searchsorted(ff_key[ff_order], fo_drv * n + fo_succ)]
    setup = np.array([lib.cell(graph.masters[k]).setup_ns for k in fo_succ])
    _ff_snk, ff_drv, ff_u = _first_per_pair(
        nl_pos[fo_succ], nl_pos[fo_drv],
        -base.ff_wire[ff_at] - setup, n,
    )
    po_gid = np.sort(nl_pos[graph.po_ids])
    ep_gid = np.concatenate([po_gid, ff_drv])
    ep_u = np.concatenate([np.zeros(po_gid.size), ff_u])
    # a gate's PO row first, then its flip-flops
    ep_order = np.argsort(
        2 * ep_gid + np.repeat([0, 1], [po_gid.size, ff_drv.size]),
        kind="stable",
    )
    ep_gid, ep_u = ep_gid[ep_order], ep_u[ep_order]

    arrs = _DesignArrays(
        names=names,
        x=x,
        y=y,
        is_seq=is_seq,
        has_pi=has_pi,
        t0=t0,
        fit_a=fit_a,
        fit_b=fit_b,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        arc_src=arc_src,
        arc_snk=arc_snk,
        arc_wire=arc_wire,
        ep_gid=ep_gid,
        ep_u=ep_u,
    )
    ctx.__dict__["_formulate_design_arrays"] = arrs
    return arrs


def _first_per_pair(other, owner, values, n):
    """``(other, owner, values)`` at the first entry of each (other,
    owner) pair, stably sorted by ``owner`` (gate indices below ``n``)."""
    order = np.argsort(owner, kind="stable")
    _, first = np.unique(owner[order] * n + other[order], return_index=True)
    keep = order[np.sort(first)]
    return other[keep], owner[keep], values[keep]


def _neighbor_indices(partition: GridPartition):
    """Flat (k1, k2) index arrays of ``partition.neighbor_pairs()``."""
    m, n = partition.m, partition.n
    idx = np.arange(m * n, dtype=np.int64).reshape(m, n)
    k1 = np.concatenate(
        [idx[:-1, :-1].ravel(), idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    )
    k2 = np.concatenate(
        [idx[1:, 1:].ravel(), idx[:, 1:].ravel(), idx[1:, :].ravel()]
    )
    return k1, k2


def _arrival_rows(arrs: _DesignArrays):
    """Layout of the arrival-propagation family, relative to its first row.

    Each gate owns one optional launch/PI row followed by its fanin-arc
    rows, in gate order.  Returns ``(og, own_rows, arc_rows, n_rows)``:
    the gates that own a launch/PI row, that row of each, the row of
    each arc of ``arrs.arc_src``/``arc_snk``, and the family's size.
    """
    n = len(arrs.names)
    own = arrs.is_seq | arrs.has_pi
    arc_snk = arrs.arc_snk
    n_arcs = np.bincount(arc_snk, minlength=n).astype(np.int64)
    per_gate = own.astype(np.int64) + n_arcs
    gstart = np.cumsum(per_gate) - per_gate
    og = np.nonzero(own)[0]
    starts = np.cumsum(n_arcs) - n_arcs
    pos_in_gate = np.arange(arc_snk.size, dtype=np.int64) - starts[arc_snk]
    arc_rows = gstart[arc_snk] + own[arc_snk].astype(np.int64) + pos_in_gate
    return og, gstart[og], arc_rows, int(per_gate.sum())


def _assemble_vector(
    ctx,
    partition: GridPartition,
    both_layers: bool,
    dose_range: float,
    smoothness: float,
    seam_smoothness: bool,
) -> Formulation:
    arrs = _design_arrays(ctx)
    ds = ctx.library.dose_sensitivity
    g = partition.n_grids
    n = len(arrs.names)
    n_layers = 2 if both_layers else 1
    off_arr = n_layers * g
    idx_T = off_arr + n
    n_vars = idx_T + 1
    inf = np.inf

    gi, gj = partition.grid_of(arrs.x, arrs.y)
    grid_k = gi * partition.n + gj
    gate_grid = dict(zip(arrs.names, grid_k.tolist()))

    rows_p, cols_p, vals_p = [], [], []
    lo_p, hi_p = [], []
    r = 0

    # ---- (3)/(8) dose correction range
    n_range_rows = n_layers * g
    rows_p.append(np.arange(n_range_rows, dtype=np.int64))
    cols_p.append(np.arange(n_range_rows, dtype=np.int64))
    vals_p.append(np.ones(n_range_rows))
    lo_p.append(np.full(n_range_rows, -dose_range))
    hi_p.append(np.full(n_range_rows, dose_range))
    r += n_range_rows

    # ---- (4)/(9) smoothness
    k1, k2 = _neighbor_indices(partition)
    if seam_smoothness:
        pairs = _seam_pairs(partition)
        s1 = np.array(
            [partition.index_of(i, j) for (i, j), _ in pairs], dtype=np.int64
        )
        s2 = np.array(
            [partition.index_of(i, j) for _, (i, j) in pairs], dtype=np.int64
        )
        k1 = np.concatenate([k1, s1])
        k2 = np.concatenate([k2, s2])
    n_pairs = k1.size
    for layer in range(n_layers):
        row_ids = r + np.arange(n_pairs, dtype=np.int64)
        rows_p.append(np.concatenate([row_ids, row_ids]))
        cols_p.append(np.concatenate([layer * g + k1, layer * g + k2]))
        vals_p.append(
            np.concatenate([np.ones(n_pairs), -np.ones(n_pairs)])
        )
        lo_p.append(np.full(n_pairs, -smoothness))
        hi_p.append(np.full(n_pairs, smoothness))
        r += n_pairs
    n_smooth_rows = r - n_range_rows

    # ---- (5)/(10) arrival propagation: each gate owns one optional
    # launch/PI row followed by its fanin-arc rows, in gate order
    arc_src, arc_snk = arrs.arc_src, arrs.arc_snk
    og, own_rows, arc_rows, n_arr_rows = _arrival_rows(arrs)
    own_rows = own_rows + r
    arc_rows = arc_rows + r
    a_ds = arrs.fit_a * ds

    rows_p += [own_rows, own_rows]
    cols_p += [grid_k[og], off_arr + og]
    vals_p += [a_ds[og], np.full(og.size, -1.0)]
    if both_layers:
        b_ds = arrs.fit_b * ds
        rows_p.append(own_rows)
        cols_p.append(g + grid_k[og])
        vals_p.append(b_ds[og])

    if arc_snk.size:
        rows_p += [arc_rows, arc_rows, arc_rows]
        cols_p += [off_arr + arc_src, off_arr + arc_snk, grid_k[arc_snk]]
        vals_p += [
            np.ones(arc_snk.size),
            -np.ones(arc_snk.size),
            a_ds[arc_snk],
        ]
        if both_layers:
            rows_p.append(arc_rows)
            cols_p.append(g + grid_k[arc_snk])
            vals_p.append(b_ds[arc_snk])

    u_arr = np.empty(n_arr_rows)
    u_arr[own_rows - r] = -arrs.t0[og]
    if arc_snk.size:
        u_arr[arc_rows - r] = -arrs.t0[arc_snk] - arrs.arc_wire
    lo_p.append(np.full(n_arr_rows, -inf))
    hi_p.append(u_arr)
    r += n_arr_rows

    # ---- endpoint constraints: a <= T (PO), a + wire + setup <= T (FF D)
    n_ep = arrs.ep_gid.size
    if n_ep:
        ep_rows = r + np.arange(n_ep, dtype=np.int64)
        rows_p += [ep_rows, ep_rows]
        cols_p += [off_arr + arrs.ep_gid, np.full(n_ep, idx_T, dtype=np.int64)]
        vals_p += [np.ones(n_ep), -np.ones(n_ep)]
        lo_p.append(np.full(n_ep, -inf))
        hi_p.append(arrs.ep_u.copy())
        r += n_ep

    # ---- clock bound row (caller sets tau via formulation.row_clock)
    row_clock = r
    rows_p.append(np.array([row_clock], dtype=np.int64))
    cols_p.append(np.array([idx_T], dtype=np.int64))
    vals_p.append(np.array([1.0]))
    lo_p.append(np.array([-inf]))
    hi_p.append(np.array([inf]))
    r += 1

    A = sp.csc_matrix(
        (
            np.concatenate(vals_p),
            (np.concatenate(rows_p), np.concatenate(cols_p)),
        ),
        shape=(r, n_vars),
    )
    l = np.concatenate(lo_p)
    u = np.concatenate(hi_p)

    # ---- delta-leakage quadratic (2) via bincount scatters (the
    # per-bin accumulation order matches the reference's gate order)
    p_diag = np.zeros(n_vars)
    p_diag[:g] = np.bincount(
        grid_k, weights=2.0 * arrs.alpha * ds * ds, minlength=g
    )[:g]
    q_lin = np.zeros(n_vars)
    q_lin[:g] = np.bincount(grid_k, weights=arrs.beta * ds, minlength=g)[:g]
    if both_layers:
        q_lin[g : 2 * g] = np.bincount(
            grid_k, weights=arrs.gamma * ds, minlength=g
        )[:g]
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
        gate_order=list(arrs.names),
        dose_range=dose_range,
        smoothness=smoothness,
        seam_smoothness=seam_smoothness,
        n_range_rows=n_range_rows,
        n_smooth_rows=n_smooth_rows,
    )


# ----------------------------------------------------------------------
# pruning: drop the timing rows that cannot bind within the dose range
# ----------------------------------------------------------------------
#: Relative margin of the pruning test: a row whose bound ties
#: ``MCT_fast`` to within rounding is kept.
PRUNE_RTOL = 1e-9


def prune_range_for(dose_range: float) -> float:
    """The range a program is pruned for: +-5 %, or a wider request."""
    return max(DEFAULT_DOSE_RANGE, float(dose_range))


def _timing_row_mask(ctx, both_layers: bool, prune_range: float) -> np.ndarray:
    """Keep-mask of the arrival-propagation rows followed by the endpoint
    rows, at doses within ``+-prune_range`` (see the module docstring).

    Grid-independent, so computed once per context, layer set and range
    and cached next to the design arrays.
    """
    key = (bool(both_layers), float(prune_range))
    cache = ctx.__dict__.setdefault("_formulate_row_masks", {})
    if key in cache:
        return cache[key]
    arrs = _design_arrays(ctx)
    ds = ctx.library.dose_sensitivity
    swing = np.abs(arrs.fit_a * ds)
    if both_layers:
        swing = swing + np.abs(arrs.fit_b * ds)
    swing = swing * prune_range
    t_slow = arrs.t0 + swing
    t_fast = arrs.t0 - swing
    src, snk, wire = arrs.arc_src, arrs.arc_snk, arrs.arc_wire
    ep, extra = arrs.ep_gid, -arrs.ep_u

    # arcs grouped by their sink's level: a group's sources are final
    # going forward, and its sinks are final going backward
    graph = ctx.timing_graph
    level = np.empty(len(arrs.names), dtype=np.int64)
    level[graph.nl_pos] = graph.level
    order = np.argsort(level[snk], kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(level[snk][order])) + 1)

    def arrival(t):
        arr = np.where(arrs.is_seq | arrs.has_pi, t, -np.inf)
        for a in groups:
            np.maximum.at(arr, snk[a], arr[src[a]] + wire[a] + t[snk[a]])
        return arr

    arr_slow, arr_fast = arrival(t_slow), arrival(t_fast)
    down = np.full(len(arrs.names), -np.inf)
    np.maximum.at(down, ep, extra)
    for a in reversed(groups):
        np.maximum.at(down, src[a], wire[a] + t_slow[snk[a]] + down[snk[a]])
    mct_fast = np.max(arr_fast[ep] + extra, initial=-np.inf)
    floor = mct_fast - PRUNE_RTOL * abs(mct_fast)

    og, own_rows, arc_rows, n_arr_rows = _arrival_rows(arrs)
    keep = np.empty(n_arr_rows + ep.size, dtype=bool)
    keep[own_rows] = t_slow[og] + down[og] >= floor
    keep[arc_rows] = arr_slow[src] + wire + t_slow[snk] + down[snk] >= floor
    keep[n_arr_rows:] = arr_slow[ep] + extra >= floor
    cache[key] = keep
    return keep


def prune_formulation(ctx, form: Formulation) -> Formulation:
    """``form`` (a full :func:`build_formulation` program of ``ctx``)
    without the timing rows that cannot bind within ``+-R``, ``R =``
    :func:`prune_range_for` of its dose range, and without the arrival
    columns only those rows use.

    The dose columns, ``T``, the range, smoothness and clock rows stay,
    in place, so :meth:`Formulation.retarget` and :meth:`Formulation.split`
    work unchanged; ``idx_T`` and ``row_clock`` move with the deletions.
    """
    prune_range = prune_range_for(form.dose_range)
    head = form.n_range_rows + form.n_smooth_rows
    keep_rows = np.concatenate([
        np.ones(head, dtype=bool),
        _timing_row_mask(ctx, form.both_layers, prune_range),
        [True],  # the clock row
    ])
    rows = np.flatnonzero(keep_rows)
    A = form.A[rows]
    keep_cols = np.diff(A.indptr) > 0
    keep_cols[: form.n_dose_vars] = True
    keep_cols[form.idx_T] = True
    cols = np.flatnonzero(keep_cols)
    return replace(
        form,
        A=A[:, cols].tocsc(),
        l=form.l[rows],
        u=form.u[rows],
        P_leak=form.P_leak[cols][:, cols].tocsc(),
        q_leak=form.q_leak[cols],
        idx_T=cols.size - 1,
        row_clock=rows.size - 1,
        prune_range=prune_range,
        shared={},
    )

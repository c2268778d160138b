"""Compiled, array-backed STA engine: the flow's golden timer.

The design is lowered into flat NumPy structures **once** -- topological
levels, CSR fanin/fanout arc arrays, per-gate master indices into the
library's variant table, wire-geometry coefficients -- and arrival/slew
then propagate one whole topological level per NumPy call (a vectorized
bilinear interpolation over the table's stacked NLDM arrays).  A dose
assignment becomes per-gate variant ids in one table lookup,
``CellLibrary.variant_ids(master_ids, poly, active)``.  Every analysis
reads this one graph: golden STA, top-K paths, Monte Carlo, SSTA and
GL-bias; Monte Carlo and SSTA share its per-level fan-in slot layout
(``CompiledTimingGraph.fanin_slots``).

``analyze`` returns a :class:`~repro.sta.timing.TimingResult` carrying
the pass's arrays; its per-gate dicts are built only when read.

On top of the full vectorized pass it supports **incremental re-timing**:
after a placement move or a per-gate dose change, only the dirty fanout
cone is re-propagated and only the affected net loads are rebuilt, so a
dosePl trial swap costs O(cone) instead of O(design), and a rejected
swap is undone by ``revert_trial`` from the pass's undo log.

Numerical contract: every arithmetic expression mirrors the per-gate
reference timer operation-for-operation (same association order, same
clamping, same tie-breaks), so the two agree to the last ulp.  The
reference lives in ``tests/oracles/sta.py``; the differential tests in
``tests/test_sta_vectorized.py`` and ``tests/test_oracles.py`` pin the
agreement down.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from repro.constants import KOHM_FF_TO_NS
from repro.sta.timing import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_PO_LOAD,
    TimingArrays,
    TimingResult,
)

#: Fraction of the design above which an incremental pass falls back to
#: the full vectorized sweep (the bookkeeping would cost more than it
#: saves).
_INCREMENTAL_DIRTY_LIMIT = 0.35

#: Per-gate state arrays a forward pass writes at the gates it re-times.
_CONE_KEYS = ("arrival", "gate_delay", "in_slew", "out_slew")


def _bilinear_weights(sx, lx, s, c):
    """Cell indices and weights of a vectorized clamped bilinear lookup.

    ``sx``/``lx`` are the per-row axes (m, S) and (m, L); ``s``/``c``
    are the query points (m,).  Returns ``(i, j, fs, fc)``: the lower
    corner of each row's table cell and the fractional positions in it.
    Every table sharing the axes is then read with
    :func:`_bilinear_gather`, so the search runs once per query.
    """
    # np.clip's min(max(x, lo), hi), without its per-call overhead
    s = np.minimum(np.maximum(s, sx[:, 0]), sx[:, -1])
    c = np.minimum(np.maximum(c, lx[:, 0]), lx[:, -1])
    i = np.minimum(np.maximum((sx <= s[:, None]).sum(axis=1) - 1, 0),
                   sx.shape[1] - 2)
    j = np.minimum(np.maximum((lx <= c[:, None]).sum(axis=1) - 1, 0),
                   lx.shape[1] - 2)
    r = np.arange(sx.shape[0])
    s0, s1 = sx[r, i], sx[r, i + 1]
    c0, c1 = lx[r, j], lx[r, j + 1]
    fs = (s - s0) / (s1 - s0)
    fc = (c - c0) / (c1 - c0)
    return i, j, fs, fc


def _bilinear_gather(tab, rows, i, j, fs, fc):
    """Interpolate ``tab[rows]`` at the :func:`_bilinear_weights` point.

    ``tab`` is the (V, S, L) table stack and ``rows`` picks one table
    per query.  Replicates :meth:`repro.library.nldm.NLDMTable.lookup`
    exactly.  The four corners are read by flat index: one 1-D gather
    each instead of a three-array fancy index.
    """
    n_s, n_l = tab.shape[1:]
    k = (rows * n_s + i) * n_l + j
    flat = tab.reshape(-1)
    return (
        flat[k] * (1 - fs) * (1 - fc)
        + flat[k + n_l] * fs * (1 - fc)
        + flat[k + 1] * (1 - fs) * fc
        + flat[k + n_l + 1] * fs * fc
    )


def lex_max_reduce(arr, slew, starts, seg_of):
    """Per-segment lexicographic max of (arr, slew) pairs.

    The worst-arrival selection with its deterministic tie-break: within
    a segment the winner is the pair with the largest arrival, and among
    equal arrivals the largest slew
    (``arr > best or (arr == best and slew > best_slew)``).

    ``starts`` are the segment start offsets into ``arr``; ``seg_of``
    maps each element to its segment index.  Segments must be non-empty.
    Returns (best_arr, best_slew) per segment.
    """
    best_arr = np.maximum.reduceat(arr, starts)
    at_max = arr == best_arr[seg_of]
    best_slew = np.maximum.reduceat(
        np.where(at_max, slew, -np.inf), starts
    )
    return best_arr, best_slew


def _dict_of(*pairs):
    """A dict from (keys, value array) pairs; later pairs update earlier."""
    out = {}
    for keys, values in zip(pairs[::2], pairs[1::2]):
        out.update(zip(keys, values.tolist()))
    return out


def _concat_ranges(starts, counts):
    """Indices [s0, s0+1, ..., s0+c0-1, s1, ...] for CSR slice gathers."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + (np.arange(total) - offsets)


class CompiledTimingGraph:
    """One-time lowering of (netlist, library) into flat timing arrays.

    Placement-independent: geometry (wire RC, net caps) lives on the
    :class:`VectorTimingAnalyzer` bound to a placement, so one compiled
    graph serves every trial placement of a dosePl run.

    Array layout
    ------------
    Gates are indexed 0..n-1 in topological order (``names``).  ``perm``
    re-sorts them by topological *level*; all per-arc CSR arrays are laid
    out so each level's arcs are contiguous (``fi_ptr`` is indexed by
    perm position).  Every gate owns a leading *virtual* fanin arc
    (``src == -1``) carrying the primary-input operating point
    ``(arrival 0, input slew)`` -- sequential cells, whose data pins end
    paths, own only that arc, which makes the forward kernel uniform.
    A trailing virtual fanout arc (``succ == -1``) keeps the backward
    min-reduction total.
    """

    def __init__(self, netlist, library):
        self.netlist = netlist
        self.library = library

        names = netlist.topological_order(library)
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.n = n
        self.masters = [netlist.gates[g].master for g in names]
        #: Variant-table master index of each gate.
        self.master_ids = library.master_ids(self.masters)
        #: Netlist position of each gate: a per-gate array in netlist
        #: order, indexed by ``nl_pos``, is in graph order.
        nl_index = {name: k for k, name in enumerate(netlist.gates)}
        self.nl_pos = np.array([nl_index[g] for g in names], dtype=np.int64)
        self.is_seq = np.array(
            [library.cell(m).is_sequential for m in self.masters], dtype=bool
        )

        # ---- levels -------------------------------------------------
        level = np.zeros(n, dtype=np.int64)
        for i, name in enumerate(names):
            if self.is_seq[i]:
                continue
            best = 0
            for net_name in netlist.gates[name].inputs:
                drv = netlist.nets[net_name].driver
                if drv is not None:
                    best = max(best, int(level[self.index[drv]]) + 1)
            level[i] = best
        self.level = level
        self.n_levels = int(level.max()) + 1 if n else 0
        # stable sort keeps topological order within a level
        self.perm = np.argsort(level, kind="stable").astype(np.int64)
        self.pos_of = np.empty(n, dtype=np.int64)
        self.pos_of[self.perm] = np.arange(n)
        bounds = np.searchsorted(level[self.perm], np.arange(self.n_levels + 1))
        self.level_slices = [
            (int(bounds[k]), int(bounds[k + 1])) for k in range(self.n_levels)
        ]

        # ---- fanin arcs (perm-ordered CSR) --------------------------
        fi_src, fi_sink, fi_seg = [], [], []
        fi_ptr = [0]
        wd_keys = []  # (driver name, sink name) per *real* arc
        real_fi = []  # arc ids of real arcs
        #: Combinational gates with an input pin on a primary input.
        self.has_pi = np.zeros(n, dtype=bool)
        for p in range(n):
            gid = int(self.perm[p])
            name = names[gid]
            fi_src.append(-1)  # virtual (0, input_slew) baseline
            fi_sink.append(gid)
            fi_seg.append(p)
            if not self.is_seq[gid]:
                for net_name in netlist.gates[name].inputs:
                    drv = netlist.nets[net_name].driver
                    if drv is None:
                        self.has_pi[gid] = True
                        continue
                    real_fi.append(len(fi_src))
                    wd_keys.append((drv, name))
                    fi_src.append(self.index[drv])
                    fi_sink.append(gid)
                    fi_seg.append(p)
            fi_ptr.append(len(fi_src))
        self.fi_src = np.array(fi_src, dtype=np.int64)
        self.fi_sink = np.array(fi_sink, dtype=np.int64)
        self.fi_seg = np.array(fi_seg, dtype=np.int64)
        self.fi_ptr = np.array(fi_ptr, dtype=np.int64)
        self.real_fi = np.array(real_fi, dtype=np.int64)
        self.wd_keys_fi = wd_keys

        # ---- load CSR (gate-index ordered): sinks of each output net
        ld_sink, ld_owner = [], []
        ld_ptr = [0]
        hp_gate = []  # output-net endpoints (driver + sinks) for HPWL
        hp_ptr = [0]
        is_po = np.zeros(n, dtype=bool)
        po_ids, po_labels = [], []
        for gid, name in enumerate(names):
            out = netlist.gates[name].output
            net = netlist.nets[out]
            hp_gate.append(gid)
            for sink, _pin in net.sinks:
                ld_sink.append(self.index[sink])
                ld_owner.append(gid)
                hp_gate.append(self.index[sink])
            ld_ptr.append(len(ld_sink))
            hp_ptr.append(len(hp_gate))
            if net.is_primary_output:
                is_po[gid] = True
                po_ids.append(gid)
                po_labels.append(f"PO:{out}")
        self.ld_sink = np.array(ld_sink, dtype=np.int64)
        self.ld_owner = np.array(ld_owner, dtype=np.int64)
        self.ld_ptr = np.array(ld_ptr, dtype=np.int64)
        self.hp_gate = np.array(hp_gate, dtype=np.int64)
        self.hp_ptr = np.array(hp_ptr, dtype=np.int64)
        self.is_po = is_po
        self.po_ids = np.array(po_ids, dtype=np.int64)
        self.po_labels = po_labels

        # ---- FF data-pin endpoint arcs ------------------------------
        ff_src, ff_gate, ff_labels, wd_keys_ff = [], [], [], []
        for gid, name in enumerate(names):
            if not self.is_seq[gid]:
                continue
            for net_name in netlist.gates[name].inputs:
                drv = netlist.nets[net_name].driver
                if drv is None:
                    continue
                ff_src.append(self.index[drv])
                ff_gate.append(gid)
                ff_labels.append(f"FF:{name}:{net_name}")
                wd_keys_ff.append((drv, name))
        self.ff_src = np.array(ff_src, dtype=np.int64)
        self.ff_gate = np.array(ff_gate, dtype=np.int64)
        self.ff_labels = ff_labels
        self.wd_keys_ff = wd_keys_ff

        # ---- fanout arcs (perm-ordered CSR, for the backward pass) --
        fo_succ, fo_seg = [], []
        fo_ptr = [0]
        for p in range(n):
            gid = int(self.perm[p])
            for succ in netlist.fanout_gates(names[gid]):
                fo_succ.append(self.index[succ])
                fo_seg.append(p)
            fo_succ.append(-1)  # virtual +inf arc: reduction never empty
            fo_seg.append(p)
            fo_ptr.append(len(fo_succ))
        self.fo_succ = np.array(fo_succ, dtype=np.int64)
        self.fo_seg = np.array(fo_seg, dtype=np.int64)
        self.fo_ptr = np.array(fo_ptr, dtype=np.int64)
        self.fo_owner = self.perm[self.fo_seg]

        # ---- incremental adjacency ----------------------------------
        # per gate: fanin arc ids touching it (as src or sink), fanout
        # arc ids, FF arc ids, the drivers of its input nets (whose net
        # loads depend on this gate's pin cap / position), and its
        # combinational fanout gate ids (dirty-cone closure).
        self.fi_touch = [[] for _ in range(n)]
        for a in self.real_fi:
            self.fi_touch[self.fi_src[a]].append(int(a))
            self.fi_touch[self.fi_sink[a]].append(int(a))
        self.fo_touch = [[] for _ in range(n)]
        for a, succ in enumerate(self.fo_succ):
            if succ >= 0:
                self.fo_touch[succ].append(a)
                self.fo_touch[self.fo_owner[a]].append(a)
        self.ff_touch = [[] for _ in range(n)]
        for a in range(len(self.ff_src)):
            self.ff_touch[self.ff_src[a]].append(a)
            self.ff_touch[self.ff_gate[a]].append(a)
        self.fanin_drivers = [set() for _ in range(n)]
        for a in self.real_fi:
            self.fanin_drivers[self.fi_sink[a]].add(int(self.fi_src[a]))
        for a in range(len(self.ff_src)):
            self.fanin_drivers[self.ff_gate[a]].add(int(self.ff_src[a]))
        self.comb_fanout = [[] for _ in range(n)]
        for a in self.real_fi:
            self.comb_fanout[self.fi_src[a]].append(int(self.fi_sink[a]))

        # nominal (zero-dose) variant ids
        self.nominal_vids = library.variant_ids(self.master_ids)

    @cached_property
    def fanin_slots(self) -> list:
        """The fan-in CSR of each level, padded to one row per arc slot.

        One ``(ids, src, arc)`` per level: ``ids`` are the level's gate
        ids in perm order, and row k of the (slots x gates) arrays ``src``
        and ``arc`` holds each gate's (k+1)-th fan-in arc after its
        virtual one -- the arc's source gate and its arc id -- in arc
        order, padded with -1 where a gate has fewer arcs.  Built on
        first use and placement-independent: Monte Carlo and SSTA both
        time over it, and treat the virtual arc (arrival 0) themselves.
        """
        slot = np.arange(len(self.fi_src)) - self.fi_ptr[self.fi_seg]
        levels = []
        for lo, hi in self.level_slices:
            arcs = np.arange(self.fi_ptr[lo], self.fi_ptr[hi])
            arcs = arcs[slot[arcs] > 0]
            k, col = slot[arcs] - 1, self.fi_seg[arcs] - lo
            src = np.full((int(k.max(initial=-1)) + 1, hi - lo), -1)
            arc = np.full(src.shape, -1)
            src[k, col] = self.fi_src[arcs]
            arc[k, col] = arcs
            levels.append((self.perm[lo:hi], src, arc))
        return levels

    def vids_for(self, doses) -> np.ndarray:
        """Per-gate variant ids, in graph order, for a dose assignment.

        ``doses`` is None (nominal), a dict gate name -> (poly %,
        active %) or an (n, 2) array of them in netlist gate order (see
        :meth:`repro.netlist.Netlist.dose_array`).
        """
        if doses is None:
            return self.nominal_vids
        d = self.netlist.dose_array(doses)[self.nl_pos]
        return self.library.variant_ids(self.master_ids, d[:, 0], d[:, 1])


class VectorTimingAnalyzer:
    """The STA engine, bound to one placement of a compiled graph.

    ``input_slew`` is the transition time (ns) at primary inputs and
    clock pins and ``po_load`` the load (fF) on primary outputs; net
    wire capacitance comes from HPWL.  ``graph`` shares an existing
    compilation of the same design.

    ``analyze(doses, clock_period)`` returns a :class:`TimingResult`;
    besides it:

    ``rebind(placement)``
        A new analyzer for another placement sharing this one's compiled
        graph (geometry is rebuilt vectorized).
    ``update_placement(moved)``
        Refresh wire geometry for a few moved cells and mark their
        cones dirty for the next (incremental) pass.
    ``mct(doses)`` / ``trial_mct(dose_updates)``
        Forward-only (no slacks, no dict building) MCT evaluation; with
        a cached state this re-propagates only the dirty cone -- the
        dosePl per-swap trial timer.
    ``revert_trial()``
        Undo the last forward pass from its undo log (the old variant
        ids, pin caps and net loads it rebuilt, and the per-gate state
        of its cone; the previous state itself after a full pass), so a
        rejected trial swap is not re-timed to be undone.
    """

    def __init__(
        self,
        netlist,
        library,
        placement,
        input_slew: float = DEFAULT_INPUT_SLEW,
        po_load: float = DEFAULT_PO_LOAD,
        graph: CompiledTimingGraph = None,
    ):
        self.netlist = netlist
        self.library = library
        self.placement = placement
        self.input_slew = float(input_slew)
        self.po_load = float(po_load)
        self.node = library.node
        if graph is None:
            graph = CompiledTimingGraph(netlist, library)
        elif graph.netlist is not netlist or graph.library is not library:
            raise ValueError("compiled graph belongs to a different design")
        self.graph = graph
        self._state = None
        #: What the last forward pass overwrote, for ``revert_trial``.
        self._undo = None
        self._moved_pending: set = set()
        #: Forward passes run so far: full, and dirty-cone (incremental).
        self.full_passes = 0
        self.cone_passes = 0
        self._geometry_full()

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def _coords(self):
        g = self.graph
        n = g.n
        x = np.zeros(n)
        y = np.zeros(n)
        placed = np.zeros(n, dtype=bool)
        loc = self.placement
        for i, name in enumerate(g.names):
            if loc.is_placed(name):
                px, py = loc.location(name)
                x[i], y[i], placed[i] = px, py, True
        return x, y, placed

    def _arc_geometry(self, src, snk, x, y, placed):
        """(r_wire, c_wire) arrays for arcs; virtual/unplaced arcs get 0."""
        valid = (src >= 0) & placed[src] & placed[snk]
        s = np.where(src >= 0, src, 0)
        dist = np.where(
            valid,
            np.abs(x[s] - x[snk]) + np.abs(y[s] - y[snk]),
            0.0,
        )
        return self.node.wire_r_per_um * dist, self.node.wire_c_per_um * dist

    def _wire_caps(self, x, y, placed):
        """Per-gate output-net wire capacitance from HPWL."""
        g = self.graph
        ep = g.hp_gate
        starts = g.hp_ptr[:-1]
        xs = np.where(placed[ep], x[ep], np.inf)
        ys = np.where(placed[ep], y[ep], np.inf)
        xmin = np.minimum.reduceat(xs, starts)
        ymin = np.minimum.reduceat(ys, starts)
        xs = np.where(placed[ep], x[ep], -np.inf)
        ys = np.where(placed[ep], y[ep], -np.inf)
        xmax = np.maximum.reduceat(xs, starts)
        ymax = np.maximum.reduceat(ys, starts)
        count = np.add.reduceat(placed[ep].astype(np.int64), starts)
        with np.errstate(invalid="ignore"):
            hpwl = np.where(count >= 2, (xmax - xmin) + (ymax - ymin), 0.0)
        return self.node.wire_c_per_um * hpwl

    def _geometry_full(self):
        g = self.graph
        x, y, placed = self._coords()
        self._x, self._y, self._placed = x, y, placed
        self._fi_rw, self._fi_cw = self._arc_geometry(
            g.fi_src, g.fi_sink, x, y, placed
        )
        self._fo_rw, self._fo_cw = self._arc_geometry(
            g.fo_owner, np.where(g.fo_succ >= 0, g.fo_succ, 0), x, y, placed
        )
        # virtual fanout arcs must stay zero even if owner is placed
        virt = g.fo_succ < 0
        self._fo_rw[virt] = 0.0
        self._fo_cw[virt] = 0.0
        if len(g.ff_src):
            self._ff_rw, self._ff_cw = self._arc_geometry(
                g.ff_src, g.ff_gate, x, y, placed
            )
        else:
            self._ff_rw = np.empty(0)
            self._ff_cw = np.empty(0)
        self._wire_cap = self._wire_caps(x, y, placed)

    def update_placement(self, moved_gates) -> None:
        """Refresh geometry for moved cells; mark their cones dirty.

        Call after mutating this analyzer's bound placement (e.g. a
        dosePl swap, or its undo).  The next ``analyze``/``trial_mct``
        re-propagates only the affected cone.
        """
        g = self.graph
        node = self.node
        ids = [g.index[m] for m in moved_gates if m in g.index]
        if not ids:
            return
        loc = self.placement
        for gid in ids:
            name = g.names[gid]
            if loc.is_placed(name):
                px, py = loc.location(name)
                self._x[gid], self._y[gid] = px, py
                self._placed[gid] = True
            else:
                self._placed[gid] = False
        x, y, placed = self._x, self._y, self._placed

        def _dist(a, b):
            if placed[a] and placed[b]:
                return abs(x[a] - x[b]) + abs(y[a] - y[b])
            return 0.0

        fi_arcs = set()
        fo_arcs = set()
        ff_arcs = set()
        net_owners = set()
        for gid in ids:
            fi_arcs.update(g.fi_touch[gid])
            fo_arcs.update(g.fo_touch[gid])
            ff_arcs.update(g.ff_touch[gid])
            net_owners.add(gid)  # its own output net stretches
            net_owners.update(g.fanin_drivers[gid])  # input nets stretch
        for a in fi_arcs:
            d = _dist(g.fi_src[a], g.fi_sink[a])
            self._fi_rw[a] = node.wire_r_per_um * d
            self._fi_cw[a] = node.wire_c_per_um * d
        for a in fo_arcs:
            d = _dist(g.fo_owner[a], g.fo_succ[a])
            self._fo_rw[a] = node.wire_r_per_um * d
            self._fo_cw[a] = node.wire_c_per_um * d
        for a in ff_arcs:
            d = _dist(g.ff_src[a], g.ff_gate[a])
            self._ff_rw[a] = node.wire_r_per_um * d
            self._ff_cw[a] = node.wire_c_per_um * d
        for gid in net_owners:
            lo, hi = g.hp_ptr[gid], g.hp_ptr[gid + 1]
            xs, ys = [], []
            for ep in g.hp_gate[lo:hi]:
                if placed[ep]:
                    xs.append(x[ep])
                    ys.append(y[ep])
            hpwl = (
                (max(xs) - min(xs)) + (max(ys) - min(ys))
                if len(xs) >= 2
                else 0.0
            )
            self._wire_cap[gid] = node.wire_c_per_um * hpwl
        self._moved_pending.update(ids)

    def rebind(self, placement) -> "VectorTimingAnalyzer":
        """New analyzer for another placement, sharing the compiled graph."""
        return VectorTimingAnalyzer(
            self.netlist,
            self.library,
            placement,
            input_slew=self.input_slew,
            po_load=self.po_load,
            graph=self.graph,
        )

    # ------------------------------------------------------------------
    # forward propagation
    # ------------------------------------------------------------------
    def _loads_full(self, cap):
        g = self.graph
        loads = self._wire_cap.copy()
        np.add.at(loads, g.ld_owner, cap[g.ld_sink])
        loads[g.is_po] += self.po_load
        return loads

    def _forward_level(self, st, pos, arc_idx, starts_local, seg_local, cap, stacks):
        """Propagate one level's (sub)set of gates given their arc gather."""
        g = self.graph
        d_tab, s_tab, sax, lax = stacks
        ids = g.perm[pos]
        src = g.fi_src[arc_idx]
        snk = g.fi_sink[arc_idx]
        rw = self._fi_rw[arc_idx]
        cw = self._fi_cw[arc_idx]
        wd = rw * (0.5 * cw + cap[snk]) * KOHM_FF_TO_NS
        valid = src >= 0
        arr_in = np.where(valid, st["arrival"][src] + wd, 0.0)
        slew_in = np.where(valid, st["out_slew"][src], self.input_slew)
        best_arr, best_slew = lex_max_reduce(arr_in, slew_in, starts_local, seg_local)
        vids = st["vids"][ids]
        w = _bilinear_weights(sax[vids], lax[vids], best_slew, st["loads"][ids])
        dly = _bilinear_gather(d_tab, vids, *w)
        slw = _bilinear_gather(s_tab, vids, *w)
        st["arrival"][ids] = best_arr + dly
        st["gate_delay"][ids] = dly
        st["in_slew"][ids] = best_slew
        st["out_slew"][ids] = slw

    def _forward_full(self, vids):
        g = self.graph
        tab = g.library.variant_table()
        cap = tab.input_cap[vids]
        st = {
            "vids": vids.copy(),
            "cap": cap,
            "loads": self._loads_full(cap),
            "arrival": np.zeros(g.n),
            "out_slew": np.zeros(g.n),
            "gate_delay": np.zeros(g.n),
            "in_slew": np.zeros(g.n),
        }
        stacks = (tab.delay, tab.out_slew, tab.slew_axis, tab.load_axis)
        for lo, hi in g.level_slices:
            pos = np.arange(lo, hi)
            a0, a1 = int(g.fi_ptr[lo]), int(g.fi_ptr[hi])
            arc_idx = np.arange(a0, a1)
            starts_local = g.fi_ptr[lo:hi] - a0
            seg_local = g.fi_seg[a0:a1] - lo
            self._forward_level(
                st, pos, arc_idx, starts_local, seg_local, cap, stacks
            )
        self._state = st
        self._moved_pending = set()

    def _dirty_cone(self, vids):
        """Dirty gate set vs the cached state, or None for 'go full'."""
        g = self.graph
        st = self._state
        vid_chg = np.nonzero(vids != st["vids"])[0]
        if len(vid_chg) == 0 and not self._moved_pending:
            return set(), set()
        seeds = set(int(v) for v in vid_chg) | set(self._moved_pending)
        load_dirty = set()
        for gid in vid_chg:
            load_dirty |= g.fanin_drivers[gid]  # its pin cap is in their load
        for gid in self._moved_pending:
            load_dirty.add(gid)  # own output net stretched
            load_dirty |= g.fanin_drivers[gid]  # input nets stretched
            seeds.update(g.comb_fanout[gid])  # outgoing arc delays changed
        seeds |= load_dirty
        if len(seeds) > _INCREMENTAL_DIRTY_LIMIT * g.n:
            return None, None
        dirty = set()
        stack = list(seeds)
        while stack:
            v = stack.pop()
            if v in dirty:
                continue
            dirty.add(v)
            for succ in g.comb_fanout[v]:
                if succ not in dirty:
                    stack.append(succ)
            if len(dirty) > _INCREMENTAL_DIRTY_LIMIT * g.n:
                return None, None
        return dirty, load_dirty

    def _forward_incremental(self, vids, dirty, load_dirty):
        g = self.graph
        st = self._state
        tab = g.library.variant_table()
        cap = tab.input_cap[vids]
        ld_ids = np.fromiter(load_dirty, dtype=np.int64, count=len(load_dirty))
        pos_all = np.sort(
            g.pos_of[np.fromiter(dirty, dtype=np.int64, count=len(dirty))]
        )
        cone = g.perm[pos_all]
        # the undo log: vids/cap are replaced below, not written into,
        # so the old arrays are kept as they are
        self._undo = (
            "cone", st["vids"], st["cap"], ld_ids, st["loads"][ld_ids], cone,
            [(key, st[key][cone]) for key in _CONE_KEYS],
        )
        st["vids"] = vids.copy()
        st["cap"] = cap
        loads = st["loads"]
        for gid in load_dirty:
            lo, hi = int(g.ld_ptr[gid]), int(g.ld_ptr[gid + 1])
            v = self._wire_cap[gid]
            for a in range(lo, hi):
                v = v + cap[g.ld_sink[a]]
            if g.is_po[gid]:
                v = v + self.po_load
            loads[gid] = v
        if dirty:
            levels = g.level[cone]
            stacks = (tab.delay, tab.out_slew, tab.slew_axis, tab.load_axis)
            for lv in np.unique(levels):
                pos = pos_all[levels == lv]
                starts = g.fi_ptr[pos]
                counts = g.fi_ptr[pos + 1] - starts
                arc_idx = _concat_ranges(starts, counts)
                starts_local = np.cumsum(counts) - counts
                seg_local = np.repeat(np.arange(len(pos)), counts)
                self._forward_level(
                    st, pos, arc_idx, starts_local, seg_local, cap, stacks
                )
        self._moved_pending = set()

    def _ensure_forward(self, vids):
        dirty = None
        if self._state is not None:
            dirty, load_dirty = self._dirty_cone(vids)
        if dirty is None:
            self.full_passes += 1
            # a full pass builds a new state dict: the old one is the log
            self._undo = ("full", self._state)
            self._forward_full(vids)
        else:
            self.cone_passes += 1
            self._forward_incremental(vids, dirty, load_dirty)

    def revert_trial(self) -> None:
        """Undo the last forward pass (``trial_mct``, ``mct``, ``analyze``).

        Restores the cached timing state to what it was before that pass
        and drops pending placement updates.  Call it after putting the
        moved cells back and refreshing their geometry with
        ``update_placement``: the restored state is then the one a
        re-timing pass would compute, without the pass.  One pass can be
        undone once.
        """
        undo, self._undo = self._undo, None
        if undo is None:
            raise RuntimeError("revert_trial: no forward pass to undo")
        if undo[0] == "full":
            self._state = undo[1]
        else:
            _kind, vids, cap, ld_ids, loads, cone, saved = undo
            st = self._state
            st["vids"], st["cap"] = vids, cap
            st["loads"][ld_ids] = loads
            for key, values in saved:
                st[key][cone] = values
        self._moved_pending = set()

    # ------------------------------------------------------------------
    # endpoints / backward
    # ------------------------------------------------------------------
    def _fi_wire(self):
        """Wire delay of each real fan-in arc (``graph.real_fi`` order)."""
        g = self.graph
        a = g.real_fi
        return self._fi_rw[a] * (
            0.5 * self._fi_cw[a] + self._state["cap"][g.fi_sink[a]]
        ) * KOHM_FF_TO_NS

    def _ff_wire(self):
        """Wire delay of each flip-flop data-pin arc."""
        g = self.graph
        return self._ff_rw * (
            0.5 * self._ff_cw + self._state["cap"][g.ff_gate]
        ) * KOHM_FF_TO_NS

    def _endpoints(self):
        g = self.graph
        st = self._state
        setup_v = g.library.variant_table().setup
        ep_po = st["arrival"][g.po_ids] if len(g.po_ids) else np.empty(0)
        if len(g.ff_src):
            ep_ff = (st["arrival"][g.ff_src] + self._ff_wire()) + setup_v[
                st["vids"][g.ff_gate]
            ]
        else:
            ep_ff = np.empty(0)
        mct = 0.0
        if len(ep_po):
            mct = max(mct, float(ep_po.max()))
        if len(ep_ff):
            mct = max(mct, float(ep_ff.max()))
        return ep_po, ep_ff, mct

    def _backward(self, period):
        g = self.graph
        st = self._state
        setup_of = g.library.variant_table().setup[st["vids"]]
        cap = st["cap"]
        gate_delay = st["gate_delay"]
        inf = np.inf
        required = np.full(g.n, inf)
        required[g.po_ids] = period
        for lo, hi in reversed(g.level_slices):
            a0, a1 = int(g.fo_ptr[lo]), int(g.fo_ptr[hi])
            succ = g.fo_succ[a0:a1]
            valid = succ >= 0
            sc = np.where(valid, succ, 0)
            wd = self._fo_rw[a0:a1] * (
                0.5 * self._fo_cw[a0:a1] + cap[sc]
            ) * KOHM_FF_TO_NS
            contrib = np.where(
                valid,
                np.where(
                    g.is_seq[sc],
                    (period - setup_of[sc]) - wd,
                    (required[sc] - gate_delay[sc]) - wd,
                ),
                inf,
            )
            starts_local = g.fo_ptr[lo:hi] - a0
            seg_min = np.minimum.reduceat(contrib, starts_local)
            ids = g.perm[lo:hi]
            required[ids] = np.minimum(required[ids], seg_min)
        slack = np.where(required < inf, required - st["arrival"], period)
        return required, slack

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def analyze(self, doses=None, clock_period: float = None) -> TimingResult:
        """One STA pass.

        ``doses`` maps gate name -> (poly dose %, active dose %), missing
        gates at nominal dose, or is an (n, 2) array of them in netlist
        gate order.  ``clock_period`` is the required-time
        budget for slacks; it defaults to the computed MCT (so the worst
        slack is exactly 0).  Consecutive calls on the same analyzer
        re-time incrementally: only gates whose dose changed -- plus
        cells moved via ``update_placement`` -- and their fanout cones
        are re-propagated.
        """
        g = self.graph
        self._ensure_forward(g.vids_for(doses))
        st = self._state
        ep_po, ep_ff, mct = self._endpoints()
        period = mct if clock_period is None else float(clock_period)
        _required, slack = self._backward(period)
        arrays = TimingArrays(
            arrival=st["arrival"].copy(),
            slack=slack,
            gate_delay=st["gate_delay"].copy(),
            input_slew=st["in_slew"].copy(),
            load=st["loads"].copy(),
            fi_wire=self._fi_wire(),
            ff_wire=self._ff_wire(),
        )
        names = g.names
        return TimingResult(
            mct=mct,
            arrival=partial(_dict_of, names, arrays.arrival),
            slack=partial(_dict_of, names, arrays.slack),
            gate_delay=partial(_dict_of, names, arrays.gate_delay),
            input_slew=partial(_dict_of, names, arrays.input_slew),
            load=partial(_dict_of, names, arrays.load),
            wire_delay=partial(
                _dict_of, g.wd_keys_fi, arrays.fi_wire,
                g.wd_keys_ff, arrays.ff_wire,
            ),
            endpoint_arrival=partial(
                _dict_of, g.po_labels, ep_po, g.ff_labels, ep_ff
            ),
            arrays=arrays,
        )

    def mct(self, doses=None) -> float:
        """Forward-only MCT (no slacks, no dict building)."""
        self._ensure_forward(self.graph.vids_for(doses))
        return self._endpoints()[2]

    def trial_mct(self, dose_updates: dict = None) -> float:
        """Incremental MCT after a trial perturbation.

        Requires a prior ``analyze``/``mct`` call to seed the cached
        state.  ``dose_updates`` maps gate name -> (poly %, active %)
        for just the gates whose dose changed; placement changes are
        picked up from earlier ``update_placement`` calls.  Cost is
        O(dirty cone), not O(design).
        """
        if self._state is None:
            raise RuntimeError("trial_mct needs a prior analyze()/mct() pass")
        g = self.graph
        vids = self._state["vids"]
        if dose_updates:
            vids = vids.copy()
            for name, (dp, da) in dose_updates.items():
                gid = g.index[name]
                vids[gid] = g.library.variant_id(g.master_ids[gid], dp, da)
        self._ensure_forward(vids)
        return self._endpoints()[2]

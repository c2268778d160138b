"""Compiled, array-backed STA engine: the flow's golden timer.

The design is lowered into flat NumPy structures **once**, from one walk
of the netlist that lists each gate's fan-in driver ids and output-net
sink ids -- topological levels, CSR fanin/fanout/load arc arrays,
per-gate master indices into the library's variant table -- and
arrival/slew then propagate one whole topological level per NumPy call
(a vectorized bilinear interpolation over the table's stacked NLDM
arrays).  A dose
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
swap is undone by ``revert_trial`` from the pass's undo log.  Both run
the same kernels: arc wire R/C, net HPWL cap, net load and the level
propagation each take the ids they compute, and a full pass passes all
of them.

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


def _csr_rows(ptr, rows):
    """Gather CSR rows ``rows``: their entry ids concatenated in row
    order, each row's start in that list, and each entry's row (an
    index into ``rows``)."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    local = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(len(rows)), counts)
    return starts[seg] + (np.arange(len(seg)) - local[seg]), local, seg


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
        self.index = index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.n = n

        # ---- the one netlist walk -----------------------------------
        # per gate: the driver id of each input pin (-1: a primary
        # input) and the sink id of each pin on its output net; every
        # CSR and touch list below is derived from these two lists
        gates, nets = netlist.gates, netlist.nets
        self.masters, fanin, fanout, pin_nets = [], [], [], []
        self.is_po = np.zeros(n, dtype=bool)
        self.po_labels = []
        for gid, name in enumerate(names):
            gate = gates[name]
            self.masters.append(gate.master)
            pin_nets.append(gate.inputs)
            fanin.append(
                [index.get(nets[net].driver, -1) for net in gate.inputs]
            )
            out = nets[gate.output]
            fanout.append([index[sink] for sink, _pin in out.sinks])
            if out.is_primary_output:
                self.is_po[gid] = True
                self.po_labels.append(f"PO:{gate.output}")
        self.po_ids = np.flatnonzero(self.is_po)
        #: Variant-table master index of each gate.
        self.master_ids = library.master_ids(self.masters)
        #: Netlist position of each gate: a per-gate array in netlist
        #: order, indexed by ``nl_pos``, is in graph order.
        nl_index = {name: k for k, name in enumerate(gates)}
        self.nl_pos = np.array([nl_index[g] for g in names], dtype=np.int64)
        self.is_seq = np.array(
            [library.cell(m).is_sequential for m in self.masters], dtype=bool
        )
        is_seq = self.is_seq.tolist()

        # ---- levels -------------------------------------------------
        level = [0] * n
        for gid in range(n):
            if not is_seq[gid]:
                level[gid] = max(
                    (level[d] + 1 for d in fanin[gid] if d >= 0), default=0
                )
        self.level = level = np.array(level, dtype=np.int64)
        self.n_levels = int(level.max()) + 1 if n else 0
        # stable sort keeps topological order within a level
        self.perm = np.argsort(level, kind="stable").astype(np.int64)
        self.pos_of = np.empty(n, dtype=np.int64)
        self.pos_of[self.perm] = np.arange(n)
        bounds = np.searchsorted(
            level[self.perm], np.arange(self.n_levels + 1)
        )
        self.level_slices = [
            (int(bounds[k]), int(bounds[k + 1])) for k in range(self.n_levels)
        ]

        # ---- fan-in and fan-out arcs (perm-ordered CSR) -------------
        fi_src, fi_sink, fi_seg, fi_ptr, real_fi = [], [], [], [0], []
        fo_succ, fo_seg, fo_ptr = [], [], [0]
        #: Combinational gates with an input pin on a primary input.
        self.has_pi = np.zeros(n, dtype=bool)
        perm = self.perm.tolist()
        for p, gid in enumerate(perm):
            drv = [] if is_seq[gid] else [d for d in fanin[gid] if d >= 0]
            self.has_pi[gid] = not is_seq[gid] and len(drv) < len(fanin[gid])
            real_fi += range(len(fi_src) + 1, len(fi_src) + 1 + len(drv))
            fi_src += [-1, *drv]  # a virtual (0, input slew) arc first
            fi_sink += [gid] * (1 + len(drv))
            fi_seg += [p] * (1 + len(drv))
            fi_ptr.append(len(fi_src))
            fo_succ += [*fanout[gid], -1]  # virtual +inf arc: never empty
            fo_seg += [p] * (1 + len(fanout[gid]))
            fo_ptr.append(len(fo_succ))
        self.fi_src = np.array(fi_src, dtype=np.int64)
        self.fi_sink = np.array(fi_sink, dtype=np.int64)
        self.fi_seg = np.array(fi_seg, dtype=np.int64)
        self.fi_ptr = np.array(fi_ptr, dtype=np.int64)
        self.real_fi = np.array(real_fi, dtype=np.int64)
        self.wd_keys_fi = [
            (names[fi_src[a]], names[fi_sink[a]]) for a in real_fi
        ]
        self.fo_succ = np.array(fo_succ, dtype=np.int64)
        self.fo_seg = np.array(fo_seg, dtype=np.int64)
        self.fo_ptr = np.array(fo_ptr, dtype=np.int64)
        self.fo_owner = self.perm[self.fo_seg]

        # ---- load CSR (gate-index ordered): sinks of each output net,
        # and for HPWL the net's endpoints (driver + sinks)
        self.ld_ptr = np.cumsum([0, *map(len, fanout)], dtype=np.int64)
        self.ld_sink = np.array([s for f in fanout for s in f], dtype=np.int64)
        self.ld_owner = np.repeat(np.arange(n), np.diff(self.ld_ptr))
        self.hp_ptr = self.ld_ptr + np.arange(n + 1)
        self.hp_gate = np.insert(self.ld_sink, self.ld_ptr[:-1], np.arange(n))

        # ---- FF data-pin endpoint arcs ------------------------------
        ff_src, ff_gate, self.ff_labels = [], [], []
        for gid in np.flatnonzero(self.is_seq).tolist():
            for d, net in zip(fanin[gid], pin_nets[gid]):
                if d >= 0:
                    ff_src.append(d)
                    ff_gate.append(gid)
                    self.ff_labels.append(f"FF:{names[gid]}:{net}")
        self.ff_src = np.array(ff_src, dtype=np.int64)
        self.ff_gate = np.array(ff_gate, dtype=np.int64)
        self.wd_keys_ff = [
            (names[d], names[s]) for d, s in zip(ff_src, ff_gate)
        ]

        # ---- wire arcs and incremental adjacency --------------------
        #: Ends of every wire arc -- the fan-in arcs, then the fan-out
        #: arcs, then the FF arcs -- with -1 at a virtual end.
        self.wire_src = np.concatenate([self.fi_src, self.fo_owner,
                                        self.ff_src])
        self.wire_snk = np.concatenate([self.fi_sink, self.fo_succ,
                                        self.ff_gate])
        # per gate: the real wire arcs touching it (at either end), the
        # drivers of its input nets (whose net loads depend on this
        # gate's pin cap / position), and its combinational fanout gate
        # ids (dirty-cone closure).
        self.wire_touch = [[] for _ in range(n)]
        ends = zip(self.wire_src.tolist(), self.wire_snk.tolist())
        for a, (src, snk) in enumerate(ends):
            if src >= 0 and snk >= 0:
                self.wire_touch[src].append(a)
                self.wire_touch[snk].append(a)
        self.fanin_drivers = [{d for d in f if d >= 0} for f in fanin]
        self.comb_fanout = [[] for _ in range(n)]
        for a in real_fi:
            self.comb_fanout[fi_src[a]].append(fi_sink[a])

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

    Primary inputs and clock pins switch with ``DEFAULT_INPUT_SLEW``,
    primary outputs drive ``DEFAULT_PO_LOAD``, and net wire capacitance
    comes from HPWL.  ``graph`` shares an existing compilation of the
    same design.

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

    Each wire quantity -- arc R/C, net HPWL cap, net load -- has one
    kernel that takes the arc or gate ids it refreshes: the full build
    passes all of them, an incremental update the ones a move touched.
    """

    def __init__(self, netlist, library, placement,
                 graph: CompiledTimingGraph = None):
        self.netlist = netlist
        self.library = library
        self.placement = placement
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
        n = graph.n
        self._x, self._y = np.zeros(n), np.zeros(n)
        self._placed = np.zeros(n, dtype=bool)
        # wire R and C per wire arc, and per-kind views of them
        self._rw, self._cw = np.zeros((2, len(graph.wire_src)))
        kinds = np.cumsum([len(graph.fi_src), len(graph.fo_succ)])
        self._fi_rw, self._fo_rw, self._ff_rw = np.split(self._rw, kinds)
        self._fi_cw, self._fo_cw, self._ff_cw = np.split(self._cw, kinds)
        self._wire_cap = np.zeros(n)
        self._refresh_geometry(range(n), slice(None), np.arange(n))

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def _arc_geometry(self, src, snk):
        """(r_wire, c_wire) of arcs src -> snk; an arc with a virtual end
        (-1) or an unplaced one gets 0."""
        x, y, placed = self._x, self._y, self._placed
        valid = (src >= 0) & (snk >= 0) & placed[src] & placed[snk]
        dist = np.where(
            valid, np.abs(x[src] - x[snk]) + np.abs(y[src] - y[snk]), 0.0
        )
        return self.node.wire_r_per_um * dist, self.node.wire_c_per_um * dist

    def _wire_caps(self, ids):
        """Output-net wire capacitance, from HPWL, of gates ``ids``."""
        g = self.graph
        rows, starts, _seg = _csr_rows(g.hp_ptr, ids)
        ep = g.hp_gate[rows]
        placed = self._placed[ep]
        x, y = self._x[ep], self._y[ep]
        xmin = np.minimum.reduceat(np.where(placed, x, np.inf), starts)
        ymin = np.minimum.reduceat(np.where(placed, y, np.inf), starts)
        xmax = np.maximum.reduceat(np.where(placed, x, -np.inf), starts)
        ymax = np.maximum.reduceat(np.where(placed, y, -np.inf), starts)
        count = np.add.reduceat(placed.astype(np.int64), starts)
        hpwl = np.where(count >= 2, (xmax - xmin) + (ymax - ymin), 0.0)
        return self.node.wire_c_per_um * hpwl

    def _refresh_geometry(self, gates, arcs, nets):
        """Re-read the coordinates of ``gates`` from the placement, then
        recompute the wire R/C of wire arcs ``arcs`` (an id array, or a
        slice) and the wire cap of the output nets of gates ``nets``."""
        g, loc = self.graph, self.placement
        for gid in gates:
            name = g.names[gid]
            self._placed[gid] = loc.is_placed(name)
            if self._placed[gid]:
                self._x[gid], self._y[gid] = loc.location(name)
        self._rw[arcs], self._cw[arcs] = self._arc_geometry(
            g.wire_src[arcs], g.wire_snk[arcs]
        )
        self._wire_cap[nets] = self._wire_caps(nets)

    def update_placement(self, moved_gates) -> None:
        """Refresh geometry for moved cells; mark their cones dirty.

        Call after mutating this analyzer's bound placement (e.g. a
        dosePl swap, or its undo).  The next ``analyze``/``trial_mct``
        re-propagates only the affected cone.
        """
        g = self.graph
        ids = [g.index[m] for m in moved_gates if m in g.index]
        if not ids:
            return
        arcs = set().union(*(g.wire_touch[i] for i in ids))
        # a moved gate stretches its own output net and its input nets
        nets = set(ids).union(*(g.fanin_drivers[i] for i in ids))
        self._refresh_geometry(
            ids, np.array(sorted(arcs), dtype=np.int64),
            np.array(sorted(nets), dtype=np.int64),
        )
        self._moved_pending.update(ids)

    def rebind(self, placement) -> "VectorTimingAnalyzer":
        """New analyzer for another placement, sharing the compiled graph."""
        return VectorTimingAnalyzer(
            self.netlist, self.library, placement, graph=self.graph
        )

    # ------------------------------------------------------------------
    # forward propagation
    # ------------------------------------------------------------------
    def _net_loads(self, cap, ids):
        """Output-net load of gates ``ids``: the net's wire cap plus each
        sink pin's cap in net order, plus the primary-output load."""
        g = self.graph
        pins, _starts, seg = _csr_rows(g.ld_ptr, ids)
        loads = self._wire_cap[ids]
        np.add.at(loads, seg, cap[g.ld_sink[pins]])
        loads[g.is_po[ids]] += DEFAULT_PO_LOAD
        return loads

    def _forward_level(self, st, pos, arcs, cap, tab):
        """Propagate the gates at perm positions ``pos``, all of one
        level; ``arcs`` is their fan-in arc gather, as
        :func:`_csr_rows` gives it."""
        g = self.graph
        ids = g.perm[pos]
        arc_idx, starts_local, seg_local = arcs
        src = g.fi_src[arc_idx]
        snk = g.fi_sink[arc_idx]
        rw = self._fi_rw[arc_idx]
        cw = self._fi_cw[arc_idx]
        wd = rw * (0.5 * cw + cap[snk]) * KOHM_FF_TO_NS
        valid = src >= 0
        arr_in = np.where(valid, st["arrival"][src] + wd, 0.0)
        slew_in = np.where(valid, st["out_slew"][src], DEFAULT_INPUT_SLEW)
        best_arr, best_slew = lex_max_reduce(
            arr_in, slew_in, starts_local, seg_local
        )
        vids = st["vids"][ids]
        w = _bilinear_weights(
            tab.slew_axis[vids], tab.load_axis[vids], best_slew,
            st["loads"][ids],
        )
        dly = _bilinear_gather(tab.delay, vids, *w)
        slw = _bilinear_gather(tab.out_slew, vids, *w)
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
            "loads": self._net_loads(cap, np.arange(g.n)),
            "arrival": np.zeros(g.n),
            "out_slew": np.zeros(g.n),
            "gate_delay": np.zeros(g.n),
            "in_slew": np.zeros(g.n),
        }
        for lo, hi in g.level_slices:
            a0, a1 = int(g.fi_ptr[lo]), int(g.fi_ptr[hi])
            arcs = (np.arange(a0, a1), g.fi_ptr[lo:hi] - a0,
                    g.fi_seg[a0:a1] - lo)
            self._forward_level(st, np.arange(lo, hi), arcs, cap, tab)
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
        st["loads"][ld_ids] = self._net_loads(cap, ld_ids)
        levels = g.level[cone]
        for lv in np.unique(levels):
            pos = pos_all[levels == lv]
            self._forward_level(st, pos, _csr_rows(g.fi_ptr, pos), cap, tab)
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

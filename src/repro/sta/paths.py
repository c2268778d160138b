"""Top-K critical path enumeration on the compiled timing graph.

dosePl operates on "the top-K (e.g., K = 10,000) critical paths" from
golden timing analysis (Section IV-A).  This module enumerates paths of
the timing DAG in strictly non-increasing total-delay order using a
best-first search with exact upper bounds (prefix delay + longest
downstream suffix), so the first K emitted paths are exactly the K most
critical ones.

The DAG mirrors the STA abstraction: node weight = gate delay, arc weight
= interconnect delay, flip-flops act as sources (clk->q) and their D-pins
as endpoints (+setup), primary outputs are endpoints.  Its structure is
derived from :class:`~repro.sta.compiled.CompiledTimingGraph`'s arrays
alone -- the load CSR (``ld_ptr``/``ld_sink``), the primary-output and
FF endpoint labels, the fan-in and FF arc lists, and the sources
``is_seq | has_pi`` -- once, and cached there; it never walks the
netlist.  Each call reads only the gate and wire delay arrays of the
result (:class:`~repro.sta.timing.TimingArrays`).

Ties are broken by push order: sources in netlist order, and per gate
its primary-output arc first, then one arc per sink pin of its output
net in net order.  A gate driving two pins of the same successor thus
yields each path through that pair twice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.sta.timing import TimingResult


@dataclass(frozen=True)
class TimingPath:
    """One register-to-register / I/O timing path.

    Attributes
    ----------
    gates:
        Gate names along the path in signal order (launch cell first).
    delay:
        Total path delay (ns), including clk->q at the launch flop and
        setup at the capture flop where applicable.
    endpoint:
        Endpoint label: ``"PO:<net>"`` or ``"FF:<flop>:<net>"``.
    """

    gates: tuple
    delay: float
    endpoint: str

    def slack(self, period: float) -> float:
        return period - self.delay

    def __len__(self):
        return len(self.gates)


class _PathArcs:
    """The path DAG's arcs over a compiled graph's gate indices.

    Arcs are grouped per driving gate (``lo``/``hi`` bound each group);
    the sink is node ``n``.  ``wire_idx`` indexes an arc's wire delay in
    ``[fi_wire, ff_wire, 0.0]`` of the result's
    :class:`~repro.sta.timing.TimingArrays` (a primary-output arc reads
    the trailing 0), and ``setup`` is the capture flop's setup time on an
    FF arc, else 0.
    """

    def __init__(self, graph):
        n, n_fi = graph.n, len(graph.real_fi)
        owner, sink = graph.ld_owner, graph.ld_sink
        # (driver id, sink id) -> its slot in [fi_wire, ff_wire]; two
        # pins on one net have equal wire delays
        real = graph.real_fi
        keys = zip(
            np.concatenate([graph.fi_src[real], graph.ff_src]).tolist(),
            np.concatenate([graph.fi_sink[real], graph.ff_gate]).tolist(),
        )
        slot = {key: k for k, key in enumerate(keys)}
        pin_slot = np.array(
            [slot[key] for key in zip(owner.tolist(), sink.tolist())],
            dtype=np.int64,
        )
        # per gate: its primary-output arc, then one arc per pin of the
        # load CSR; ``pin`` is each load pin's arc id
        size = graph.is_po + np.diff(graph.ld_ptr)
        hi = np.cumsum(size)
        self.lo, self.hi = (hi - size).tolist(), hi.tolist()
        pin = np.arange(len(sink)) + np.cumsum(graph.is_po)[owner]
        ff = graph.is_seq[sink]
        m = int(size.sum())
        self.succ_arr = np.full(m, n, dtype=np.int64)
        self.succ_arr[pin[~ff]] = sink[~ff]
        self.succ = self.succ_arr.tolist()
        self.setup = np.zeros(m)
        self.setup[pin[ff]] = [
            graph.library.cell(graph.masters[s]).setup_ns
            for s in sink[ff].tolist()
        ]
        # a primary-output arc reads the trailing 0
        self.wire_idx = np.full(m, n_fi + len(graph.ff_src))
        self.wire_idx[pin] = pin_slot
        self.labels = [None] * m
        po = (hi - size)[graph.po_ids]
        for at, label in zip(po.tolist(), graph.po_labels):
            self.labels[at] = label
        for at, k in zip(pin[ff].tolist(), pin_slot[ff].tolist()):
            self.labels[at] = graph.ff_labels[k - n_fi]
        # path sources in netlist order
        order = np.argsort(graph.nl_pos)
        self.sources = order[(graph.is_seq | graph.has_pi)[order]].tolist()

    def weights(self, arrays):
        """Arc weights: wire delay plus the successor's gate delay (an
        FF arc: the setup time; a primary-output arc: 0)."""
        wire = np.concatenate([arrays.fi_wire, arrays.ff_wire, [0.0]])
        gd = np.append(arrays.gate_delay, 0.0)
        to_gate = self.succ_arr < len(arrays.gate_delay)
        return wire[self.wire_idx] + np.where(
            to_gate, gd[self.succ_arr], self.setup
        )


def _path_arcs(graph) -> _PathArcs:
    arcs = graph.__dict__.get("_path_arcs")
    if arcs is None:
        arcs = graph._path_arcs = _PathArcs(graph)
    return arcs


def top_k_paths(graph, result: TimingResult, k: int) -> list:
    """The K most critical paths, in non-increasing delay order.

    ``graph`` is the design's
    :class:`~repro.sta.compiled.CompiledTimingGraph`; ``result`` must
    come from an STA pass on it (its gate and wire delay arrays define
    the DAG weights).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if result.arrays is None or len(result.arrays.gate_delay) != graph.n:
        raise ValueError("top_k_paths needs a result of this graph's STA pass")
    arcs = _path_arcs(graph)
    n, names = graph.n, graph.names
    succ_of, labels, lo, hi = arcs.succ, arcs.labels, arcs.lo, arcs.hi
    gd = result.arrays.gate_delay.tolist()
    w = arcs.weights(result.arrays).tolist()

    # longest delay from every node to the sink (-inf: no endpoint), in
    # one pass over the gates in reverse topological order
    neg_inf = float("-inf")
    down = [neg_inf] * n + [0.0]
    for gid in range(n - 1, -1, -1):
        best = neg_inf
        for a in range(lo[gid], hi[gid]):
            bound = w[a] + down[succ_of[a]]
            if bound > best:
                best = bound
        down[gid] = best

    # the source node's arcs, pushed in order (it is the first pop); a
    # heap entry's prefix is a linked list (gate id, parent prefix), so
    # a push costs O(1) and only an emitted path is materialized
    heap = []
    counter = 0  # tie-breaker so heapq never compares prefixes
    for src in arcs.sources:
        if down[src] == neg_inf:
            continue
        nd = 0.0 + gd[src]
        counter += 1
        heap.append((-(nd + down[src]), counter, src, nd, (src, None), None))
    heapq.heapify(heap)

    # Best-first expansion.  Keys (-bound, counter) are unique, so the
    # pop order is fixed by the keys alone: an expanded node's best
    # child that beats the heap top would be the very next pop, and is
    # taken directly instead of through the heap.
    paths = []
    push, pop = heapq.heappush, heapq.heappop
    entry = None
    while entry is not None or heap:
        if entry is None:
            entry = pop(heap)
        _neg_bound, _cnt, node, dist, prefix, label = entry
        entry = None
        if node == n:
            gates = []
            while prefix is not None:
                gid, prefix = prefix
                gates.append(names[gid])
            gates.reverse()
            paths.append(
                TimingPath(gates=tuple(gates), delay=dist, endpoint=label)
            )
            if len(paths) == k:
                break
            continue
        best = None
        for a in range(lo[node], hi[node]):
            succ = succ_of[a]
            bound = down[succ]
            if bound == neg_inf:
                continue
            nd = dist + w[a]
            counter += 1
            if succ == n:
                child = (-(nd + bound), counter, n, nd, prefix, labels[a])
            else:
                child = (-(nd + bound), counter, succ, nd, (succ, prefix),
                         label)
            # ties go to the earlier child: its counter is smaller
            if best is None or child[0] < best[0]:
                if best is not None:
                    push(heap, best)
                best = child
            else:
                push(heap, child)
        if best is not None:
            top = heap[0] if heap else None
            if top is not None and (
                top[0] < best[0] or (top[0] == best[0] and top[1] < best[1])
            ):
                push(heap, best)
            else:
                entry = best
    return paths


def criticality_histogram(paths, mct: float, thresholds=(0.95, 0.90, 0.80)) -> dict:
    """Fraction of paths with delay above each threshold x MCT.

    Reproduces the paper's Table VII metric ("percentage of critical
    timing paths ... within a specific range of timing").
    """
    if not paths:
        return {t: 0.0 for t in thresholds}
    n = len(paths)
    return {
        t: sum(1 for p in paths if p.delay >= t * mct) / n * 100.0
        for t in thresholds
    }

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
read from :class:`~repro.sta.compiled.CompiledTimingGraph` once and
cached there; each call reads only the result's gate and wire delays.

Ties are broken by push order: sources in netlist order, and per gate
its primary-output arc first, then one arc per sink pin of its output
net in net order.  A gate driving two pins of the same successor thus
yields each path through that pair twice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
    the sink is node ``n``.  ``wd_keys`` are the
    ``TimingResult.wire_delay`` keys (a primary-output arc's key is
    absent, so its wire delay reads 0) and ``setup`` is the capture
    flop's setup time on an FF arc, else 0.
    """

    def __init__(self, graph):
        nl, lib = graph.netlist, graph.library
        index, n = graph.index, graph.n
        self.lo, self.hi = [], []
        self.succ, self.setup, self.labels, self.wd_keys = [], [], [], []
        for name in graph.names:
            out = nl.gates[name].output
            net = nl.nets[out]
            self.lo.append(len(self.succ))
            if net.is_primary_output:
                self._add(n, 0.0, f"PO:{out}", (name, None))
            for sink, _pin in net.sinks:
                sid = index[sink]
                if graph.is_seq[sid]:
                    setup = lib.cell(nl.gates[sink].master).setup_ns
                    self._add(n, setup, f"FF:{sink}:{out}", (name, sink))
                else:
                    self._add(sid, 0.0, None, (name, sink))
            self.hi.append(len(self.succ))
        self.sources = [
            index[name]
            for name, gate in nl.gates.items()
            if graph.is_seq[index[name]]
            or any(nl.nets[net].driver is None for net in gate.inputs)
        ]

    def _add(self, succ, setup, label, wd_key):
        self.succ.append(succ)
        self.setup.append(setup)
        self.labels.append(label)
        self.wd_keys.append(wd_key)


def _path_arcs(graph) -> _PathArcs:
    arcs = graph.__dict__.get("_path_arcs")
    if arcs is None:
        arcs = graph._path_arcs = _PathArcs(graph)
    return arcs


def top_k_paths(graph, result: TimingResult, k: int) -> list:
    """The K most critical paths, in non-increasing delay order.

    ``graph`` is the design's
    :class:`~repro.sta.compiled.CompiledTimingGraph`; ``result`` must
    come from an STA pass on the same design (its gate and wire delays
    define the DAG weights).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    arcs = _path_arcs(graph)
    n, names = graph.n, graph.names
    succ_of, labels, lo, hi = arcs.succ, arcs.labels, arcs.lo, arcs.hi
    gate_delay = result.gate_delay
    gd = [gate_delay[name] for name in names]
    get = result.wire_delay.get
    w = [
        get(key, 0.0) + (gd[succ] if succ < n else setup)
        for key, succ, setup in zip(arcs.wd_keys, succ_of, arcs.setup)
    ]

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

    paths = []
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        _neg_bound, _cnt, node, dist, prefix, label = pop(heap)
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
        for a in range(lo[node], hi[node]):
            succ = succ_of[a]
            bound = down[succ]
            if bound == neg_inf:
                continue
            nd = dist + w[a]
            counter += 1
            if succ == n:
                push(heap, (-(nd + bound), counter, n, nd, prefix, labels[a]))
            else:
                push(heap, (-(nd + bound), counter, succ, nd, (succ, prefix),
                            label))
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

"""Reference top-K path enumerator: the dict DAG, kept as a test oracle.

It rebuilds an adjacency dict from the netlist on every call and finds
suffix bounds with a memoized depth-first search.  The production
enumerator (:func:`repro.sta.paths.top_k_paths`) reads the compiled
timing graph instead and must return a list ``==`` to this one.
"""

from __future__ import annotations

import heapq

from repro.sta.paths import TimingPath

_SOURCE = "__SRC__"
_SINK = "__SNK__"


def _build_dag(netlist, library, result):
    """Adjacency: node -> list of (succ node, arc weight, endpoint label)."""
    is_seq = {
        name: library.cell(g.master).is_sequential
        for name, g in netlist.gates.items()
    }
    adj: dict = {_SOURCE: []}
    for name, gate in netlist.gates.items():
        arcs = []
        out_net = netlist.nets[gate.output]
        if out_net.is_primary_output:
            arcs.append((_SINK, 0.0, f"PO:{gate.output}"))
        for succ, _pin in out_net.sinks:
            wd = result.wire_delay.get((name, succ), 0.0)
            if is_seq[succ]:
                setup = library.cell(netlist.gate(succ).master).setup_ns
                arcs.append((_SINK, wd + setup, f"FF:{succ}:{gate.output}"))
            else:
                arcs.append((succ, wd + result.gate_delay[succ], None))
        adj[name] = arcs
        if is_seq[name]:
            adj[_SOURCE].append((name, result.gate_delay[name], None))
        elif any(netlist.nets[n].driver is None for n in gate.inputs):
            adj[_SOURCE].append((name, result.gate_delay[name], None))
    adj[_SINK] = []
    return adj


def _longest_to_sink(adj) -> dict:
    """Longest-path distance from every node to the sink (DAG DP)."""
    memo: dict = {_SINK: 0.0}
    # iterative DFS to avoid recursion limits on deep designs
    stack = [(_SOURCE, False)]
    while stack:
        node, expanded = stack.pop()
        if node in memo:
            continue
        if expanded:
            best = float("-inf")
            for succ, w, _lbl in adj[node]:
                if succ in memo:
                    best = max(best, w + memo[succ])
            memo[node] = best if adj[node] else float("-inf")
        else:
            stack.append((node, True))
            for succ, _w, _lbl in adj[node]:
                if succ not in memo:
                    stack.append((succ, False))
    return memo


def top_k_paths(netlist, library, result, k: int) -> list:
    """The K most critical paths, in non-increasing delay order.

    ``result`` must come from an STA pass on the same netlist/library
    (its gate and wire delays define the DAG weights).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    adj = _build_dag(netlist, library, result)
    down = _longest_to_sink(adj)
    if down.get(_SOURCE, float("-inf")) == float("-inf"):
        return []  # no endpoint reachable

    paths = []
    counter = 0  # tie-breaker so heapq never compares tuples of gates
    heap = [(-down[_SOURCE], counter, _SOURCE, 0.0, (), None)]
    while heap and len(paths) < k:
        neg_bound, _cnt, node, dist, prefix, label = heapq.heappop(heap)
        if node == _SINK:
            paths.append(TimingPath(gates=prefix, delay=dist, endpoint=label))
            continue
        for succ, w, lbl in adj[node]:
            if down.get(succ, float("-inf")) == float("-inf"):
                continue
            nd = dist + w
            counter += 1
            new_prefix = prefix if succ == _SINK else prefix + (succ,)
            heapq.heappush(
                heap,
                (-(nd + down[succ]), counter, succ, nd, new_prefix, lbl or label),
            )
    return paths

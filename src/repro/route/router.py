"""Grid-based global router.

The paper's flow ends with "ECO routing ... executed for the affected
wires" (Section IV-A).  Our timer defaults to HPWL-based wire estimates;
this module supplies the next fidelity level: a classic two-stage global
router over a gcell grid --

1. **initial routing**: every driver-sink two-pin connection takes the
   cheaper of its two L-shapes under the current congestion picture,
2. **rip-up and re-route**: connections through over-capacity edges are
   re-routed by Dijkstra with congestion-dependent edge costs
   (negotiation-style penalties).

Outputs per-net routed lengths (consumable by the timer via
``VectorTimingAnalyzer(net_lengths=...)``), a congestion map, and overflow
statistics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RoutingGrid:
    """Gcell grid with horizontal/vertical edge capacities.

    Edges: ``h_usage[i, j]`` is the edge from gcell (i, j) to (i, j+1);
    ``v_usage[i, j]`` from (i, j) to (i+1, j).
    """

    width: float
    height: float
    gcell: float
    capacity: int = 12

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.gcell <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.m = max(1, int(np.ceil(self.height / self.gcell)))
        self.n = max(1, int(np.ceil(self.width / self.gcell)))
        self.h_usage = np.zeros((self.m, max(self.n - 1, 1)), dtype=int)
        self.v_usage = np.zeros((max(self.m - 1, 1), self.n), dtype=int)

    def gcell_of(self, x: float, y: float) -> tuple:
        j = min(self.n - 1, max(0, int(x / self.width * self.n)))
        i = min(self.m - 1, max(0, int(y / self.height * self.m)))
        return i, j

    # -- edge bookkeeping ------------------------------------------------
    def _edges_of_path(self, path):
        """Edges ((kind, i, j)) along a gcell path."""
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            if i1 == i2:
                yield ("h", i1, min(j1, j2))
            else:
                yield ("v", min(i1, i2), j1)

    def add_path(self, path, delta: int = 1):
        for kind, i, j in self._edges_of_path(path):
            if kind == "h":
                self.h_usage[i, j] += delta
            else:
                self.v_usage[i, j] += delta

    def edge_usage(self, kind: str, i: int, j: int) -> int:
        return int(self.h_usage[i, j] if kind == "h" else self.v_usage[i, j])

    def overflow(self) -> int:
        """Total usage beyond capacity over all edges."""
        return int(
            np.maximum(self.h_usage - self.capacity, 0).sum()
            + np.maximum(self.v_usage - self.capacity, 0).sum()
        )

    def congestion_map(self) -> np.ndarray:
        """Per-gcell worst adjacent-edge utilization (fraction of cap)."""
        util = np.zeros((self.m, self.n))
        for i in range(self.m):
            for j in range(self.n):
                vals = []
                if j > 0:
                    vals.append(self.h_usage[i, j - 1])
                if j < self.n - 1:
                    vals.append(self.h_usage[i, j])
                if i > 0:
                    vals.append(self.v_usage[i - 1, j])
                if i < self.m - 1:
                    vals.append(self.v_usage[i, j])
                util[i, j] = max(vals) / self.capacity if vals else 0.0
        return util


def _l_paths(src, dst):
    """The two L-shaped gcell paths between two gcells."""
    (i1, j1), (i2, j2) = src, dst
    step_i = 1 if i2 >= i1 else -1
    step_j = 1 if j2 >= j1 else -1
    vert = [(i, j1) for i in range(i1, i2 + step_i, step_i)]
    horiz = [(i2, j) for j in range(j1, j2 + step_j, step_j)]
    path_a = vert + horiz[1:]  # vertical first
    horiz2 = [(i1, j) for j in range(j1, j2 + step_j, step_j)]
    vert2 = [(i, j2) for i in range(i1, i2 + step_i, step_i)]
    path_b = horiz2 + vert2[1:]  # horizontal first
    return path_a, path_b


@dataclass
class RouteResult:
    """Routing outcome for one design."""

    grid: RoutingGrid
    net_lengths: dict
    overflow: int
    rerouted: int
    connections: dict = field(repr=False, default_factory=dict)

    @property
    def total_wirelength(self) -> float:
        return sum(self.net_lengths.values())


class GlobalRouter:
    """Two-stage global router (see module docstring)."""

    def __init__(self, netlist, placement, gcell: float = 5.0,
                 capacity: int = 40, overflow_penalty: float = 4.0):
        self.netlist = netlist
        self.placement = placement
        self.grid = RoutingGrid(
            placement.die.width, placement.die.height, gcell, capacity
        )
        self.overflow_penalty = float(overflow_penalty)

    # -- cost model --------------------------------------------------
    def _path_cost(self, path) -> float:
        cost = 0.0
        for kind, i, j in self.grid._edges_of_path(path):
            usage = self.grid.edge_usage(kind, i, j)
            cost += 1.0
            if usage >= self.grid.capacity:
                cost += self.overflow_penalty * (
                    usage - self.grid.capacity + 1
                )
        return cost

    def _dijkstra(self, src, dst):
        """Congestion-aware shortest gcell path."""
        m, n = self.grid.m, self.grid.n
        dist = {src: 0.0}
        prev = {}
        heap = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if node == dst:
                break
            if d > dist.get(node, np.inf):
                continue
            i, j = node
            for ni, nj, kind, ei, ej in (
                (i, j + 1, "h", i, j),
                (i, j - 1, "h", i, j - 1),
                (i + 1, j, "v", i, j),
                (i - 1, j, "v", i - 1, j),
            ):
                if not (0 <= ni < m and 0 <= nj < n):
                    continue
                usage = self.grid.edge_usage(kind, ei, ej)
                w = 1.0
                if usage >= self.grid.capacity:
                    w += self.overflow_penalty * (
                        usage - self.grid.capacity + 1
                    )
                nd = d + w
                if nd < dist.get((ni, nj), np.inf):
                    dist[(ni, nj)] = nd
                    prev[(ni, nj)] = node
                    heapq.heappush(heap, (nd, (ni, nj)))
        if dst not in dist:
            raise RuntimeError("routing graph is disconnected")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return list(reversed(path))

    # -- main flow ---------------------------------------------------
    def _net_connections(self):
        """(net, src gcell, dst gcell) two-pin connections, star model."""
        conns = []
        for net_name, net in self.netlist.nets.items():
            if net.driver is None or not self.placement.is_placed(net.driver):
                continue
            src = self.grid.gcell_of(*self.placement.location(net.driver))
            for sink, _pin in net.sinks:
                if not self.placement.is_placed(sink):
                    continue
                dst = self.grid.gcell_of(*self.placement.location(sink))
                conns.append((net_name, src, dst))
        return conns

    def route(self, max_reroute_rounds: int = 3) -> RouteResult:
        """Run initial L-routing plus rip-up-and-reroute rounds."""
        conns = self._net_connections()
        # long connections first: they have the least flexibility
        conns.sort(key=lambda c: -(abs(c[1][0] - c[2][0]) + abs(c[1][1] - c[2][1])))
        paths = {}
        for idx, (net, src, dst) in enumerate(conns):
            a, b = _l_paths(src, dst)
            path = a if self._path_cost(a) <= self._path_cost(b) else b
            self.grid.add_path(path)
            paths[idx] = path

        rerouted = 0
        base_penalty = self.overflow_penalty
        for rnd in range(max_reroute_rounds):
            if self.grid.overflow() == 0:
                break
            # negotiation: escalate the congestion penalty every round
            self.overflow_penalty = base_penalty * (1 + rnd)
            for idx, (net, src, dst) in enumerate(conns):
                path = paths[idx]
                through_overflow = any(
                    self.grid.edge_usage(kind, i, j) > self.grid.capacity
                    for kind, i, j in self.grid._edges_of_path(path)
                )
                if not through_overflow:
                    continue
                self.grid.add_path(path, delta=-1)
                new_path = self._dijkstra(src, dst)
                # keep the new path only if it is actually cheaper under
                # the current congestion picture
                if self._path_cost(new_path) < self._path_cost(path):
                    self.grid.add_path(new_path)
                    paths[idx] = new_path
                    rerouted += 1
                else:
                    self.grid.add_path(path)
        self.overflow_penalty = base_penalty

        # Per-net routed length (um): the *union* of gcell edges used by
        # the net's connections (shared trunk edges counted once -- a
        # Steiner-like correction to the star model).  Nets confined to a
        # single gcell fall back to the HPWL estimate.
        from repro.placement.hpwl import net_hpwl

        pitch = self.grid.gcell
        net_edges: dict = {}
        conn_paths: dict = {}
        for idx, (net, _src, _dst) in enumerate(conns):
            net_edges.setdefault(net, set()).update(
                self.grid._edges_of_path(paths[idx])
            )
            conn_paths.setdefault(net, []).append(paths[idx])
        net_lengths: dict = {}
        for net_name in self.netlist.nets:
            edges = net_edges.get(net_name)
            if edges:
                net_lengths[net_name] = len(edges) * pitch
            else:
                net_lengths[net_name] = net_hpwl(
                    self.netlist, self.placement, net_name
                )
        return RouteResult(
            grid=self.grid,
            net_lengths=net_lengths,
            overflow=self.grid.overflow(),
            rerouted=rerouted,
            connections=conn_paths,
        )

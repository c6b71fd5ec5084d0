"""Unit-disk topologies and Gabriel planarization.

Nodes are points on a square field; two nodes share an edge exactly when
their distance is within the radio range. Geographic recovery routing
needs a planar subgraph, built here with the Gabriel rule: an edge
survives unless some third node sits strictly inside the circle whose
diameter is the edge. Any such witness is necessarily a unit-disk
neighbor of both endpoints, so only common neighbors need checking, and
removing the edge leaves a two-hop detour through the witness, which
keeps connected graphs connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Topology", "build_topology", "topology_from_positions"]


@dataclass
class Topology:
    positions: np.ndarray  # (n, 2) meters
    radio_range: float
    adjacency: list[list[int]]
    planar_adjacency: list[list[int]]
    connected: bool
    # Planar neighbors ordered counterclockwise by bearing, for the
    # perimeter-mode edge rotation.
    planar_sorted: list[list[tuple[float, int]]] = field(repr=False, default_factory=list)

    def __post_init__(self) -> None:
        if not self.planar_sorted:
            self.planar_sorted = [
                sorted(
                    (self.bearing(u, v), v)
                    for v in self.planar_adjacency[u]
                )
                for u in range(len(self.positions))
            ]

    @property
    def n(self) -> int:
        return len(self.positions)

    def position(self, u: int) -> tuple[float, float]:
        return float(self.positions[u, 0]), float(self.positions[u, 1])

    def distance_to(self, u: int, point: tuple[float, float]) -> float:
        return math.hypot(
            float(self.positions[u, 0]) - point[0],
            float(self.positions[u, 1]) - point[1],
        )

    def bearing(self, u: int, v: int) -> float:
        return math.atan2(
            float(self.positions[v, 1] - self.positions[u, 1]),
            float(self.positions[v, 0] - self.positions[u, 0]),
        )

    def avg_degree(self) -> float:
        return sum(len(a) for a in self.adjacency) / self.n


def _components(adjacency: list[list[int]]) -> int:
    n = len(adjacency)
    seen = [False] * n
    comps = 0
    for start in range(n):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return comps


def _gabriel_subgraph(
    positions: np.ndarray, adjacency: list[list[int]]
) -> list[list[int]]:
    n = len(positions)
    planar: list[list[int]] = [[] for _ in range(n)]
    neighbor_sets = [set(a) for a in adjacency]
    for u in range(n):
        pu = positions[u]
        for v in adjacency[u]:
            if v < u:
                continue
            pv = positions[v]
            mid = (pu + pv) / 2.0
            r2 = float(np.dot(pu - pv, pu - pv)) / 4.0
            keep = True
            for w in neighbor_sets[u]:
                if w == v:
                    continue
                if w not in neighbor_sets[v]:
                    continue
                dw = positions[w] - mid
                # Closed disk: cocircular witnesses still remove the
                # edge, so crossing diagonals of symmetric layouts go.
                if float(np.dot(dw, dw)) <= r2 + 1e-12:
                    keep = False
                    break
            if keep:
                planar[u].append(v)
                planar[v].append(u)
    for lst in planar:
        lst.sort()
    return planar


def topology_from_positions(positions, radio_range: float) -> Topology:
    """Topology over explicitly placed nodes; adjacency follows the range."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    n = len(positions)
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if radio_range <= 0:
        raise ValueError("radio_range must be positive")

    diff = positions[:, None, :] - positions[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    within = dist2 <= radio_range * radio_range
    np.fill_diagonal(within, False)
    adjacency = [np.flatnonzero(within[u]).tolist() for u in range(n)]

    planar = _gabriel_subgraph(positions, adjacency)
    connected = _components(adjacency) == 1
    return Topology(
        positions=positions,
        radio_range=radio_range,
        adjacency=adjacency,
        planar_adjacency=planar,
        connected=connected,
    )


def build_topology(
    n: int, field_size: float, radio_range: float, seed=0
) -> Topology:
    """Uniform random node placement with derived adjacency.

    Deterministic per seed. Disconnected layouts are allowed; the result
    carries a connectivity flag instead of raising.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if field_size <= 0:
        raise ValueError("field_size and radio_range must be positive")
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2)) * field_size
    return topology_from_positions(positions, radio_range)

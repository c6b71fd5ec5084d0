"""Unit-disk topologies and Gabriel planarization.

Nodes are points on a square field; two nodes share an edge exactly when
their distance is within the radio range. Geographic recovery routing
needs a planar subgraph, built here with the Gabriel rule: an edge
survives unless some third node sits inside or on the circle whose
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
    # positions as two lists of plain floats: the routing hot loop reads
    # these, since indexing the ndarray yields slow numpy scalars.
    xs: list[float] = field(init=False, repr=False, compare=False)
    ys: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.xs = self.positions[:, 0].tolist()
        self.ys = self.positions[:, 1].tolist()

    @property
    def n(self) -> int:
        return len(self.positions)

    def position(self, u: int) -> tuple[float, float]:
        return self.xs[u], self.ys[u]

    def distance_to(self, u: int, point: tuple[float, float]) -> float:
        return math.hypot(self.xs[u] - point[0], self.ys[u] - point[1])

    def bearing(self, u: int, v: int) -> float:
        xs, ys = self.xs, self.ys
        return math.atan2(ys[v] - ys[u], xs[v] - xs[u])

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


def _unit_disk(positions: np.ndarray, radio_range: float) -> np.ndarray:
    """(n, n) bool matrix of node pairs within range, diagonal False. A
    function of its own, so the (n, n, 2) differences are freed before
    planarization allocates its temporaries."""
    diff = positions[:, None, :] - positions[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= radio_range * radio_range
    np.fill_diagonal(within, False)
    return within


def _split_rows(rows: np.ndarray, cols: np.ndarray, n: int) -> list[list[int]]:
    """Per-row lists of cols, for (rows, cols) sorted by row."""
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    flat = cols.tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


# Edges tested per vectorized step: bounds the (edges, max degree)
# temporaries to a few hundred KiB on dense layouts.
_GABRIEL_CHUNK = 512


def _gabriel_subgraph(
    positions: np.ndarray, within: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> list[list[int]]:
    """Sorted planar neighbor lists of the Gabriel subgraph of within,
    whose nonzero entries are (rows, cols) in row-major order.

    An edge (u, v) goes when some common neighbor w lies in the closed
    disk with diameter uv. Every neighbor w of u is tested against the
    edge midpoint at once, a chunk of edges at a time, and masked to the
    neighbors v shares.
    """
    n = len(positions)
    deg = np.bincount(rows, minlength=n)
    # Neighbor index matrix, padded with -1 past each node's degree.
    nbr = np.full((n, max(int(deg.max()), 1)), -1, dtype=np.intp)
    starts = np.cumsum(deg) - deg
    nbr[rows, np.arange(len(rows)) - starts[rows]] = cols

    eu, ev = np.nonzero(np.triu(within))
    keep = np.ones(len(eu), dtype=bool)
    px, py = positions[:, 0], positions[:, 1]
    for lo in range(0, len(eu), _GABRIEL_CHUNK):
        u = eu[lo:lo + _GABRIEL_CHUNK]
        v = ev[lo:lo + _GABRIEL_CHUNK]
        dx, dy = px[u] - px[v], py[u] - py[v]
        r2 = (dx * dx + dy * dy) / 4.0
        mx, my = (px[u] + px[v]) / 2.0, (py[u] + py[v]) / 2.0
        w = nbr[u]
        common = (w >= 0) & (w != v[:, None]) & within[v[:, None], w]
        wx, wy = px[w] - mx[:, None], py[w] - my[:, None]
        # Closed disk: cocircular witnesses still remove the edge, so
        # crossing diagonals of symmetric layouts go.
        inside = common & (wx * wx + wy * wy <= (r2 + 1e-12)[:, None])
        keep[lo:lo + _GABRIEL_CHUNK] = ~inside.any(axis=1)

    eu, ev = eu[keep], ev[keep]
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.lexsort((dst, src))
    return _split_rows(src[order], dst[order], n)


def topology_from_positions(positions, radio_range: float) -> Topology:
    """Topology over explicitly placed nodes; adjacency follows the range."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    n = len(positions)
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    if not 0 < radio_range < math.inf:
        raise ValueError(f"radio_range must be positive and finite, got {radio_range}")

    within = _unit_disk(positions, radio_range)
    rows, cols = np.nonzero(within)
    adjacency = _split_rows(rows, cols, n)

    planar = _gabriel_subgraph(positions, within, rows, cols)
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
    if not 0 < field_size < math.inf:
        raise ValueError(f"field_size must be positive and finite, got {field_size}")
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2)) * field_size
    return topology_from_positions(positions, radio_range)

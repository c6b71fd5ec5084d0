"""Unit-disk topologies and Gabriel planarization.

Nodes are points on a square field; two nodes share an edge exactly when
their distance is within the radio range. Geographic recovery routing
needs a planar subgraph, built here with the Gabriel rule: an edge
survives unless some third node sits inside or on the circle whose
diameter is the edge. Any such witness is necessarily a unit-disk
neighbor of both endpoints, so only common neighbors need checking, and
removing the edge leaves a two-hop detour through the witness, which
keeps connected graphs connected. Perimeter mode relies on this rule,
not on planarity alone: gpsr proves it needs no face change on the
Gabriel subgraph or its subgraphs (such as the RNG), not any planar graph.

Each topology keeps both graphs as padded (n, max degree) index
matrices, rows ascending and filled with -1 past each node's degree:
the planarization tests a chunk of edges at once, the connectivity
search expands a whole frontier at once, greedy routing scores a batch
of legs' neighbours in one numpy step, and perimeter mode walks the
Gabriel rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = ["Topology", "build_topology", "topology_from_positions"]


@dataclass(eq=False)
class Topology:
    positions: np.ndarray  # (n, 2) meters
    radio_range: float
    connected: bool
    # unit-disk and Gabriel neighbours in ascending order, each an
    # (n, max degree) int32 matrix padded with -1
    neighbors: np.ndarray = field(repr=False)
    planar: np.ndarray = field(repr=False)
    # positions as two lists of plain floats: the routing hot loop reads
    # these, since indexing the ndarray yields slow numpy scalars.
    xs: list[float] = field(init=False, repr=False)
    ys: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.xs = self.positions[:, 0].tolist()
        self.ys = self.positions[:, 1].tolist()

    @property
    def n(self) -> int:
        return len(self.positions)

    def position(self, u: int) -> tuple[float, float]:
        return self.xs[u], self.ys[u]

    def distance_to(self, u: int, point: tuple[float, float]) -> float:
        # The routing distance formula (see gpsr), on plain floats.
        dx, dy = self.xs[u] - point[0], self.ys[u] - point[1]
        return math.sqrt(dx * dx + dy * dy)

    def bearing(self, u: int, v: int) -> float:
        xs, ys = self.xs, self.ys
        return math.atan2(ys[v] - ys[u], xs[v] - xs[u])

    def avg_degree(self) -> float:
        return int(np.count_nonzero(self.neighbors >= 0)) / self.n


def _is_connected(nbr: np.ndarray) -> bool:
    """Whether node 0 reaches every node of the -1 padded neighbour
    matrix nbr, by a breadth-first search one frontier at a time."""
    seen = np.zeros(len(nbr), dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        reached = nbr[frontier].ravel()
        frontier = np.zeros_like(seen)
        frontier[reached[reached >= 0]] = True
        frontier &= ~seen
    return bool(seen.all())


def _unit_disk(positions: np.ndarray, radio_range: float) -> np.ndarray:
    """(n, n) bool matrix of node pairs within range, diagonal False. A
    function of its own, so the (n, n, 2) differences are freed before
    planarization allocates its temporaries."""
    diff = positions[:, None, :] - positions[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= radio_range * radio_range
    np.fill_diagonal(within, False)
    return within


def _neighbor_matrix(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Per-row cols of (rows, cols) sorted by row, as an (n, max degree)
    int32 matrix padded with -1."""
    deg = np.bincount(rows, minlength=n)
    nbr = np.full((n, max(int(deg.max()), 1)), -1, dtype=np.int32)
    starts = np.cumsum(deg) - deg
    nbr[rows, np.arange(len(rows)) - starts[rows]] = cols
    return nbr


def _stack_offset(blocks: list[np.ndarray]) -> np.ndarray:
    """Padded neighbour matrices of consecutive layouts as one, each
    offset by the rows before it and padded to the widest."""
    width = max(block.shape[1] for block in blocks)
    out = np.full((sum(map(len, blocks)), width), -1, dtype=np.int32)
    start = 0
    for block in blocks:
        rows = out[start:start + len(block), :block.shape[1]]
        np.add(block, start, out=rows, where=block >= 0)
        start += len(block)
    return out


def _disjoint_union(layouts: Iterable[Topology]) -> Topology:
    """The layouts as the components of one topology: node u of a layout
    becomes u plus the node count of the layouts before it. Layouts are
    taken one at a time, keeping only their arrays."""
    positions, nbrs, planars = [], [], []
    for layout in layouts:
        positions.append(layout.positions)
        nbrs.append(layout.neighbors)
        planars.append(layout.planar)
    nbr = _stack_offset(nbrs)
    return Topology(
        positions=np.concatenate(positions),
        radio_range=layout.radio_range,
        connected=_is_connected(nbr),
        neighbors=nbr,
        planar=_stack_offset(planars),
    )


# Edges tested per vectorized step: bounds the (edges, max degree)
# temporaries to a few hundred KiB on dense layouts.
_GABRIEL_CHUNK = 512


def _gabriel_subgraph(
    positions: np.ndarray, within: np.ndarray, nbr: np.ndarray
) -> np.ndarray:
    """The Gabriel subgraph of within, whose rows nbr lists as a -1
    padded neighbor matrix, as a padded matrix of the same kind.

    An edge (u, v) goes when some common neighbor w lies in the closed
    disk with diameter uv. Every neighbor w of u is tested against the
    edge midpoint at once, a chunk of edges at a time, and masked to the
    neighbors v shares.
    """
    n = len(positions)
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
    return _neighbor_matrix(src[order], dst[order], n)


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
    nbr = _neighbor_matrix(*np.nonzero(within), n)
    return Topology(
        positions=positions,
        radio_range=radio_range,
        connected=_is_connected(nbr),
        neighbors=nbr,
        planar=_gabriel_subgraph(positions, within, nbr),
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

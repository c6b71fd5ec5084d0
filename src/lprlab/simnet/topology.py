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

A topology is frozen: its fields cannot be reassigned, so nothing
derived from them goes stale. It keeps the node coordinates (positions)
and both graphs as padded (n, max degree) index matrices, rows ascending
and filled with -1 past each node's degree; the radio range is kept only
in the matrices. The planarization tests a chunk of edges at once, and
perimeter mode walks the Gabriel rows. The rest is derived:
- Topology.connected searches the unit-disk rows a whole frontier at a
  time on each call. A pool (scenario.build_pool) runs the same search
  on each layout attempt before its Gabriel pass, so only connected
  attempts are planarized.
- Topology.neighbor_xy, the unit-disk neighbours' coordinates shaped
  like the neighbour matrix (+inf in its padding), lets greedy routing
  score a batch of legs' neighbours in one numpy step. The first
  gpsr.route_legs call on a topology builds it and the topology keeps
  it: 16 bytes per matrix entry, four times the matrix, 1.6 MiB for the
  README scenario's pool.
- gpsr.route_legs copies the coordinates to plain floats for the
  perimeter walker, in each call that meets a local minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = ["Topology", "build_topology", "topology_from_positions"]


@dataclass(frozen=True, eq=False)
class Topology:
    positions: np.ndarray  # (n, 2) meters
    # unit-disk and Gabriel neighbours in ascending order, each an
    # (n, max degree) int32 matrix padded with -1
    neighbors: np.ndarray = field(repr=False)
    planar: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def neighbor_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and y of each unit-disk neighbour, as two float64
        matrices shaped like neighbors, +inf where it is -1: copies of
        positions, made on the first call and kept."""
        xs = np.append(self.positions[:, 0], math.inf)
        ys = np.append(self.positions[:, 1], math.inf)
        # Indexing casts the int32 ids in chunks; take would first copy
        # them all to intp, a temporary as large as one matrix.
        return xs[self.neighbors], ys[self.neighbors]

    def position(self, u: int) -> tuple[float, float]:
        return tuple(self.positions[u].tolist())

    def distance_to(self, u: int, point: tuple[float, float]) -> float:
        # The routing distance formula (see gpsr), on plain floats.
        x, y = self.positions[u].tolist()
        dx, dy = x - point[0], y - point[1]
        return math.sqrt(dx * dx + dy * dy)

    def avg_degree(self) -> float:
        return int(np.count_nonzero(self.neighbors >= 0)) / self.n

    @property
    def connected(self) -> bool:
        """Whether node 0 reaches every node over neighbors; each call
        searches anew."""
        return _connected(self.neighbors)


def _connected(nbr: np.ndarray) -> bool:
    """Whether node 0 reaches every node of the padded neighbour matrix
    nbr, by a breadth-first search one frontier at a time."""
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


def _squared_distances(positions: np.ndarray) -> np.ndarray:
    """(n, n) squared distances dx*dx + dy*dy, summed in place from the
    per-axis (n, n) offsets: two (n, n) float64 arrays at most."""
    x, y = positions[:, 0], positions[:, 1]
    d2 = x[:, None] - x
    d2 *= d2
    dy = y[:, None] - y
    dy *= dy
    d2 += dy
    return d2


def _unit_disk(positions: np.ndarray, radio_range: float) -> np.ndarray:
    """(n, n) bool matrix of node pairs within range, diagonal False. A
    function of its own, so the squared distances are freed before
    planarization allocates its temporaries."""
    within = _squared_distances(positions) <= radio_range * radio_range
    np.fill_diagonal(within, False)
    return within


def _neighbor_matrix(deg: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (len(deg), max degree) int32 matrix, padded with -1, whose row
    r holds the next deg[r] of cols: cols lists each row's entries in turn,
    so a row-major fill of each row's first deg[r] slots places them."""
    nbr = np.full((len(deg), max(int(deg.max()), 1)), -1, dtype=np.int32)
    nbr[np.arange(nbr.shape[1]) < deg[:, None]] = cols
    return nbr


def _disjoint_union(layouts: Iterable[Topology]) -> Topology:
    """The layouts as the components of one topology: node u of a layout
    becomes u plus the node count of the layouts before it. Layouts are
    taken one at a time, keeping only their arrays."""
    positions, nbrs, planars = [], [], []
    start = 0
    for layout in layouts:
        positions.append(layout.positions)
        for entries, nbr in ((nbrs, layout.neighbors), (planars, layout.planar)):
            filled = nbr >= 0
            entries.append((np.count_nonzero(filled, axis=1), nbr[filled] + start))
        start += layout.n
    return Topology(
        positions=np.concatenate(positions),
        neighbors=_neighbor_matrix(*map(np.concatenate, zip(*nbrs))),
        planar=_neighbor_matrix(*map(np.concatenate, zip(*planars))),
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
    return _neighbor_matrix(np.bincount(src, minlength=n), dst[np.lexsort((dst, src))])


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

    return _planarized(positions, radio_range)


def _planarized(
    positions: np.ndarray, radio_range: float, connected_only: bool = False
) -> Topology | None:
    """The topology of checked positions. With connected_only, a layout
    whose unit-disk graph is disconnected gives None, and its Gabriel
    pass never runs."""
    within = _unit_disk(positions, radio_range)
    rows, cols = np.nonzero(within)
    nbr = _neighbor_matrix(np.bincount(rows, minlength=len(positions)), cols)
    if connected_only and not _connected(nbr):
        return None
    return Topology(
        positions=positions,
        neighbors=nbr,
        planar=_gabriel_subgraph(positions, within, nbr),
    )


def build_topology(
    n: int, field_size: float, radio_range: float, seed=0
) -> Topology:
    """Uniform random node placement with derived adjacency.

    Deterministic per seed. Disconnected layouts are allowed: a caller
    that needs a connected one asks the result's connected property.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0 < field_size < math.inf:
        raise ValueError(f"field_size must be positive and finite, got {field_size}")
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2)) * field_size
    return topology_from_positions(positions, radio_range)

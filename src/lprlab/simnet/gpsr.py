"""Greedy geographic forwarding with perimeter-mode recovery.

Packets are addressed to a position. Each greedy hop must strictly reduce
distance to the destination; a node with no closer neighbor is a local
minimum, and the packet switches to perimeter mode on the planar subgraph:
it walks face boundaries by the right-hand rule (next edge counterclockwise
from the arrival edge), hops to the next face whenever an edge crosses the
line from the recovery entry point to the destination at a point closer to
the destination than any previous crossing, and drops the packet if it is
about to retraverse the first edge of the current face tour. Reaching any
node strictly closer to the destination than the entry point resumes
greedy forwarding. A hop budget bounds every route: 4 * sqrt(n) when the
caller passes no ttl; every simulator leg passes 8n (delivery._leg_ttl).

On a connected topology with a connected planar subgraph this combination
reaches the node nearest any requested position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .topology import Topology

__all__ = ["RouteResult", "default_ttl", "gpsr_route"]

_EPS = 1e-9
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RouteResult:
    success: bool
    path: list[int]
    # One flag per hop: True where the hop was made in perimeter mode.
    perimeter_steps: tuple[bool, ...] = ()

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def perimeter_hops(self) -> int:
        return sum(self.perimeter_steps)


def default_ttl(n: int) -> int:
    return math.ceil(4.0 * math.sqrt(n))


def _next_ccw(topology: Topology, x: int, ref_angle: float) -> int | None:
    """Planar neighbor whose bearing is next counterclockwise from ref.

    The rotation is over (0, 2*pi]: an exactly-aligned edge counts as a
    full turn, so a dead-end node bounces the packet back along its only
    edge. The scan keeps the first minimum of the index-sorted planar
    list, so equal turns resolve by node index.
    """
    best = None
    best_delta = math.inf
    for v in topology.planar_adjacency[x]:
        delta = (topology.bearing(x, v) - ref_angle) % _TWO_PI
        if delta <= 1e-12:
            delta = _TWO_PI
        if delta < best_delta:
            best_delta = delta
            best = v
    return best


def _proper_crossing(
    p1: tuple[float, float],
    p2: tuple[float, float],
    q1: tuple[float, float],
    q2: tuple[float, float],
) -> tuple[float, float] | None:
    """Intersection point of properly crossing segments, else None.

    Proper means the endpoints of each segment lie strictly on opposite
    sides of the other segment; shared endpoints and collinear overlaps
    do not count.
    """

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if (d1 > _EPS and d2 < -_EPS or d1 < -_EPS and d2 > _EPS) and (
        d3 > _EPS and d4 < -_EPS or d3 < -_EPS and d4 > _EPS
    ):
        t = d1 / (d1 - d2)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
    return None


def gpsr_route(
    topology: Topology,
    src: int,
    dest_position: tuple[float, float],
    acceptance_radius: float = 0.0,
    ttl: int | None = None,
) -> RouteResult:
    """Route from src toward a position; success within acceptance_radius.

    Unreachable destinations produce a failed RouteResult, never an
    exception. The returned path includes src; hop count is its length
    minus one.
    """
    if not 0 <= src < topology.n:
        raise ValueError(f"src {src} not in topology")
    if acceptance_radius < 0:
        raise ValueError("acceptance_radius must be non-negative")
    if ttl is None:
        ttl = default_ttl(topology.n)
    dx, dy = float(dest_position[0]), float(dest_position[1])
    dest = (dx, dy)
    # Hot loop locals: plain-float positions, no distance_to call per
    # neighbor.
    xs, ys = topology.xs, topology.ys
    adjacency = topology.adjacency
    hypot = math.hypot

    x = src
    path = [src]
    steps: list[bool] = []
    greedy = True
    # Perimeter state: entry distance, best crossing distance, first edge
    # of the current face tour, and the arrival edge's reverse bearing.
    entry_dist = math.inf
    best_cross_dist = math.inf
    entry_point = (0.0, 0.0)
    first_edge: tuple[int, int] | None = None
    arrival_from: int | None = None

    while True:
        px, py = xs[x], ys[x]
        dist_x = hypot(px - dx, py - dy)
        if dist_x <= acceptance_radius:
            return RouteResult(True, path, tuple(steps))
        if len(path) - 1 >= ttl:
            return RouteResult(False, path, tuple(steps))

        if greedy:
            best = None
            best_dist = dist_x - _EPS
            for v in adjacency[x]:
                d = hypot(xs[v] - dx, ys[v] - dy)
                if d < best_dist:
                    best_dist = d
                    best = v
            if best is not None:
                path.append(best)
                steps.append(False)
                x = best
                continue
            # Local minimum: enter perimeter mode.
            if not topology.planar_adjacency[x]:
                return RouteResult(False, path, tuple(steps))
            greedy = False
            entry_point = (px, py)
            entry_dist = dist_x
            best_cross_dist = dist_x
            ref = math.atan2(dy - py, dx - px)
            first_edge = None
        else:
            if dist_x < entry_dist - _EPS:
                greedy = True
                continue
            assert arrival_from is not None
            ref = topology.bearing(x, arrival_from)

        nxt = _next_ccw(topology, x, ref)
        if nxt is None:
            return RouteResult(False, path, tuple(steps))
        # Face change: rotate past any edge crossing the entry-to-dest
        # line closer to the destination than all previous crossings.
        rotations = 0
        max_rotations = 2 * len(topology.planar_adjacency[x]) + 2
        while rotations < max_rotations:
            crossing = _proper_crossing((px, py), (xs[nxt], ys[nxt]), entry_point, dest)
            if crossing is None:
                break
            cross_dist = hypot(crossing[0] - dx, crossing[1] - dy)
            if cross_dist >= best_cross_dist - _EPS:
                break
            best_cross_dist = cross_dist
            first_edge = None  # new face: restart tour accounting
            nxt = _next_ccw(topology, x, topology.bearing(x, nxt))
            rotations += 1

        if first_edge is None:
            first_edge = (x, nxt)
        elif (x, nxt) == first_edge:
            # Completed a full face tour without progress: unreachable.
            return RouteResult(False, path, tuple(steps))

        arrival_from = x
        path.append(nxt)
        steps.append(True)
        x = nxt

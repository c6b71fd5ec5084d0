"""Greedy geographic forwarding with perimeter-mode recovery.

Packets are addressed to a position. Each greedy hop must strictly reduce
distance to the destination; a node with no closer neighbor is a local
minimum, and the packet switches to perimeter mode on the planar subgraph:
it walks the face boundary by the right-hand rule (next edge
counterclockwise from the arrival edge) and drops the packet if it is
about to retraverse the first edge of its tour. Reaching any node
strictly closer to the destination than the entry point resumes greedy
forwarding. A hop budget bounds every route, by default 8 hops per
layout node (_leg_ttl).

On a connected topology with a connected planar subgraph this combination
reaches the node nearest any requested position.

GPSR also changes face where an edge crosses the line from the entry
point p to the destination d closer to d than any earlier crossing.
That never happens here, so the walker has no face change. It needs one
precondition: planar is the Gabriel subgraph of the unit-disk graph
neighbors (or a subgraph of it), as topology_from_positions and
_disjoint_union build it. Suppose the walk at u meets a planar edge uv
that properly crosses pd at c, with |cd| < |pd|; a proper crossing
shares no endpoint, so u and v are not p. If v is out of p's radio
range R, then |pc| + |cv| >= |pv| > R >= |uv| = |uc| + |cv|, so
|ud| <= |uc| + |cd| < |pd|: the walk had already resumed greedy
forwarding at u. If v is in p's range, v is no closer to d than p (p
was a local minimum), and neither is u (the walk did not resume there).
So uv contains the chord that line uv cuts from the circle around d
through p, and p, on the far side of that line from d, sees the chord
under an angle above 90 degrees. p then lies inside the disk with
diameter uv, and the Gabriel rule removed uv. Only distances within the
tolerance _EPS escape this.

Legs are routed in batches (route_legs). A batch's legs share a fixed
number of slots, and every leg in a slot advances one greedy hop per
lockstep numpy step, which scores the neighbours of all the slotted
legs' current nodes at once through the topology's padded neighbour
matrix. After each step the slots of the legs that finished take the
next waiting legs, so every step but the last few runs full. A leg at a
local minimum hands its node and remaining hop budget to the scalar
perimeter walker, which hands it back to its slot once greedy
forwarding resumes; GPSR carries no state out of greedy mode, so a leg
takes the same route in any batch and any slot. gpsr_route is the batch
of one, and records its path.

Every distance, in the batch's numpy steps, in the walker and in
Topology.distance_to, is sqrt(dx*dx + dy*dy). Each of its operations is
one IEEE 754 rounding, so numpy arrays and plain floats give the same
bits, and a leg takes the same route whichever of them measures it.
Squares overflow to inf past about 1.3e154, and offsets under about
1e-154 lose precision (the smallest read 0); the batch keeps numpy's
overflow warning quiet, so a far destination is just a failed route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import Topology

__all__ = ["RouteResult", "gpsr_route", "route_legs"]

_EPS = 1e-9
_TWO_PI = 2.0 * math.pi
# Lockstep slots: they bound the (legs, max degree) temporaries of a
# step. Refilling, not the slot count, sets the step count: slots freed
# by finished legs take waiting legs at once, so steps run full until
# the batch drains. 1024 slots raised a README-scenario run's peak RSS
# by 2 MiB.
_SLOTS = 256


@dataclass(frozen=True)
class RouteResult:
    success: bool
    path: list[int]
    perimeter_hops: int

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def _leg_ttl(n: int) -> int:
    # 8n is several times the longest face tour seen on connected layouts
    # of n nodes, so it truncates none; about 4*sqrt(n) cut off roughly
    # 2% of legitimate perimeter recoveries at n = 50.
    return 8 * n


def _next_ccw(topology: Topology, x: int, row: list[int], ref_angle: float) -> int | None:
    """Planar neighbor of x, from its planar row (a list, padded with -1
    or not), whose bearing is next counterclockwise from ref.

    The rotation is over (0, 2*pi]: an exactly-aligned edge counts as a
    full turn, so a dead-end node bounces the packet back along its only
    edge. The scan keeps the first minimum of the index-sorted planar
    row, so equal turns resolve by node index.
    """
    best = None
    best_delta = math.inf
    for v in row:
        if v < 0:
            break
        delta = (topology.bearing(x, v) - ref_angle) % _TWO_PI
        if delta <= 1e-12:
            delta = _TWO_PI
        if delta < best_delta:
            best_delta = delta
            best = v
    return best


def _perimeter(
    topology: Topology,
    x: int,
    dx: float,
    dy: float,
    radius: float,
    budget: int,
    path: list[int] | None,
) -> tuple[bool | None, int, int]:
    """Perimeter mode from the local minimum x, for at most budget hops.

    Returns (outcome, node, hops): outcome True (arrived within radius)
    or False (dropped) ends the leg at node; None hands node back to
    greedy forwarding. path, when given, receives each node visited.
    """
    xs, ys = topology.xs, topology.ys
    planar = topology.planar
    if planar[x, 0] < 0:
        return False, x, 0

    def distance(at_x: float, at_y: float) -> float:
        # The routing distance of (at_x, at_y) from the destination.
        ox, oy = at_x - dx, at_y - dy
        return math.sqrt(ox * ox + oy * oy)

    px, py = xs[x], ys[x]
    entry_dist = distance(px, py)
    nxt = _next_ccw(topology, x, planar[x].tolist(), math.atan2(dy - py, dx - px))
    first_edge = (x, nxt)  # retraversing it closes the face tour
    hops = 0
    while True:
        arrival_from, x = x, nxt
        hops += 1
        if path is not None:
            path.append(x)
        px, py = xs[x], ys[x]
        dist_x = distance(px, py)
        if dist_x <= radius:
            return True, x, hops
        if hops >= budget:
            return False, x, hops
        if dist_x < entry_dist - _EPS:
            return None, x, hops
        nxt = _next_ccw(topology, x, planar[x].tolist(), topology.bearing(x, arrival_from))
        if (x, nxt) == first_edge:
            # Completed a full face tour without progress: unreachable.
            return False, x, hops


def _distance(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) elementwise: the length of offsets (dx, dy),
    bit for bit what the same formula gives on plain floats."""
    return np.sqrt(dx * dx + dy * dy)


@np.errstate(over="ignore")  # far destinations: squares read inf
def route_legs(
    topology: Topology,
    src,
    dest,
    acceptance_radius: float,
    ttl: int,
    paths: list[list[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Route leg i from node src[i] toward position dest[i], all legs in
    lockstep, each with hop budget ttl; success within acceptance_radius.

    Returns the arrays (success, end node, hops, perimeter hops). paths,
    when given, holds one list per leg, and each hop appends its node.
    """
    src = np.asarray(src, dtype=np.intp)
    dest = np.ascontiguousarray(dest, dtype=float).reshape(-1, 2)
    n_legs = len(src)
    success = np.zeros(n_legs, dtype=bool)
    end = src.copy()
    hops = np.zeros(n_legs, dtype=np.int64)
    perimeter = np.zeros(n_legs, dtype=np.int64)
    # Coordinates plus one node at infinity for the matrix's -1 padding
    # to index: a padded slot is never the closest.
    xs = np.append(topology.positions[:, 0], math.inf)
    ys = np.append(topology.positions[:, 1], math.inf)
    nbr = topology.neighbors
    radius = acceptance_radius

    # Slots hold the legs active[i]; waiting is the first leg not yet slotted.
    waiting = min(_SLOTS, n_legs)
    active = np.arange(waiting)
    while active.size:
        x = end[active]
        tx, ty = dest[active, 0], dest[active, 1]
        row = nbr.take(x, axis=0)
        dist = _distance(xs.take(x) - tx, ys.take(x) - ty)
        d = _distance(xs.take(row) - tx[:, None], ys.take(row) - ty[:, None])
        col = d.argmin(axis=1)
        best = d[np.arange(len(d)), col]

        arrived = dist <= radius
        going = ~arrived & (hops[active] < ttl)
        moves = going & (best < dist - _EPS)
        success[active[arrived]] = True
        moved = active[moves]
        end[moved] = row[moves, col[moves]]
        hops[moved] += 1
        if paths is not None:
            for i, v in zip(moved.tolist(), end[moved].tolist()):
                paths[i].append(v)

        # Local minima: walk the perimeter, then rejoin or finish.
        keep = moves
        for r in np.flatnonzero(going & ~moves).tolist():
            i = int(active[r])
            outcome, node, walked = _perimeter(
                topology, int(end[i]), float(dest[i, 0]), float(dest[i, 1]),
                radius, ttl - int(hops[i]),
                None if paths is None else paths[i],
            )
            end[i] = node
            hops[i] += walked
            perimeter[i] += walked
            if outcome is None:
                keep[r] = True
            else:
                success[i] = outcome
        active = active[keep]
        if waiting < n_legs and active.size < _SLOTS:
            refill = min(_SLOTS - active.size, n_legs - waiting)
            active = np.concatenate([active, np.arange(waiting, waiting + refill)])
            waiting += refill
    return success, end, hops, perimeter


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
    if not (math.isfinite(dest_position[0]) and math.isfinite(dest_position[1])):
        raise ValueError(f"dest_position must be finite, got {dest_position}")
    if not acceptance_radius >= 0:
        raise ValueError("acceptance_radius must be non-negative")
    if ttl is None:
        ttl = _leg_ttl(topology.n)
    path = [src]
    success, _, _, perimeter = route_legs(
        topology, [src], [dest_position], acceptance_radius, ttl, [path]
    )
    return RouteResult(bool(success[0]), path, int(perimeter[0]))

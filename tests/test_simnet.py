"""Topology, routing, staged delivery, and scenario tests.

The statistical checks at the bottom build one per-trial leg table and
reuse it to score every frontier grouping against the closed-form
latency and traffic means, so the whole frontier costs a single
simulation pass.
"""

import functools
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprlab.analytic import (
    Grouping,
    mean_latency,
    mean_traffic,
    pareto_front,
    regularity,
    sequential_hit_pmf,
)
from lprlab.simnet import (
    DeliveryOutcome,
    ScenarioConfig,
    build_topology,
    compare_ghls,
    gpsr_route,
    load_scenario,
    lpr_deliver,
    run_scenario,
    topology_from_positions,
)
from lprlab.simnet import gpsr, scenario
from lprlab.simnet.delivery import (
    _within,
    ghls_waves,
    hashed_home_index,
    round_trips,
)
from lprlab.simnet.gpsr import (
    RouteResult,
    _leg_ttl,
    _next_ccw,
    route_legs,
)
from lprlab.simnet.scenario import (
    aggregate,
    build_pool,
    measure_baseline,
    run_trials,
)
from lprlab.simnet.streams import Streams
from lprlab.simnet.topology import _disjoint_union

# A gap in the middle of the field: node 1 faces the destination but
# both rim nodes sit farther from it, so greedy strands there and only
# a walk along the upper rim (1 -> 2 -> 4) recovers.
VOID_POSITIONS = [
    (0.0, 0.0),
    (3.0, 0.0),
    (3.0, 3.0),
    (3.0, -3.0),
    (7.0, 2.5),
    (7.0, -2.5),
    (10.0, 0.0),
]
VOID_RANGE = 4.2
VOID_DEST = (10.0, 0.0)


def _proper_crossing(p1, p2, q1, q2):
    """Intersection point of properly crossing segments, else None.

    Proper means the endpoints of each segment lie strictly on opposite
    sides of the other segment; shared endpoints and collinear overlaps
    do not count.
    """

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    eps = 1e-9
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if (d1 > eps and d2 < -eps or d1 < -eps and d2 > eps) and (
        d3 > eps and d4 < -eps or d3 < -eps and d4 > eps
    ):
        t = d1 / (d1 - d2)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
    return None


def _void_topology():
    return topology_from_positions(VOID_POSITIONS, VOID_RANGE)


def _two_clusters():
    left = [(float(i % 3), float(i // 3)) for i in range(6)]
    right = [(x + 50.0, y) for x, y in left]
    return topology_from_positions(left + right, 2.0)


@st.composite
def _layouts(draw):
    """Uniform random layouts, or square lattices whose cocircular
    quadruples exercise the closed-disk witness rule."""
    if draw(st.booleans()):
        side = draw(st.integers(2, 6))
        reach = draw(st.sampled_from([1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0)]))
        return _lattice(side, reach)
    n = draw(st.integers(3, 60))
    radio = draw(st.floats(100.0, 600.0))
    return build_topology(n, 1000.0, radio, seed=draw(st.integers(0, 2**32 - 1)))


@functools.lru_cache(maxsize=32)
def _rows(topo, graph):
    """Each node's neighbours in ascending order, read from the padded
    matrix of graph: "neighbors" (unit-disk) or "planar" (Gabriel).
    Cached per topology, which compares by identity; callers must not
    mutate the lists."""
    return [[v for v in row if v >= 0] for row in getattr(topo, graph).tolist()]


def _connected_topologies(sizes, seeds, field, radio):
    out = []
    for n in sizes:
        for seed in seeds:
            topo = build_topology(n, field, radio, seed=seed)
            if topo.connected:
                out.append(topo)
    return out


def _component_count(positions, radio_range):
    """Components of the unit-disk graph on positions, by union-find.

    Works from coordinates alone, so it checks the topology's own
    adjacency and traversal rather than reusing them.
    """
    parent = list(range(len(positions)))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    count = len(positions)
    for u in range(len(positions) - 1):
        d = positions[u + 1 :] - positions[u]
        near = np.flatnonzero(np.einsum("ij,ij->i", d, d) <= radio_range**2)
        for v in near + u + 1:
            a, b = find(u), find(int(v))
            if a != b:
                parent[a] = b
                count -= 1
    return count


def _loop_topology(positions, radio_range):
    """Adjacency and Gabriel planar lists by the original per-edge loop
    over numpy scalars: the oracle for the vectorized planarization in
    topology_from_positions."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    diff = positions[:, None, :] - positions[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= radio_range * radio_range
    np.fill_diagonal(within, False)
    adjacency = [np.flatnonzero(within[u]).tolist() for u in range(n)]
    planar = [[] for _ in range(n)]
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
                if w == v or w not in neighbor_sets[v]:
                    continue
                dw = positions[w] - mid
                if float(np.dot(dw, dw)) <= r2 + 1e-12:
                    keep = False
                    break
            if keep:
                planar[u].append(v)
                planar[v].append(u)
    for lst in planar:
        lst.sort()
    return adjacency, planar


def _sorted_next_ccw(topology, x, ref_angle):
    """The perimeter rotation as it scanned planar neighbors sorted by
    (bearing, index): the oracle for _next_ccw's index-order scan."""
    best = None
    best_delta = math.inf
    ordered = sorted(_rows(topology, "planar")[x], key=lambda v: (topology.bearing(x, v), v))
    for v in ordered:
        delta = (topology.bearing(x, v) - ref_angle) % (2.0 * math.pi)
        if delta <= 1e-12:
            delta = 2.0 * math.pi
        if delta < best_delta:
            best_delta = delta
            best = v
    return best


def _assert_rotation_matches_oracle(topo, angles):
    """_next_ccw and the sorted-scan oracle pick the same neighbor from
    every node, for the given reference angles and for each neighbor's
    exact bearing and the floats next to it, which take the aligned
    (delta <= 1e-12) branch."""
    for x in range(topo.n):
        row = topo.planar[x].tolist()
        refs = list(angles)
        for v in range(topo.n):
            if v != x:
                b = topo.bearing(x, v)
                refs += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
        for ref in refs:
            assert _next_ccw(topo, x, row, ref) == _sorted_next_ccw(topo, x, ref)


def _numpy_bearing(positions, u, v):
    return math.atan2(
        float(positions[v, 1] - positions[u, 1]),
        float(positions[v, 0] - positions[u, 0]),
    )


def _lattice(side, reach):
    points = [(float(i % side), float(i // side)) for i in range(side * side)]
    return topology_from_positions(points, reach + 1e-6)


class TestTopology:
    def test_collinear_short_range_is_path(self):
        topo = topology_from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.5)
        assert [sorted(a) for a in _rows(topo, "neighbors")] == [[1], [0, 2], [1]]
        assert [sorted(a) for a in _rows(topo, "planar")] == [[1], [0, 2], [1]]
        assert topo.connected

    def test_collinear_long_range_drops_spanned_link(self):
        # The middle node sits inside the long link's diameter disk.
        topo = topology_from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 2.5)
        assert [sorted(a) for a in _rows(topo, "neighbors")] == [[1, 2], [0, 2], [0, 1]]
        assert [sorted(a) for a in _rows(topo, "planar")] == [[1], [0, 2], [1]]

    def test_unit_square_diagonals_removed(self):
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        topo = topology_from_positions(corners, math.sqrt(2.0) + 1e-6)
        assert all(len(a) == 3 for a in _rows(topo, "neighbors"))
        # Sides survive, crossing diagonals do not.
        assert [sorted(a) for a in _rows(topo, "planar")] == [
            [1, 2],
            [0, 3],
            [0, 3],
            [1, 2],
        ]

    def test_planar_witness_rule(self):
        # Kept links have no common neighbor inside their diameter disk;
        # every dropped link has one.
        for seed in range(6):
            topo = build_topology(30, 1000.0, 320.0, seed=seed)
            full = [set(a) for a in _rows(topo, "neighbors")]
            planar = [set(a) for a in _rows(topo, "planar")]
            for u in range(topo.n):
                assert planar[u] <= full[u]
                pu = topo.position(u)
                for v in full[u]:
                    if v < u:
                        continue
                    pv = topo.position(v)
                    mid = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
                    r2 = ((pu[0] - pv[0]) ** 2 + (pu[1] - pv[1]) ** 2) / 4.0
                    witnesses = [
                        w
                        for w in full[u] & full[v]
                        if (topo.position(w)[0] - mid[0]) ** 2
                        + (topo.position(w)[1] - mid[1]) ** 2
                        <= r2 + 1e-12
                    ]
                    if v in planar[u]:
                        assert not witnesses
                    else:
                        assert witnesses

    @settings(max_examples=80, deadline=None)
    @given(_layouts())
    def test_gabriel_subgraph_is_planar(self, topo):
        # Perimeter mode needs a planar graph (Karp & Kung, MobiCom 2000).
        edges = []
        for u in range(topo.n):
            for v in _rows(topo, "planar")[u]:
                assert v in _rows(topo, "neighbors")[u]
                if u < v:
                    edges.append((u, v))
        for (a, b), (c, d) in itertools.combinations(edges, 2):
            if len({a, b, c, d}) == 4:
                assert _proper_crossing(
                    topo.position(a), topo.position(b),
                    topo.position(c), topo.position(d),
                ) is None

    def test_matches_loop_oracle(self):
        # README density, sparse (r = 150, mostly disconnected), n = 500,
        # and square lattices whose cocircular quadruples sit exactly on
        # the closed-disk boundary.
        layouts = (
            [build_topology(280, 2500.0, 400.0, seed=[s, 101, 0]) for s in range(8)]
            + [build_topology(280, 2500.0, 150.0, seed=s) for s in range(8)]
            + [build_topology(500, 3000.0, 240.0, seed=s) for s in range(2)]
            + [
                _lattice(side, reach)
                for side in range(2, 9)
                for reach in (1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0)
            ]
        )
        for topo in layouts:
            adjacency, planar = _loop_topology(topo.positions, topo.radio_range)
            assert _rows(topo, "neighbors") == adjacency
            assert _rows(topo, "planar") == planar

    @settings(max_examples=60, deadline=None)
    @given(_layouts(), st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=6))
    def test_rotation_matches_bearing_sorted_oracle(self, topo, angles):
        _assert_rotation_matches_oracle(topo, angles)

    def test_rotation_matches_bearing_sorted_oracle_on_lattices(self):
        # Every lattice of test_matches_loop_oracle, beyond the sides and
        # reaches _layouts() draws; reference angles at multiples of pi/4
        # meet the axis and diagonal bearings exactly.
        rng = random.Random(3)
        for side in range(2, 9):
            for reach in (1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0):
                angles = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
                angles += [k * math.pi / 4.0 for k in range(-4, 5)]
                _assert_rotation_matches_oracle(_lattice(side, reach), angles)

    def test_plain_float_geometry_matches_numpy_formulas(self):
        def bits(x):
            return float(x).hex()

        rng = random.Random(11)
        for topo in [build_topology(40, 1000.0, 300.0, seed=s) for s in range(3)] + [
            _lattice(4, 2.0)
        ]:
            p = topo.positions
            for u in range(topo.n):
                assert topo.position(u) == (float(p[u, 0]), float(p[u, 1]))
                point = (rng.uniform(-100.0, 1100.0), rng.uniform(-100.0, 1100.0))
                offset = p[u] - point
                assert bits(topo.distance_to(u, point)) == bits(
                    np.sqrt(offset[0] * offset[0] + offset[1] * offset[1])
                )
                for v in range(topo.n):
                    assert bits(topo.bearing(u, v)) == bits(_numpy_bearing(p, u, v))

    def test_planar_preserves_connectivity(self):
        for seed in range(8):
            topo = build_topology(40, 1000.0, 300.0, seed=seed)
            if not topo.connected:
                continue
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in _rows(topo, "planar")[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == topo.n

    def test_disconnected_flag(self):
        assert not _two_clusters().connected

    @settings(max_examples=80, deadline=None)
    @given(_layouts())
    def test_connected_matches_union_find(self, topo):
        assert topo.connected == (_component_count(topo.positions, topo.radio_range) == 1)

    def test_connected_matches_union_find_on_sparse_layouts(self):
        # At this range 12 of the 30 seeds connect, so the search meets
        # both answers, and disconnected layouts with several components.
        flags = []
        for seed in range(30):
            topo = build_topology(40, 1000.0, 220.0, seed=seed)
            assert topo.connected == (_component_count(topo.positions, 220.0) == 1)
            flags.append(topo.connected)
        assert 0 < sum(flags) < len(flags)

    def test_equality_is_identity(self):
        # Comparing the positions arrays field by field would raise.
        a = build_topology(40, 1000.0, 250.0, seed=3)
        b = build_topology(40, 1000.0, 250.0, seed=3)
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    def test_build_is_deterministic_per_seed(self):
        a = build_topology(40, 1000.0, 250.0, seed=3)
        b = build_topology(40, 1000.0, 250.0, seed=3)
        c = build_topology(40, 1000.0, 250.0, seed=4)
        assert np.array_equal(a.positions, b.positions)
        assert _rows(a, "neighbors") == _rows(b, "neighbors")
        assert _rows(a, "planar") == _rows(b, "planar")
        assert not np.array_equal(a.positions, c.positions)

    def test_node_helpers(self):
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        topo = topology_from_positions(corners, math.sqrt(2.0) + 1e-6)
        assert topo.avg_degree() == 3.0
        assert topo.distance_to(0, (3.0, 4.0)) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_topology(1, 100.0, 50.0)
        for too_few in ([(0.0, 0.0)], np.zeros((0, 2))):
            with pytest.raises(ValueError, match="need at least 2 nodes"):
                topology_from_positions(too_few, 1.0)
        with pytest.raises(ValueError):
            topology_from_positions([(0.0, 0.0), (1.0, 0.0)], 0.0)
        with pytest.raises(ValueError):
            topology_from_positions(np.zeros((3, 3)), 1.0)
        line = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="radio_range"):
                topology_from_positions(line, value)
            with pytest.raises(ValueError, match="field_size"):
                build_topology(5, value, 1.0)
            with pytest.raises(ValueError, match="radio_range"):
                build_topology(5, 100.0, value)
            for coord in ((value, 0.0), (0.0, value)):
                with pytest.raises(ValueError, match="finite"):
                    topology_from_positions([*line, coord], 5.0)

    def test_eight_neighbor_density_connectivity(self):
        # 500 nodes on a square field, at the radius giving eight
        # expected neighbors on a torus, over seeds 0-39. The field has a
        # border, so the expected degree is the square's closed form
        # (n-1)(pi rho^2 - 8 rho^3/3 + rho^4/2), rho = radio/field: 7.52.
        # The torus value 8 is 14 standard errors of the seed mean away.
        # This density is below the connectivity threshold (Bettstetter,
        # MobiHoc 2002): the expected number of isolated nodes is about
        # 0.7, 26 of these 40 layouts have an isolated node near the
        # border, and only 8 come up connected. So at eight neighbors the
        # test checks that the density is realized and that the
        # connectivity flag is right. "Almost always connected" is checked
        # at 20 torus neighbors, where the border-corrected expected
        # number of isolated nodes is about 0.005. Above the threshold a
        # layout is disconnected almost only through an isolated node, so
        # P(connected) ~ P(no isolated node) ~ 0.995 there.
        n, field = 500, 3000.0
        seeds = range(40)
        radio = math.sqrt(8.0 * field * field / ((n - 1) * math.pi))
        rho = radio / field
        expected = (n - 1) * (math.pi * rho**2 - 8.0 * rho**3 / 3.0 + rho**4 / 2.0)
        topos = [build_topology(n, field, radio, seed=s) for s in seeds]

        degrees = np.array([topo.avg_degree() for topo in topos])
        stderr = degrees.std(ddof=1) / math.sqrt(len(degrees))
        assert abs(degrees.mean() - expected) <= 3.0 * stderr

        for topo in topos:
            assert topo.connected == (_component_count(topo.positions, radio) == 1)

        dense_radio = math.sqrt(20.0 * field * field / ((n - 1) * math.pi))
        connected = sum(
            build_topology(n, field, dense_radio, seed=s).connected for s in seeds
        )
        assert connected / 40 > 0.95


def _assert_route_ok(topo, route, src, dest, radius, ttl):
    """route is the scalar oracle's, and on the oracle's hop flags every
    hop is a link, a perimeter hop a planar link, a greedy hop strictly
    closer to dest; the route keeps to ttl and succeeds exactly when it
    ends within radius of dest."""
    want, steps, _ = _scalar_gpsr_route(topo, src, dest, radius, ttl)
    assert route == want
    assert route.path[0] == src
    assert route.hops <= ttl
    assert len(steps) == route.hops
    for a, b, on_perimeter in zip(route.path, route.path[1:], steps):
        assert b in _rows(topo, "neighbors")[a]
        if on_perimeter:
            assert b in _rows(topo, "planar")[a]
        else:
            assert topo.distance_to(b, dest) < topo.distance_to(a, dest)
    assert route.success == (topo.distance_to(route.path[-1], dest) <= radius)


def _scalar_gpsr_route(topology, src, dest_position, acceptance_radius, ttl):
    """One leg at a time: the scalar greedy loop, with perimeter mode
    inline, as gpsr_route ran before legs were batched. The oracle for
    route_legs and gpsr_route.

    Returns the route, its per-hop flags (True where the hop was made in
    perimeter mode) and the number of GPSR face changes it made. The
    oracle keeps the face change, with a rotation bound; the walker has
    none (the gpsr docstring proves it never fires on a Gabriel
    subgraph), so agreement with a count of 0 tests that proof."""
    eps = 1e-9
    dx, dy = float(dest_position[0]), float(dest_position[1])

    def dist(x, y):
        return math.sqrt((x - dx) * (x - dx) + (y - dy) * (y - dy))

    dest = (dx, dy)

    def result(success):
        return RouteResult(success, path, sum(steps)), steps, face_changes

    xs, ys = topology.xs, topology.ys
    x = src
    path = [src]
    steps = []
    greedy = True
    entry_dist = math.inf
    best_cross_dist = math.inf
    entry_point = (0.0, 0.0)
    first_edge = None
    arrival_from = None
    face_changes = 0

    while True:
        px, py = xs[x], ys[x]
        dist_x = dist(px, py)
        if dist_x <= acceptance_radius:
            return result(True)
        if len(path) - 1 >= ttl:
            return result(False)

        if greedy:
            best = None
            best_dist = dist_x - eps
            for v in _rows(topology, "neighbors")[x]:
                d = dist(xs[v], ys[v])
                if d < best_dist:
                    best_dist = d
                    best = v
            if best is not None:
                path.append(best)
                steps.append(False)
                x = best
                continue
            if not _rows(topology, "planar")[x]:
                return result(False)
            greedy = False
            entry_point = (px, py)
            entry_dist = dist_x
            best_cross_dist = dist_x
            ref = math.atan2(dy - py, dx - px)
            first_edge = None
        else:
            if dist_x < entry_dist - eps:
                greedy = True
                continue
            ref = topology.bearing(x, arrival_from)

        row = _rows(topology, "planar")[x]
        nxt = _next_ccw(topology, x, row, ref)
        if nxt is None:
            return result(False)
        # Face change: rotate past any edge crossing the entry-to-dest
        # line closer to the destination than all previous crossings.
        rotations = 0
        max_rotations = 2 * len(row) + 2
        while rotations < max_rotations:
            crossing = _proper_crossing((px, py), (xs[nxt], ys[nxt]), entry_point, dest)
            if crossing is None:
                break
            cross_dist = dist(*crossing)
            if not cross_dist < best_cross_dist - eps:
                break
            best_cross_dist = cross_dist
            first_edge = None
            nxt = _next_ccw(topology, x, row, topology.bearing(x, nxt))
            rotations += 1
            face_changes += 1

        if first_edge is None:
            first_edge = (x, nxt)
        elif (x, nxt) == first_edge:
            return result(False)

        arrival_from = x
        path.append(nxt)
        steps.append(True)
        x = nxt


def _assert_batch_matches_scalar(topo, legs, radius, ttl, single_every=1):
    """route_legs on all legs at once, and gpsr_route on every
    single_every-th leg, give the scalar oracle's route: the same
    success, end node, hops and perimeter hops, and for gpsr_route the
    same path. The oracle never changes face."""
    success, end, hops, perimeter = route_legs(
        topo, [s for s, _ in legs], [d for _, d in legs], radius, ttl
    )
    for i, (s, dest) in enumerate(legs):
        want, _, face_changes = _scalar_gpsr_route(topo, s, dest, radius, ttl)
        assert face_changes == 0, (s, dest, radius, ttl)
        got = (bool(success[i]), int(end[i]), int(hops[i]), int(perimeter[i]))
        assert got == (want.success, want.path[-1], want.hops, want.perimeter_hops), (
            s, dest, radius, ttl)
        if i % single_every == 0:
            assert gpsr_route(topo, s, dest, radius, ttl=ttl) == want


def _nudged(point, dx, dy):
    """point moved by dx and dy ulps (each -1, 0 or 1) per coordinate."""
    return tuple(
        float(np.nextafter(c, math.copysign(math.inf, step))) if step else c
        for c, step in zip(point, (dx, dy))
    )


def _tie_destinations(topo):
    """Node positions, the midpoints of links and the lattice points
    between nodes (exact distance ties on lattices), each also nudged by
    one ulp: near-ties, whose order only exact distances keep."""
    points = [topo.position(u) for u in range(topo.n)]
    for u in range(topo.n):
        for v in _rows(topo, "neighbors")[u]:
            if u < v:
                points.append(tuple((np.array(topo.position(u)) + topo.position(v)) / 2))
    out = []
    for p in points:
        out += [p, _nudged(p, 1, 0), _nudged(p, -1, 1), _nudged(p, 0, -1)]
    return out


class TestDisjointUnion:
    """A pool of layouts is one graph: routes on it are the layouts' own."""

    @settings(max_examples=100, deadline=None)
    @given(_layouts(), _layouts(), st.data())
    def test_routes_on_the_union_are_each_layouts_own(self, a, b, data):
        union = _disjoint_union([a, b])
        starts = (0, a.n)
        assert union.n == a.n + b.n
        assert union.positions.tolist() == a.positions.tolist() + b.positions.tolist()
        for layout, start in zip((a, b), starts):
            for u in range(layout.n):
                assert _rows(union, "neighbors")[start + u] == [
                    start + v for v in _rows(layout, "neighbors")[u]]
                assert _rows(union, "planar")[start + u] == [
                    start + v for v in _rows(layout, "planar")[u]]
                # No link crosses into the other layout.
                assert all(start <= v < start + layout.n
                           for v in _rows(union, "neighbors")[start + u]
                           + _rows(union, "planar")[start + u])
        # Legs of both layouts, interleaved in one batch; a destination
        # beyond every node of a layout strands greedy forwarding at a
        # local minimum, which hands the leg to perimeter mode.
        lo = float(union.positions.min()) - 1.0
        hi = float(union.positions.max()) + 1.0
        coord = st.floats(lo, hi)
        beyond = (lo - (hi - lo), hi + (hi - lo))
        legs = [(which, data.draw(st.integers(0, (a, b)[which].n - 1)), beyond)
                for which in (0, 1)]
        for _ in range(data.draw(st.integers(0, 16))):
            which = data.draw(st.integers(0, 1))
            node = data.draw(st.integers(0, (a, b)[which].n - 1))
            legs.append((which, node, data.draw(st.tuples(coord, coord))))
        legs = data.draw(st.permutations(legs))
        radius = data.draw(st.just(0.0) | st.floats(0.0, (hi - lo) / 4.0))
        ttl = data.draw(st.integers(0, 4 * max(a.n, b.n)))
        success, end, hops, perimeter = route_legs(
            union, [starts[w] + u for w, u, _ in legs], [d for _, _, d in legs],
            radius, ttl,
        )
        for i, (which, node, dest) in enumerate(legs):
            alone = route_legs((a, b)[which], [node], [dest], radius, ttl)
            assert (bool(success[i]), int(end[i]) - starts[which], int(hops[i]),
                    int(perimeter[i])) == tuple(int(x[0]) for x in alone)
            if dest == beyond:
                assert not success[i]

    @staticmethod
    def _stack_offset(blocks):
        """Oracle: padded neighbour matrices of consecutive layouts as one,
        each offset by the rows before it and padded to the widest."""
        width = max(block.shape[1] for block in blocks)
        out = np.full((sum(map(len, blocks)), width), -1, dtype=np.int32)
        start = 0
        for block in blocks:
            rows = out[start:start + len(block), :block.shape[1]]
            np.add(block, start, out=rows, where=block >= 0)
            start += len(block)
        return out

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_layouts(), min_size=1, max_size=3))
    def test_matrices_match_the_stacking_oracle(self, layouts):
        # Layouts of different sizes and radio ranges, and so of different
        # degrees: each block is offset and padded to the widest.
        union = _disjoint_union(layouts)
        for graph in ("neighbors", "planar"):
            want = self._stack_offset([getattr(layout, graph) for layout in layouts])
            got = getattr(union, graph)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_layouts(), _layouts())
    def test_connected_only_as_one_connected_layout(self, a, b):
        alone = _disjoint_union([a])
        assert alone.connected == a.connected
        for graph in ("neighbors", "planar"):
            assert getattr(alone, graph).tolist() == getattr(a, graph).tolist()
        assert not _disjoint_union([a, b]).connected


class TestGpsr:
    def test_straight_chain_all_greedy(self):
        topo = topology_from_positions([(float(i), 0.0) for i in range(6)], 1.5)
        route = gpsr_route(topo, 0, (5.0, 0.0))
        assert route.success
        assert route.path == [0, 1, 2, 3, 4, 5]
        assert route.hops == 5
        assert route.perimeter_hops == 0

    def test_source_within_radius_takes_zero_hops(self):
        topo = topology_from_positions([(float(i), 0.0) for i in range(6)], 1.5)
        route = gpsr_route(topo, 2, (4.9, 0.0), acceptance_radius=3.0)
        assert route.success
        assert route.path == [2]
        assert route.hops == 0

    def test_void_recovery_uses_perimeter(self):
        topo = _void_topology()
        # Node 1 is a local minimum: every neighbor sits farther from
        # the destination than it does.
        d1 = topo.distance_to(1, VOID_DEST)
        assert all(
            topo.distance_to(v, VOID_DEST) > d1 for v in _rows(topo, "neighbors")[1]
        )
        route = gpsr_route(topo, 0, VOID_DEST)
        assert route.success
        assert route.path == [0, 1, 2, 4, 6]
        assert route.perimeter_hops == 2
        _, steps, _ = _scalar_gpsr_route(topo, 0, VOID_DEST, 0.0, _leg_ttl(topo.n))
        assert steps == [False, True, True, False]

    def test_unreachable_destination_fails_cleanly(self):
        topo = _two_clusters()
        route = gpsr_route(topo, 0, (51.0, 1.0), ttl=10000)
        assert not route.success
        assert route.hops < 50

    def test_exhaustive_all_pairs_on_connected_graphs(self):
        topos = _connected_topologies((8, 16, 24, 30), range(5), 800.0, 260.0)
        assert len(topos) >= 8
        routed = 0
        for topo in topos:
            for s in range(topo.n):
                for d in range(topo.n):
                    if s == d:
                        continue
                    dest = tuple(topo.position(d))
                    route = gpsr_route(topo, s, dest, ttl=10 * topo.n)
                    assert route.success, (topo.n, s, d)
                    assert route.path[0] == s and route.path[-1] == d
                    routed += 1
        assert routed > 2000

    def test_step_invariants(self):
        # Greedy steps strictly shrink the distance to the destination;
        # perimeter steps only ever cross planar links.
        rng = random.Random(7)
        topos = _connected_topologies((12, 20, 28), range(4), 800.0, 240.0)
        checked_perimeter = 0
        for topo in topos:
            for _ in range(40):
                s = rng.randrange(topo.n)
                d = rng.randrange(topo.n)
                if s == d:
                    continue
                dest = tuple(topo.position(d))
                route = gpsr_route(topo, s, dest, ttl=10 * topo.n)
                _assert_route_ok(topo, route, s, dest, 0.0, 10 * topo.n)
                checked_perimeter += route.perimeter_hops
        assert checked_perimeter > 0

    @settings(max_examples=120, deadline=None)
    @given(_layouts(), st.data())
    def test_route_invariants(self, topo, data):
        lo = float(topo.positions.min()) - 1.0
        hi = float(topo.positions.max()) + 1.0
        src = data.draw(st.integers(0, topo.n - 1), label="src")
        dest = (
            data.draw(st.floats(lo, hi), label="dest x"),
            data.draw(st.floats(lo, hi), label="dest y"),
        )
        radius = data.draw(st.floats(0.0, (hi - lo) / 4.0), label="radius")
        ttl = data.draw(st.integers(0, 4 * topo.n), label="ttl")
        route = gpsr_route(topo, src, dest, radius, ttl=ttl)
        _assert_route_ok(topo, route, src, dest, radius, ttl)

    def test_ttl_budget_enforced(self):
        chain = topology_from_positions([(float(i), 0.0) for i in range(30)], 1.5)
        route = gpsr_route(chain, 0, (29.0, 0.0), ttl=3)
        assert not route.success
        assert route.hops == 3

    def test_omitted_ttl_reaches_the_end_of_a_chain(self):
        chain = topology_from_positions([(float(i), 0.0) for i in range(30)], 1.5)
        route = gpsr_route(chain, 0, (29.0, 0.0))
        assert route.success and route.hops == 29

    @settings(max_examples=150, deadline=None)
    @given(_layouts(), st.data())
    def test_batched_router_matches_scalar_oracle(self, topo, data):
        lo = float(topo.positions.min()) - 1.0
        hi = float(topo.positions.max()) + 1.0
        ties = _tie_destinations(topo)
        legs = []
        for _ in range(data.draw(st.integers(1, 24), label="legs")):
            src = data.draw(st.integers(0, topo.n - 1), label="src")
            if data.draw(st.booleans(), label="tie"):
                dest = data.draw(st.sampled_from(ties), label="tie dest")
            else:
                dest = (data.draw(st.floats(lo, hi), label="dest x"),
                        data.draw(st.floats(lo, hi), label="dest y"))
            legs.append((src, dest))
        # A radius exactly at some node's distance from a destination puts
        # that node on the acceptance boundary.
        node = data.draw(st.integers(0, topo.n - 1), label="boundary node")
        radius = data.draw(st.one_of(
            st.just(0.0),
            st.floats(0.0, (hi - lo) / 4.0),
            st.just(topo.distance_to(node, legs[0][1])),
        ), label="radius")
        ttl = data.draw(st.integers(0, 4 * topo.n), label="ttl")
        _assert_batch_matches_scalar(topo, legs, radius, ttl)

    @settings(max_examples=100, deadline=None)
    @given(_layouts(), st.data())
    def test_perimeter_mode_never_changes_face(self, topo, data):
        # The gpsr docstring's proof: on the Gabriel subgraph no planar
        # edge crosses the entry-to-destination line closer to the
        # destination than the entry point, so the face change that the
        # oracle keeps never fires. Radius 0 and a budget of 8n let every
        # perimeter walk run to its end, from every source.
        lo = float(topo.positions.min()) - 1.0
        hi = float(topo.positions.max()) + 1.0
        free = st.tuples(st.floats(lo, hi), st.floats(lo, hi))
        dests = data.draw(st.lists(
            st.sampled_from(_tie_destinations(topo)) | free, min_size=1, max_size=4,
        ))
        for dest in dests:
            for src in range(topo.n):
                *_, face_changes = _scalar_gpsr_route(topo, src, dest, 0.0, 8 * topo.n)
                assert face_changes == 0, (src, dest)

    def test_face_change_fires_without_the_gabriel_rule(self):
        # The proof's precondition matters: node 0 lies inside the disk
        # with diameter 1-2, so the Gabriel rule removes that edge. Walked
        # on the unit-disk graph instead, edge 1-2 crosses the line from
        # node 0 to the destination, and the oracle changes face there.
        topo = topology_from_positions([(0.0, 0.0), (1.0, 5.0), (1.0, -5.0)], 10.5)
        assert _rows(topo, "planar")[1] == [0]
        assert _scalar_gpsr_route(topo, 0, (10.0, 0.0), 0.0, 24)[2] == 0
        unit_disk = replace(topo, planar=topo.neighbors)
        assert _scalar_gpsr_route(unit_disk, 0, (10.0, 0.0), 0.0, 24)[2] == 1

    @settings(max_examples=100, deadline=None)
    @given(_layouts(), st.sampled_from([1e-150, 1e-6, 1.0, 1e6, 1e150]), st.data())
    def test_batch_distance_is_distance_to_bit_for_bit(self, topo, scale, data):
        # The invariant the router rests on: its numpy distances are
        # distance_to's plain-float ones to the bit, so the lockstep
        # steps and the perimeter walker decide alike. Layouts are scaled
        # over wide magnitudes; destinations are the ulp-nudged tie
        # points or anywhere in the float range.
        topo = topology_from_positions(topo.positions * scale, topo.radio_range * scale)
        wide = st.floats(allow_nan=False, allow_infinity=False)
        dests = data.draw(st.lists(
            st.sampled_from(_tie_destinations(topo)) | st.tuples(wide, wide),
            min_size=1, max_size=8,
        ))
        xs, ys = topo.positions[:, 0], topo.positions[:, 1]
        for dest in dests:
            with np.errstate(over="ignore"):
                got = gpsr._distance(xs - dest[0], ys - dest[1])
            assert [float(v).hex() for v in got] == [
                topo.distance_to(u, dest).hex() for u in range(topo.n)]

    def test_greedy_step_one_ulp_under_the_progress_threshold(self):
        # By the routing distance, node 1 is one ulp closer to the
        # destination than the progress threshold of node 0, so greedy
        # takes the hop; a distance one ulp off would see a local minimum
        # at node 0.
        dest = (float.fromhex("0x1.8de7009553606p+2"), float.fromhex("0x1.41d2794be2662p+2"))
        near = (float.fromhex("0x1.c55004c6ad7bdp-4"), float.fromhex("-0x1.1218d157b7c63p-3"))
        topo = topology_from_positions([(0.0, 0.0), near], 1.0)
        threshold = topo.distance_to(0, dest) - 1e-9
        assert topo.distance_to(1, dest) == np.nextafter(threshold, 0.0)
        _assert_batch_matches_scalar(topo, [(0, dest)], 0.0, 16)
        route, steps, _ = _scalar_gpsr_route(topo, 0, dest, 0.0, 16)
        assert route.path[:2] == [0, 1] and steps[0] is False

    def test_batched_router_matches_scalar_oracle_on_lattices(self):
        # Every source to every tie destination: lattices put many
        # neighbours at exactly equal distances from lattice points and
        # link midpoints, and the one-ulp nudges make near-ties.
        for side in range(2, 6):
            for reach in (1.0, math.sqrt(2.0), 2.0):
                topo = _lattice(side, reach)
                legs = [(s, d) for s in range(topo.n) for d in _tie_destinations(topo)]
                for radius in (0.0, 0.5, 1.0):
                    _assert_batch_matches_scalar(
                        topo, legs, radius, 8 * topo.n, single_every=17
                    )

    def test_batched_router_matches_scalar_oracle_on_scenario_legs(self):
        # Scenario-like legs on README-density layouts, more than one
        # chunk of them at once: sources at random, destinations at cell
        # centres, a cell-size acceptance radius, and responses (radius
        # 0) back to node positions.
        rng = np.random.default_rng(5)
        for seed in range(2):
            topo = build_topology(280, 2500.0, 400.0, seed=[seed, 101, 0])
            cells = (rng.integers(1, 11, size=(1500, 2)) + 0.5) * (2500.0 / 12)
            legs = [(int(s), tuple(c)) for s, c in zip(rng.integers(280, size=1500), cells)]
            _assert_batch_matches_scalar(
                topo, legs, 2500.0 / 12, 8 * topo.n, single_every=5
            )
            backs = [(int(s), topo.position(int(d)))
                     for s, d in rng.integers(280, size=(1200, 2))]
            _assert_batch_matches_scalar(topo, backs, 0.0, 8 * topo.n, single_every=5)

    @pytest.mark.parametrize("slots", [1, 2, 7])
    def test_refilled_slots_match_scalar_oracle(self, slots):
        # With few slots, most legs enter a refilled slot mid-batch, next
        # to legs on their perimeter walks or at near-ties. Every 13th
        # lattice leg keeps the test short and still cycles through the
        # sources and the nudges of each tie point.
        rng = np.random.default_rng(11)
        topo = build_topology(280, 2500.0, 400.0, seed=[0, 101, 0])
        cells = (rng.integers(1, 11, size=(100, 2)) + 0.5) * (2500.0 / 12)
        legs = [(int(s), tuple(c)) for s, c in zip(rng.integers(280, size=100), cells)]
        cfg = replace(SMALL, strategy="lpr", grouping=Grouping((2, 3)), n_candidates=5)
        pool = build_pool(cfg)
        rows = run_trials(cfg, range(cfg.trials), pool)
        with mock.patch.object(gpsr, "_SLOTS", slots):
            for side in range(2, 5):
                for reach in (1.0, math.sqrt(2.0), 2.0):
                    lattice = _lattice(side, reach)
                    ties = [(s, d) for s in range(lattice.n)
                            for d in _tie_destinations(lattice)][::13]
                    for radius in (0.0, 0.5, 1.0):
                        _assert_batch_matches_scalar(
                            lattice, ties, radius, 8 * lattice.n, single_every=7
                        )
            _assert_batch_matches_scalar(topo, legs, 2500.0 / 12, 8 * topo.n, single_every=5)
            assert run_trials(cfg, range(cfg.trials), pool) == rows

    def test_validation(self):
        topo = _void_topology()
        with pytest.raises(ValueError):
            gpsr_route(topo, -1, VOID_DEST)
        with pytest.raises(ValueError):
            gpsr_route(topo, topo.n, VOID_DEST)
        with pytest.raises(ValueError):
            gpsr_route(topo, 0, VOID_DEST, acceptance_radius=-1.0)
        with pytest.raises(ValueError, match="acceptance_radius"):
            gpsr_route(topo, 0, VOID_DEST, acceptance_radius=math.nan, ttl=50)
        for value in (math.nan, math.inf, -math.inf):
            for dest in ((value, 0.0), (0.0, value)):
                with pytest.raises(ValueError, match="dest_position"):
                    gpsr_route(topo, 0, dest, ttl=50)
        # Extreme finite destinations route with no exception and no
        # warning. Far ones, whose squares overflow to inf, fail; the
        # squares of a subnormal offset underflow to 0, so node 0 at the
        # origin is at distance 0 from (5e-324, 0) and arrives.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dest in ((1e200, 3.0), (-1e300, 1e300)):
                route = gpsr_route(topo, 0, dest)
                assert isinstance(route, RouteResult) and not route.success
            route = gpsr_route(topo, 6, (5e-324, 0.0))
            assert route.success and route.path[-1] == 0
            # Here every distance reads inf, so the perimeter walk never
            # resumes greedy forwarding and ends when its face tour closes.
            layout = build_topology(10, 1000.0, 450.0, seed=1)
            assert not gpsr_route(layout, 2, (1e305, 1e307)).success


def _margin_cells(grid_cells, margin=1):
    """Flat indices y * grid_cells + x of the cells at least margin cells
    from the field edge, in increasing order."""
    side = np.arange(margin, grid_cells - margin)
    return (side[:, None] * grid_cells + side[None, :]).ravel()


def _all_centres(grid_cells, cell_size):
    """(grid_cells**2, 2) centres of every cell by flat index: cell (x, y)
    centred at ((x + 0.5) * cell_size, (y + 0.5) * cell_size)."""
    i = np.arange(grid_cells * grid_cells)
    return np.stack(
        [(i % grid_cells + 0.5) * cell_size, (i // grid_cells + 0.5) * cell_size], axis=1
    )


def _hashed_home(target_id, grid_cells, cell_size, margin):
    """The ghls home center of a target: the hash indexes the cells at
    least margin cells from the edge, as run_trials indexes places()."""
    eligible = _margin_cells(grid_cells, margin)
    centres = _all_centres(grid_cells, cell_size)
    return tuple(centres[eligible[hashed_home_index(target_id, len(eligible))]].tolist())


def _one(*values):
    """Batch-of-one arguments for the wave functions of delivery."""
    return [np.array([v]) for v in values]


def ghls_deliver(topo, src, home, *, true_position, acceptance_radius):
    """ghls_waves for one trial, as DeliveryOutcome fields; its update
    leg is not charged here."""
    success, tx, _ = ghls_waves(
        topo, _leg_ttl(topo.n), *_one(src, home, true_position), acceptance_radius,
        np.array([src]),
    )
    return DeliveryOutcome(bool(success[0]), 2.0, int(tx[0]))


def ghls_update(topo, src, home, radius):
    """Hops of one location update leg."""
    return int(route_legs(topo, *_one(src, home), radius, _leg_ttl(topo.n))[2][0])


@pytest.fixture(scope="module")
def topo():
    topo = build_topology(120, 1000.0, 250.0, seed=2)
    assert topo.connected
    return topo


@settings(max_examples=120, deadline=None)
@given(_layouts(), st.data())
def test_within_matches_distance_loop(topo, data):
    n_legs = data.draw(st.integers(1, 16))
    nodes = np.array(data.draw(st.lists(st.integers(0, topo.n - 1),
                                        min_size=n_legs, max_size=n_legs)))
    coord = st.floats(-200.0, 1200.0)
    points = np.array(data.draw(st.lists(st.tuples(coord, coord),
                                         min_size=n_legs, max_size=n_legs)))
    # A radius exactly at one leg's distance_to distance, an ulp to either
    # side, or anywhere; copies of a leg make more exact ties.
    tie = data.draw(st.integers(0, n_legs - 1))
    nodes[: n_legs // 2] = nodes[tie]
    points[: n_legs // 2] = points[tie]
    d = topo.distance_to(int(nodes[tie]), tuple(points[tie].tolist()))
    radius = data.draw(st.sampled_from(
        [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf), 0.0]) | st.floats(0.0, 1500.0))
    expected = [
        topo.distance_to(int(u), tuple(p)) <= radius
        for u, p in zip(nodes.tolist(), points.tolist())
    ]
    # topo as the second layout of a two-layout graph.
    graph = _disjoint_union([_void_topology(), topo])
    inside = _within(graph, nodes + len(VOID_POSITIONS), points, radius)
    assert inside.tolist() == expected


def test_within_decides_ulp_ties_by_distance_to():
    # Points where np.hypot and math.hypot disagree by an ulp: the
    # acceptance radius at either of their distances, and an ulp under
    # the routing distance, is decided as distance_to decides it.
    topo = build_topology(30, 1000.0, 400.0, seed=4)
    rng = np.random.default_rng(8)
    nodes = rng.integers(topo.n, size=4000)
    points = rng.uniform(-100.0, 1100.0, size=(4000, 2))
    offset = topo.positions[nodes] - points
    exact = np.array([math.hypot(x, y) for x, y in offset.tolist()])
    split = np.flatnonzero(np.hypot(offset[:, 0], offset[:, 1]) != exact)[:20]
    assert split.size == 20
    for i in split.tolist():
        d = topo.distance_to(int(nodes[i]), tuple(points[i].tolist()))
        for radius in (exact[i], float(np.hypot(*offset[i])), d, math.nextafter(d, 0.0)):
            inside = _within(topo, nodes[i:i + 1], points[i:i + 1], radius)
            assert inside.tolist() == [d <= radius]


class TestDelivery:
    def _round_trip_recount(self, topo, src, position, radius):
        # Independent re-derivation of the charging rule: forward hops
        # always count, the response leg only runs after a reached
        # forward and is charged even if it fails.
        ttl = _leg_ttl(topo.n)
        fwd = gpsr_route(topo, src, position, radius, ttl=ttl)
        if not fwd.success:
            return False, fwd.path[-1], fwd.hops
        resp = gpsr_route(topo, fwd.path[-1], tuple(topo.position(src)), 0.0, ttl=ttl)
        return True, fwd.path[-1], fwd.hops + resp.hops

    def test_first_candidate_hit_is_one_stage(self, topo):
        true_pos = tuple(topo.position(90))
        candidates = [true_pos, (100.0, 100.0), (900.0, 100.0)]
        out = lpr_deliver(
            topo, 0, candidates, Grouping((1, 2)),
            true_position=true_pos, acceptance_radius=100.0,
        )
        assert out.success
        assert out.latency_factor == 1.0

    def test_parallel_stage_conservation(self, topo):
        radius = 100.0
        candidates = [
            tuple(topo.position(30)),
            tuple(topo.position(60)),
            tuple(topo.position(90)),
        ]
        out = lpr_deliver(
            topo, 5, candidates, Grouping((3,)),
            true_position=candidates[2], acceptance_radius=radius,
        )
        assert out.success
        assert out.latency_factor == 1.0
        expected = sum(
            self._round_trip_recount(topo, 5, pos, radius)[2] for pos in candidates
        )
        assert out.transmissions == expected

    def test_all_stage_miss_pays_everything(self, topo):
        radius = 50.0
        candidates = [
            tuple(topo.position(30)),
            tuple(topo.position(60)),
            tuple(topo.position(90)),
        ]
        # True position far from every candidate, so reached nodes
        # cannot fall inside its acceptance disk.
        true_pos = min(
            ((x, y) for x in (150.0, 850.0) for y in (150.0, 850.0)),
            key=lambda p: -min(
                math.dist(p, c) for c in candidates
            ),
        )
        assert min(math.dist(true_pos, c) for c in candidates) > 3 * radius
        out = lpr_deliver(
            topo, 5, candidates, Grouping((1,) * 3),
            true_position=true_pos, acceptance_radius=radius,
        )
        assert not out.success
        assert out.latency_factor == 3.0
        expected = sum(
            self._round_trip_recount(topo, 5, pos, radius)[2] for pos in candidates
        )
        assert out.transmissions == expected

    def test_staged_and_parallel_agree_on_charges(self, topo):
        radius = 80.0
        candidates = [tuple(topo.position(i)) for i in (10, 40, 70, 100)]
        true_pos = candidates[3]
        serial = lpr_deliver(
            topo, 0, candidates, Grouping((1,) * 4),
            true_position=true_pos, acceptance_radius=radius,
        )
        flat = lpr_deliver(
            topo, 0, candidates, Grouping((4,)),
            true_position=true_pos, acceptance_radius=radius,
        )
        assert serial.success and flat.success
        assert serial.latency_factor == 4.0 and flat.latency_factor == 1.0
        # Same candidates attempted either way, so equal total charges.
        assert serial.transmissions == flat.transmissions

    def test_too_few_candidates_rejected(self, topo):
        with pytest.raises(ValueError):
            lpr_deliver(
                topo, 0, [(100.0, 100.0)], Grouping((1, 2)),
                true_position=(100.0, 100.0), acceptance_radius=50.0,
            )

    def test_hashed_home_is_deterministic_and_interior(self):
        for margin in (0, 1, 2):
            for target in (0, 7, "abc"):
                a = _hashed_home(target, 12, 100.0, margin)
                assert a == _hashed_home(target, 12, 100.0, margin)
                for coord in a:
                    assert margin * 100.0 < coord < (12 - margin) * 100.0
        assert hashed_home_index(0, 100) != hashed_home_index(1, 100)
        assert _hashed_home(0, 12, 100.0, 0) != _hashed_home(1, 12, 100.0, 0)
        for n in (1, 2, 7, 100):
            assert all(0 <= hashed_home_index(t, n) < n for t in range(200))

    def test_hashed_home_matches_centered_margin_formula(self):
        # The home center as it was computed before the scenario indexed
        # its eligible cells with the hash: own margin and side arithmetic.
        def margin_home(target_id, grid_cells, cell_size, margin):
            digest = hashlib.sha256(str(target_id).encode("utf-8")).digest()
            side = grid_cells - 2 * margin
            cell = int.from_bytes(digest[:8], "big") % (side * side)
            return ((margin + cell % side + 0.5) * cell_size,
                    (margin + cell // side + 0.5) * cell_size)

        for grid_cells, margin in ((2, 0), (4, 1), (7, 2), (12, 0), (12, 1), (12, 3)):
            cell = 2500.0 / grid_cells
            for target in itertools.chain(range(300), ("abc", "u7")):
                assert _hashed_home(target, grid_cells, cell, margin) == margin_home(
                    target, grid_cells, cell, margin
                )

    def test_ghls_server_answers_its_own_lookup(self, topo):
        cell = 100.0
        home = _hashed_home(7, 10, cell, 1)
        server = min(range(topo.n), key=lambda u: topo.distance_to(u, home))
        assert topo.distance_to(server, home) <= cell
        bound = (430.0, 610.0)
        out = ghls_deliver(
            topo, server, home, true_position=bound, acceptance_radius=cell
        )
        # The query leg is free: only the data round trip is charged.
        _, _, data_cost = self._round_trip_recount(topo, server, bound, cell)
        assert out.transmissions == data_cost
        assert ghls_update(topo, server, home, cell) == 0

    def test_ghls_delivery_accounting(self, topo):
        cell = 100.0
        bound = tuple(topo.position(40))
        home = _hashed_home(3, 10, cell, 1)
        src = 110
        out = ghls_deliver(
            topo, src, home, true_position=bound, acceptance_radius=cell
        )
        assert out.success
        assert out.latency_factor == 2.0
        _, _, query_cost = self._round_trip_recount(topo, src, home, cell)
        _, _, data_cost = self._round_trip_recount(topo, src, bound, cell)
        assert out.transmissions == query_cost + data_cost

    def test_ghls_unreachable_home_region_fails(self):
        topo = _two_clusters()
        home = (51.0, 1.0)
        reached, _, query_cost = self._round_trip_recount(topo, 0, home, 1.0)
        assert not reached
        assert query_cost > 0
        out = ghls_deliver(
            topo, 0, home, true_position=(50.5, 0.5), acceptance_radius=1.0
        )
        assert not out.success
        assert out.latency_factor == 2.0
        assert out.transmissions == query_cost


SMALL = ScenarioConfig(
    n=80,
    field_size=1200.0,
    radio_range=300.0,
    pool_size=2,
    grid_cells=8,
    trials=40,
    n_candidates=12,
    strategy="oracle",
    seed=5,
)


class TestScenarioConfig:
    def test_defaults_round(self):
        cfg = ScenarioConfig(strategy="oracle")
        assert cfg.cell_size == pytest.approx(2500.0 / 12)
        places = cfg.places()
        assert places.shape == (100, 2)
        assert places[0] == pytest.approx((1.5 * cfg.cell_size,) * 2)
        assert places[1] == pytest.approx((2.5 * cfg.cell_size, 1.5 * cfg.cell_size))

    def test_places_match_the_margin_one_cell_table_bit_for_bit(self):
        # Before places(), a run indexed the table of every cell's centre
        # by the flat indices at least one cell from the edge. A grid of
        # 3 has one such cell and no config: no cell is left to wander to.
        for field_size in (2500.0, 1000.0, 777.7, 1e6, 3.3):
            for grid_cells in range(4, 102):
                cfg = replace(SMALL, field_size=field_size, grid_cells=grid_cells,
                              n_candidates=1)
                want = _all_centres(grid_cells, cfg.cell_size)[_margin_cells(grid_cells)]
                assert cfg.places().tobytes() == want.tobytes(), (field_size, grid_cells)
        places = ScenarioConfig(strategy="oracle").places()
        for target in range(50):
            home = places[hashed_home_index(target, len(places))]
            assert tuple(home.tolist()) == _hashed_home(target, 12, 2500.0 / 12, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(SMALL, n=1)
        with pytest.raises(ValueError):
            replace(SMALL, radio_range=0.0)
        # A run has at least one trial, for simulate and compare-ghls alike.
        for trials in (0, -1):
            with pytest.raises(ValueError, match=re.escape(
                    f"[traffic] trials = {trials} must be at least 1")):
                replace(SMALL, trials=trials)
        assert replace(SMALL, trials=1).trials == 1
        with pytest.raises(ValueError, match=re.escape("[topology] grid_cells = 3 must be "
                           "at least 4, leaving an eligible non-candidate cell")):
            replace(SMALL, grid_cells=3)
        assert replace(SMALL, grid_cells=4, n_candidates=3).grid_cells == 4
        with pytest.raises(ValueError):
            replace(SMALL, n_candidates=36)
        with pytest.raises(ValueError):
            replace(SMALL, strategy="flood")
        with pytest.raises(ValueError):
            replace(SMALL, strategy="lpr")
        with pytest.raises(ValueError):
            replace(SMALL, strategy="lpr", grouping=Grouping((1,) * 13))
        with pytest.raises(ValueError, match=re.escape("[seeds] seed = -3 must be non-negative")):
            replace(SMALL, seed=-3)
        assert replace(SMALL, n=2048, grid_cells=101).n == 2048
        with pytest.raises(ValueError, match=re.escape("[topology] n = 2049 is above 2048")):
            replace(SMALL, n=2049)
        # Bounds that no run could meet or hold are refused before any work.
        assert replace(SMALL, pool_size=10000).pool_size == 10000
        with pytest.raises(ValueError, match=re.escape(
                "[topology] pool = 10001 is above 10000, the layout attempts build_pool makes")):
            replace(SMALL, pool_size=10001)
        assert replace(SMALL, trials=1_000_000).trials == 1_000_000
        with pytest.raises(ValueError, match=re.escape(
                "[traffic] trials = 1000001 is above 1000000")):
            replace(SMALL, trials=1_000_001)
        # The (trials, n_candidates) int32 candidate table gets the same
        # budget: at most 140,750,000 cells.
        for grid, fits, too_many in ((101, (14_362, 9800), (14_363, 9800)),
                                     (14, (1_000_000, 140), (1_000_000, 141))):
            assert replace(SMALL, grid_cells=grid, trials=fits[0],
                           n_candidates=fits[1]).trials == fits[0]
            with pytest.raises(ValueError, match=re.escape(
                    "[traffic] trials * n_candidates = %d * %d is above 140750000: " % too_many)):
                replace(SMALL, grid_cells=grid, trials=too_many[0], n_candidates=too_many[1])
        # numpy's choice, which the trial draws copy, may leave Floyd's
        # algorithm above 10000 cells; grid 101 has 99**2 = 9801 eligible.
        assert replace(SMALL, grid_cells=101, n_candidates=9800).n_candidates == 9800
        with pytest.raises(ValueError, match=re.escape(
                "[topology] grid_cells = 102 is above 101: the bound keeps the "
                "(grid_cells - 2)**2 eligible cells under 10000")):
            replace(SMALL, grid_cells=102)
        # Seeds are one 32-bit SeedSequence word, as stream indices are.
        assert replace(SMALL, seed=2**32 - 1).seed == 2**32 - 1
        with pytest.raises(ValueError, match=re.escape(
                "[seeds] seed = 4294967296 is above 4294967295: a trial stream seeds "
                "numpy's SeedSequence with [seed, tag, index], one 32-bit word each")):
            replace(SMALL, seed=2**32)

    def test_non_finite_values_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be positive"):
                replace(SMALL, radio_range=value)
            with pytest.raises(ValueError, match="must be positive"):
                replace(SMALL, field_size=value)

    def test_each_field_has_one_key(self):
        names = [name for name, _ in scenario._KEYS.values()]
        assert sorted(names) == sorted(f.name for f in fields(ScenarioConfig))


_FUZZ_INI = """
[topology]
n = 80
field_size = 1200
radio_range = 300
pool = 2
grid_cells = 8

[traffic]
trials = 40
n_candidates = 5

[strategy]
kind = lpr
grouping = 2|3

[seeds]
seed = 11
"""
_FUZZ_VALUES = [
    b"nan", b"inf", b"-inf", b"-1", b"0", b"1e3", b"2||3", b"%(x)s", b"\xff\xfe", b"",
]


class TestScenarioFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        return str(path)

    def test_full_round_trip(self, tmp_path):
        path = self._write(
            tmp_path,
            """
[topology]
n = 80
field_size = 1200
radio_range = 300
pool = 2
grid_cells = 8

[traffic]
trials = 40
n_candidates = 5

[strategy]
kind = lpr
grouping = 2|3

[seeds]
seed = 11
""",
        )
        cfg = load_scenario(path)
        assert cfg.n == 80
        assert cfg.field_size == 1200.0
        assert cfg.pool_size == 2
        assert cfg.trials == 40
        assert cfg.strategy == "lpr"
        assert cfg.grouping == Grouping((2, 3))
        assert cfg.seed == 11

    def test_serial_k_shorthand_and_defaults(self, tmp_path):
        # grouping is the one spelling of a grouping: the fully serial
        # shorthand k is an unknown option. Omitted keys take defaults.
        text = """
[topology]
n = 80
field_size = 1200
radio_range = 300
grid_cells = 8

[traffic]
trials = 10
n_candidates = 5

[strategy]
kind = lpr
{grouping}
"""
        with pytest.raises(ValueError, match=re.escape("unknown option [strategy] k")):
            load_scenario(self._write(tmp_path, text.format(grouping="k = 3")))
        cfg = load_scenario(self._write(tmp_path, text.format(grouping="grouping = 1|1|1")))
        assert cfg.grouping == Grouping((1, 1, 1))
        assert cfg.pool_size == 10
        assert cfg.seed == 0

    def test_missing_section(self, tmp_path):
        path = self._write(tmp_path, "[topology]\nn = 10\n")
        with pytest.raises(ValueError, match=r"missing required section \[traffic\]"):
            load_scenario(path)

    def test_missing_option_and_bad_value(self, tmp_path):
        base = """
[topology]
n = {n}
field_size = 1200
radio_range = 300
grid_cells = 8

[traffic]
trials = 10
n_candidates = 5

[strategy]
kind = oracle
"""
        with pytest.raises(ValueError, match=r"bad value for \[topology\] n"):
            load_scenario(self._write(tmp_path, base.format(n="eighty")))
        no_trials = base.format(n="80").replace("trials = 10\n", "")
        with pytest.raises(ValueError, match=r"missing required option \[traffic\] trials"):
            load_scenario(self._write(tmp_path, no_trials))

    def test_grouping_and_k_conflict(self, tmp_path):
        path = self._write(
            tmp_path,
            """
[topology]
n = 80
field_size = 1200
radio_range = 300

[traffic]
trials = 10
n_candidates = 5

[strategy]
kind = lpr
grouping = 2|3
k = 5
""",
        )
        # grouping is the one spelling, so the file fails on k itself.
        with pytest.raises(ValueError, match=re.escape("unknown option [strategy] k")):
            load_scenario(path)

    def test_unknown_option_rejected(self, tmp_path):
        base = """
[topology]
n = 80
field_size = 1200
radio_range = 300
{topology}
[traffic]
trials = 10
n_candidates = 5

[strategy]
kind = oracle
{extra}"""
        for topology, extra, located in (
            ("grid_cell = 8\n", "", "[topology] grid_cell"),
            ("cell_margn = 3\n", "", "[topology] cell_margn"),
            # The margin is fixed at one cell; the key it had is gone.
            ("cell_margin = 1\n", "", "[topology] cell_margin"),
            ("", "\n[seed]\nseed = 9\n", "[seed] seed"),
            # The f/r sweep is fixed; the key it had is gone.
            ("", "\n[ghls]\nf_over_r = 0.5, 2\n", "[ghls] f_over_r"),
            # configparser would copy [DEFAULT]'s keys into every section
            # and report them under the first; the loader reads none.
            ("", "\n[DEFAULT]\nseed = 3\n", "[DEFAULT] seed"),
        ):
            path = self._write(tmp_path, base.format(topology=topology, extra=extra))
            with pytest.raises(ValueError, match=re.escape(f"unknown option {located}")):
                load_scenario(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.ini"))

    @settings(max_examples=300, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["drop", "duplicate", "blank", "value"]),
                st.integers(0, 10**6),
                st.sampled_from(_FUZZ_VALUES),
            ),
            max_size=4,
        )
    )
    def test_mutated_file_loads_finite_or_raises_value_error(
        self, tmp_path_factory, edits
    ):
        # Sizes stay small: every int key rejects '1e3', so no mutant asks
        # for a huge pool or grid.
        lines = _FUZZ_INI.encode().split(b"\n")
        for kind, pos, value in edits:
            i = pos % len(lines)
            if kind == "drop":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif kind == "blank":
                lines[i] = b""
            elif b" = " in lines[i]:
                lines[i] = lines[i].split(b" = ")[0] + b" = " + value
            if not lines:
                lines = [b""]
        path = tmp_path_factory.mktemp("ini") / "scenario.ini"
        path.write_bytes(b"\n".join(lines))
        try:
            cfg = load_scenario(str(path))
        except ValueError:
            return
        for value in (cfg.field_size, cfg.radio_range):
            assert 0 < value < math.inf


class TestScenarioRuns:
    def test_empty_split(self):
        # An empty share of the trial indices is still a valid split.
        pool = build_pool(SMALL)
        assert run_trials(SMALL, [], pool) == []
        record = aggregate([], measure_baseline(SMALL, pool))
        assert record.n_trials == 0
        assert record.delivery_ratio is None
        json.dumps(record.as_dict())

    def test_deterministic_reruns(self):
        rec1, rows1 = run_scenario(SMALL)
        rec2, rows2 = run_scenario(SMALL)
        assert rec1 == rec2
        assert rows1 == rows2

    def test_split_merge_matches_single_pass(self):
        _, rows = run_scenario(SMALL)
        pool = build_pool(SMALL)
        chunks = run_trials(SMALL, range(0, 17), pool) + run_trials(
            SMALL, range(17, 40), pool
        )
        assert chunks == rows
        baseline = measure_baseline(SMALL, pool)
        direct = aggregate(rows, baseline)
        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        merged = aggregate(shuffled, baseline)
        for key, value in direct.as_dict().items():
            other = merged.as_dict()[key]
            if isinstance(value, float):
                assert other == pytest.approx(value, rel=1e-12)
            else:
                assert other == value

    @pytest.mark.parametrize("strategy", ["lpr", "oracle", "ghls"])
    def test_one_index_per_call_matches_single_pass(self, strategy):
        # The benchmark tracer runs run_trials once per trial index: the
        # waves of one-trial batches must give the rows of one batch.
        cfg = replace(SMALL, strategy=strategy, grouping=Grouping((2, 3)),
                      n_candidates=5, trials=60)
        pool = build_pool(cfg)
        rows = run_trials(cfg, range(cfg.trials), pool)
        assert [row for i in range(cfg.trials) for row in run_trials(cfg, [i], pool)] == rows
        assert run_trials(cfg, [], pool) == []

    @pytest.mark.parametrize("strategy", ["lpr", "ghls"])
    def test_reordered_indices_give_single_pass_rows_in_that_order(self, strategy):
        cfg = replace(SMALL, strategy=strategy, grouping=Grouping((2, 3)),
                      n_candidates=5, trials=30)
        pool = build_pool(cfg)
        rows = run_trials(cfg, range(cfg.trials), pool)
        reversed_order = list(range(cfg.trials))[::-1]
        interleaved = list(range(0, cfg.trials, 2)) + list(range(1, cfg.trials, 2))
        for order in (reversed_order, interleaved):
            assert run_trials(cfg, order, pool) == [rows[i] for i in order]

    def test_negative_trial_index_rejected(self):
        pool = build_pool(SMALL)
        with pytest.raises(ValueError, match=re.escape("stream index -1 is outside")):
            run_trials(SMALL, [0, -1], pool)

    def test_trial_index_above_one_word_rejected(self):
        # A trial's stream is seeded [seed, 7, index], one 32-bit word each.
        pool = build_pool(SMALL)
        with pytest.raises(ValueError, match=re.escape("stream index 4294967296 is outside")):
            run_trials(SMALL, [2**32], pool)

    @pytest.mark.parametrize("other", [replace(SMALL, pool_size=3), replace(SMALL, n=81)],
                             ids=["pool_size", "n"])
    def test_pool_of_another_scenario_rejected(self, other):
        pool = build_pool(SMALL)
        message = re.escape(
            f"pool has 160 nodes, not the pool_size * n = {other.pool_size * other.n} ")
        with pytest.raises(ValueError, match=message):
            run_trials(other, range(3), pool)
        with pytest.raises(ValueError, match=message):
            measure_baseline(other, pool)

    def test_oracle_latency_and_ratio(self):
        record, rows = run_scenario(replace(SMALL, trials=120))
        assert record.mean_latency_factor == 1.0
        assert record.delivery_ratio == record.reachability
        assert record.ratio_vs_reachability == 1.0
        assert record.mean_update_hops is None
        assert all(row.success == row.reachable for row in rows)

    def test_trial_rows_record_strategy_fields(self):
        cfg = replace(
            SMALL, strategy="lpr", grouping=Grouping((2, 3)), n_candidates=5
        )
        _, rows = run_scenario(cfg)
        assert all(row.update_hops == -1 for row in rows)
        assert all(1.0 <= row.latency_factor <= 2.0 for row in rows)
        ghls_cfg = replace(SMALL, strategy="ghls")
        record, ghls_rows = run_scenario(ghls_cfg)
        assert all(row.update_hops >= 0 for row in ghls_rows)
        assert record.mean_latency_factor == 2.0

    def test_wander_fraction_in_range(self):
        record, rows = run_scenario(replace(SMALL, trials=200))
        assert 0.0 < record.wander_fraction < 0.25
        assert record.wander_fraction == pytest.approx(
            sum(row.true_rank == 0 for row in rows) / 200
        )

    def test_ghls_comparison_shape(self):
        cfg = ScenarioConfig(
            trials=600,
            grouping=Grouping((1, 2, 6, 3)),
            seed=42,
        )
        comp = compare_ghls(cfg)
        assert comp.f_over_r == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        assert len(comp.ghls_totals) == len(comp.f_over_r)
        assert len(set(comp.lpr_totals)) == 1
        assert comp.lpr_totals[0] == pytest.approx(comp.lpr_request_cost)
        for fr, total in zip(comp.f_over_r, comp.ghls_totals):
            assert total == pytest.approx(
                comp.ghls_request_cost + fr * comp.update_cost
            )
        assert comp.crossover is not None
        assert 1.4 < comp.crossover < 2.6
        assert 1.6 < comp.analytic_crossover < 2.5
        json.dumps(comp.as_dict())

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Count the calls of scenario.<name>."""
        calls = []
        original = getattr(scenario, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(scenario, name, counted)
        return lambda: len(calls)

    def test_one_pool_and_one_baseline_per_run(self, monkeypatch):
        pools = self._count_calls(monkeypatch, "build_pool")
        baselines = self._count_calls(monkeypatch, "measure_baseline")
        cfg = replace(SMALL, strategy="lpr", grouping=Grouping((2, 3)), n_candidates=5)
        for run in (lambda: compare_ghls(cfg), lambda: run_scenario(SMALL)):
            before = pools(), baselines()
            run()
            assert (pools() - before[0], baselines() - before[1]) == (1, 1)

    def test_serial_run_never_imports_multiprocessing(self):
        # A fresh interpreter: a run must not pay for the multiprocessing
        # import, about 2 MiB, which nothing in it needs.
        src = os.path.dirname(os.path.dirname(os.path.dirname(scenario.__file__)))
        code = (
            "import sys, lprlab.cli\n"
            "from lprlab.simnet.scenario import ScenarioConfig, run_scenario\n"
            "run_scenario(ScenarioConfig(n=20, field_size=600, radio_range=300,"
            " pool_size=1, grid_cells=4, trials=3, n_candidates=2,"
            " strategy='oracle'))\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out == "[]\n"


# A draw program: one Generator call per step, made by every stream.
# Bound 2**31 + 1 rejects about half of its draws and bound 1 draws
# nothing; 2**32 is a plain 32-bit draw, and random() between two of
# them must leave the first one's buffered high half to the second.
_PROGRAM = [
    ("integers", 280), ("integers", 168), ("choice", 100, 12), ("random",),
    ("integers", 2**31 + 1), ("integers", 1), ("integers", 2**32), ("random",),
    ("integers", 2**32), ("integers", 2), ("integers", 88), ("choice", 16, 15),
]


def _oracle_draws(rng, program):
    """program's values from one Generator, one per step."""
    return [
        rng.choice(*args, replace=False).tolist() if name == "choice"
        else np.asarray(getattr(rng, name)(*args)).tolist()
        for name, *args in program
    ]


def _lockstep_draws(streams, program):
    """program's values from every stream of a Streams, one list per stream."""
    steps = [getattr(streams, name)(*args).tolist() for name, *args in program]
    return [list(values) for values in zip(*steps)]


# The ends of the one-word index range that Streams takes.
_EDGE_INDICES = [0, 2**32 - 1]


class TestStreams:
    """streams.Streams against its oracle, one default_rng per index."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([7, 13]),
        st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)), max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_matches_default_rng_per_index(self, seed, tag, drawn, shuffler):
        indices = drawn + _EDGE_INDICES + drawn[:2]  # repeats included
        shuffler.shuffle(indices)
        got = _lockstep_draws(Streams(seed, tag, indices), _PROGRAM)
        for index, values in zip(indices, got, strict=True):
            oracle = np.random.default_rng([seed, tag, index])
            assert values == _oracle_draws(oracle, _PROGRAM)

    def test_half_used_32_bit_buffer_does_not_carry_over(self):
        # Streams 0, 2 and 4 make one more 32-bit draw than the others, so
        # only they hold a buffered high half; every stream's later draws
        # must be its own.
        indices, odd = list(range(6)), [0, 2, 4]
        streams = Streams(5, 7, indices)
        first = streams.integers(2**32).tolist()
        extra = streams.integers(2**32, np.array(odd)).tolist()
        later = [("integers", 2**32), ("random",), ("integers", 2**32), ("integers", 280)]
        got = _lockstep_draws(streams, later)
        for index in indices:
            oracle = np.random.default_rng([5, 7, index])
            assert first[index] == oracle.integers(2**32)
            if index in odd:
                assert extra[odd.index(index)] == oracle.integers(2**32)
            assert got[index] == _oracle_draws(oracle, later)

    def test_rejections_on_a_subset_step_alone(self):
        # 40 draws at bound 2**31 + 1 redraw about 40 more times, so each
        # drawing stream steps as far as its own rejections take it, well
        # past the other streams; those stay put.
        indices, rows = list(range(8)), [1, 4, 6]
        streams = Streams(9, 13, indices)
        got = [streams.integers(2**31 + 1, np.array(rows)).tolist() for _ in range(40)]
        after = streams.integers(280).tolist()
        for index in indices:
            oracle = np.random.default_rng([9, 13, index])
            if index in rows:
                expected = [oracle.integers(2**31 + 1) for _ in range(40)]
                assert [step[rows.index(index)] for step in got] == expected
            assert after[index] == oracle.integers(280)

    @pytest.mark.parametrize("pop, size", [(100, 12), (16, 15), (10000, 200)])
    def test_choice_on_floyds_path(self, pop, size):
        # numpy's choice draws by Floyd's algorithm from up to 10000.
        indices = [0, 1, 2**32 - 1]
        got = Streams(42, 7, indices).choice(pop, size).tolist()
        for index, values in zip(indices, got, strict=True):
            oracle = np.random.default_rng([42, 7, index])
            assert values == oracle.choice(pop, size, replace=False).tolist()

    def test_refusals(self):
        with pytest.raises(ValueError, match="choice from 10001 is above 10000"):
            Streams(0, 7, [0]).choice(10001, 2)
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match=re.escape(
                    f"stream index {bad} is outside [0, 2**32)")):
                Streams(0, 7, [3, bad])
        with pytest.raises(ValueError, match=re.escape(
                "stream seed 4294967296 is outside [0, 2**32)")):
            Streams(2**32, 7, [3])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        # + 0.0 turns -0.0 into 0.0: numpy's partition leaves equal
        # signed zeros in no set order, and latency factors are >= 1.
        st.one_of(st.integers(1, 12).map(float), st.floats(-1e6, 1e6).map(lambda v: v + 0.0)),
        min_size=1, max_size=80,
    ),
    st.sampled_from([0, 10, 25, 50, 75, 90, 100]),
)
def test_percentile_is_numpy_linear_method_bit_for_bit(values, q):
    # Small integers, as latency factors are, make ties.
    expected = float(np.percentile(np.array(values), q))
    assert scenario._percentile(sorted(values), q).hex() == expected.hex()


def test_serial_simulate_leaves_numpy_ma_unimported(tmp_path):
    # np.setdiff1d and np.percentile import numpy.ma, about 1.3 MiB of
    # peak memory. Trials with 2 of 16 cells as candidates wander often.
    ini = tmp_path / "scenario.ini"
    ini.write_text(
        "[topology]\nn = 40\nfield_size = 800\nradio_range = 300\npool = 1\n"
        "grid_cells = 6\n[traffic]\ntrials = 40\nn_candidates = 2\n"
        "[strategy]\nkind = lpr\ngrouping = 1|1\n"
    )
    code = (
        "import sys\n"
        "from lprlab.cli import main\n"
        f"assert main(['simulate', {str(ini)!r}, '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.dirname(scenario.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=120)
    rows = (tmp_path / "trials.csv").read_text().splitlines()[1:]
    assert any(row.split(",")[2] == "0" for row in rows)  # some target wandered


def test_simulator_leaves_the_profile_layer_unimported():
    # A scenario run addresses cells through places(); nothing in the
    # simulator reads profiles or traces, so it does not pay to import them.
    code = (
        "import sys\n"
        "import lprlab.simnet\n"
        "from lprlab.simnet import ScenarioConfig, run_scenario\n"
        "config = ScenarioConfig(n=40, field_size=800.0, radio_range=300.0, pool_size=1,\n"
        "                        grid_cells=6, trials=20, n_candidates=2,\n"
        "                        strategy='ghls')\n"
        "record, _ = run_scenario(config)\n"
        "assert record.n_trials == 20\n"
        "loaded = [m for m in ('lprlab.profile', 'lprlab.mobility') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.dirname(scenario.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=120)


def _replay_draws(config, trials):
    """Each trial's draws, replayed from its own default_rng stream with
    the plain Generator calls: (source node, hour, true rank, candidate
    cells, true cell, ghls updater node) arrays, indexed by trial; the
    updaters are -1 unless the strategy is ghls. Cells are flat indices
    (_margin_cells)."""
    eligible = _margin_cells(config.grid_cells)
    nc = config.n_candidates
    src = np.zeros(trials, dtype=np.intp)
    updaters = np.full(trials, -1, dtype=np.intp)
    hours = np.zeros(trials, dtype=np.intp)
    ranks = np.zeros(trials, dtype=np.intp)
    cands = np.zeros((trials, nc), dtype=np.intp)
    true_cells = np.zeros(trials, dtype=np.intp)

    for index in range(trials):
        rng = np.random.default_rng([config.seed, 7, index])
        layout_start = index % config.pool_size * config.n
        src[index] = rng.integers(config.n) + layout_start
        hour = int(rng.integers(168))
        cand = rng.choice(eligible, size=nc, replace=False)
        pmf = sequential_hit_pmf(regularity(hour + 0.5), nc)
        u = float(rng.random())
        true_rank = 0
        cum = 0.0
        for i, mass in enumerate(pmf, start=1):
            cum += mass
            if u < cum:
                true_rank = i
                break
        if true_rank > 0:
            true_cells[index] = cand[true_rank - 1]
        else:
            true_cells[index] = rng.choice(np.setdiff1d(eligible, cand))
        if config.strategy == "ghls":
            updaters[index] = rng.integers(config.n) + layout_start
        hours[index] = hour
        ranks[index] = true_rank
        cands[index] = cand
    return src, hours, ranks, cands, true_cells, updaters


@pytest.mark.parametrize("config", [
    # 2 of 16 cells as candidates: most targets wander.
    ScenarioConfig(n=40, field_size=800.0, radio_range=300.0, pool_size=1, grid_cells=6,
                   trials=400, n_candidates=2, strategy="lpr", grouping=Grouping((1, 1)),
                   seed=3),
    ScenarioConfig(pool_size=2, trials=1000, strategy="lpr", grouping=Grouping((2, 10)),
                   seed=42),
], ids=["wandering", "readme_grid"])
def test_trial_draws_replay_with_plain_generator_calls(config):
    # run_trials draws candidates and wander cells through index draws;
    # the plain choice calls on the cell arrays must draw the same.
    pool = build_pool(config)
    with mock.patch.object(scenario, "route_legs", wraps=scenario.route_legs) as reach:
        rows = run_trials(config, range(config.trials), pool)
    src, hours, ranks, _, true_cells, _ = _replay_draws(config, config.trials)
    assert [row.hour for row in rows] == hours.tolist()
    assert [row.true_rank for row in rows] == ranks.tolist()
    assert 0 in ranks
    # Its one call routes the reachability legs, to the true cells' centres.
    assert reach.call_count == 1
    (_, legs_src, legs_dest, _, _), _ = reach.call_args
    assert legs_src.tolist() == src.tolist()
    assert legs_dest.tolist() == _all_centres(config.grid_cells, config.cell_size)[
        true_cells].tolist()


def test_ghls_updater_draw_replays():
    # 3 of 4 eligible cells are candidates: a wanderer's index draw has
    # bound 1 and draws nothing, just before the updater draw.
    config = ScenarioConfig(n=40, field_size=800.0, radio_range=300.0, pool_size=2,
                            grid_cells=4, trials=300, n_candidates=3, strategy="ghls",
                            seed=5)
    pool = build_pool(config)
    with mock.patch.object(scenario, "ghls_waves", wraps=scenario.ghls_waves) as waves:
        rows = run_trials(config, range(config.trials), pool)
    _, _, ranks, _, _, updaters = _replay_draws(config, config.trials)
    assert [row.true_rank for row in rows] == ranks.tolist()
    assert 0 in ranks
    (*_, got), _ = waves.call_args
    assert got.tolist() == updaters.tolist()


def test_most_candidates_replay():
    # The most candidates a scenario may draw: all but one of the largest
    # grid's 99**2 = 9801 eligible cells.
    config = ScenarioConfig(n=40, field_size=800.0, radio_range=300.0, pool_size=1,
                            grid_cells=101, trials=30, n_candidates=9800,
                            strategy="oracle", seed=8)
    with mock.patch.object(scenario, "round_trips", wraps=scenario.round_trips) as legs:
        rows = run_trials(config, range(config.trials), build_pool(config))
    src, hours, ranks, _, true_cells, _ = _replay_draws(config, config.trials)
    assert [row.hour for row in rows] == hours.tolist()
    assert [row.true_rank for row in rows] == ranks.tolist()
    (_, _, legs_src, legs_dest, _), _ = legs.call_args
    assert legs_src.tolist() == src.tolist()
    assert legs_dest.tolist() == _all_centres(config.grid_cells, config.cell_size)[
        true_cells].tolist()


def _leg_tables(config, pool, trials):
    """Replay the scenario draws, recording one round trip per rank."""
    centers = _all_centres(config.grid_cells, config.cell_size)
    radius = config.cell_size
    nc = config.n_candidates
    hits = np.zeros((trials, nc), dtype=bool)
    costs = np.zeros((trials, nc), dtype=np.int64)
    src, _, _, cands, true_cells, _ = _replay_draws(config, trials)
    true_positions = centers[true_cells]
    # One round trip per (trial, rank), all in one pair of waves.
    trial = np.repeat(np.arange(trials), nc)
    reached_ok, reached, cost = round_trips(
        pool, _leg_ttl(config.n), src[trial], centers[cands.ravel()], radius
    )
    costs[:] = cost.reshape(trials, nc)
    for leg in np.flatnonzero(reached_ok).tolist():
        index = leg // nc
        hits[index, leg % nc] = pool.distance_to(
            int(reached[leg]), true_positions[index]
        ) <= radius
    return hits, costs


def _walk_grouping(grouping, hits, costs):
    """Stage walk over precomputed legs; mirrors the delivery charging."""
    n = len(hits)
    n_stages = len(grouping.sizes)
    latency = np.full(n, float(n_stages))
    tx = np.zeros(n, dtype=np.int64)
    stage_of_hit = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    start = 0
    for stage, size in enumerate(grouping.sizes, start=1):
        active = ~done
        tx[active] += costs[active, start : start + size].sum(axis=1)
        stage_hit = hits[:, start : start + size].any(axis=1)
        newly = active & stage_hit
        latency[newly] = float(stage)
        stage_of_hit[newly] = stage
        done |= newly
        start += size
    return done, latency, tx, stage_of_hit


AGREEMENT_TRIALS = 10_000


@pytest.fixture(scope="module")
def tables():
    config = ScenarioConfig(
        trials=AGREEMENT_TRIALS,
        n_candidates=12,
        grouping=Grouping((1,) * 12),
        seed=42,
    )
    pool = build_pool(config)
    hits, costs = _leg_tables(config, pool, AGREEMENT_TRIALS)
    baseline = measure_baseline(config, pool)
    return config, pool, hits, costs, baseline


class TestSimulationMatchesModels:
    """Every frontier grouping, scored against its closed-form means."""

    def test_every_frontier_grouping_within_five_percent(self, tables):
        config, _, hits, costs, baseline = tables
        groupings = [p.grouping for p in pareto_front(5)]
        groupings += [p.grouping for p in pareto_front(12)]
        assert len(groupings) == 12 + 102
        worst = 0.0
        for grouping in groupings:
            _, latency, tx, _ = _walk_grouping(grouping, hits, costs)
            lat_err = abs(latency.mean() / mean_latency(grouping) - 1.0)
            traffic = tx.mean() / baseline
            traf_err = abs(traffic / mean_traffic(grouping) - 1.0)
            worst = max(worst, lat_err, traf_err)
            assert lat_err <= 0.05, (grouping, lat_err)
            assert traf_err <= 0.05, (grouping, traf_err)
        assert worst < 0.05

    def test_walk_agrees_with_direct_delivery(self, tables):
        config, pool, hits, costs, _ = tables
        for sizes in ((2, 10), (1, 2, 4, 4, 1), (2, 3)):
            grouping = Grouping(sizes)
            cfg = replace(config, grouping=grouping, trials=200)
            rows = run_trials(cfg, range(200), pool)
            success, latency, tx, stages = _walk_grouping(
                grouping, hits[:200], costs[:200]
            )
            for i, row in enumerate(rows):
                assert row.success == bool(success[i])
                assert row.latency_factor == latency[i]
                assert row.transmissions == tx[i]

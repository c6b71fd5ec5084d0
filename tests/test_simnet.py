"""Topology, routing, staged delivery, and scenario tests.

The statistical checks at the bottom build one per-trial leg table and
reuse it to score every frontier grouping against the closed-form
latency and traffic means, so the whole frontier costs a single
simulation pass.
"""

import concurrent.futures
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprlab.analytic import (
    Grouping,
    RegularityModel,
    mean_latency,
    mean_traffic,
    pareto_front,
    sequential_hit_pmf,
)
from lprlab.profile import CellId, ObservationTrace, build_profile
from lprlab.simnet import (
    ScenarioConfig,
    build_topology,
    candidates_from_profile,
    compare_ghls,
    default_ttl,
    ghls_deliver,
    ghls_update,
    gpsr_route,
    load_scenario,
    lpr_deliver,
    run_scenario,
    topology_from_positions,
)
from lprlab.simnet import scenario
from lprlab.simnet.delivery import _leg_ttl, cell_center, hashed_home_index
from lprlab.simnet.gpsr import _next_ccw, _proper_crossing
from lprlab.simnet.scenario import (
    aggregate,
    build_pool,
    measure_baseline,
    run_trials,
)

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
    ordered = sorted(topology.planar_adjacency[x], key=lambda v: (topology.bearing(x, v), v))
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
        refs = list(angles)
        for v in range(topo.n):
            if v != x:
                b = topo.bearing(x, v)
                refs += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
        for ref in refs:
            assert _next_ccw(topo, x, ref) == _sorted_next_ccw(topo, x, ref)


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
        assert [sorted(a) for a in topo.adjacency] == [[1], [0, 2], [1]]
        assert [sorted(a) for a in topo.planar_adjacency] == [[1], [0, 2], [1]]
        assert topo.connected

    def test_collinear_long_range_drops_spanned_link(self):
        # The middle node sits inside the long link's diameter disk.
        topo = topology_from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 2.5)
        assert [sorted(a) for a in topo.adjacency] == [[1, 2], [0, 2], [0, 1]]
        assert [sorted(a) for a in topo.planar_adjacency] == [[1], [0, 2], [1]]

    def test_unit_square_diagonals_removed(self):
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        topo = topology_from_positions(corners, math.sqrt(2.0) + 1e-6)
        assert all(len(a) == 3 for a in topo.adjacency)
        # Sides survive, crossing diagonals do not.
        assert [sorted(a) for a in topo.planar_adjacency] == [
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
            full = [set(a) for a in topo.adjacency]
            planar = [set(a) for a in topo.planar_adjacency]
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
            for v in topo.planar_adjacency[u]:
                assert v in topo.adjacency[u]
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
            assert topo.adjacency == adjacency
            assert topo.planar_adjacency == planar

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
                assert bits(topo.distance_to(u, point)) == bits(math.hypot(
                    float(p[u, 0]) - point[0], float(p[u, 1]) - point[1]
                ))
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
                for v in topo.planar_adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == topo.n

    def test_disconnected_flag(self):
        assert not _two_clusters().connected

    def test_build_is_deterministic_per_seed(self):
        a = build_topology(40, 1000.0, 250.0, seed=3)
        b = build_topology(40, 1000.0, 250.0, seed=3)
        c = build_topology(40, 1000.0, 250.0, seed=4)
        assert np.array_equal(a.positions, b.positions)
        assert a.adjacency == b.adjacency
        assert a.planar_adjacency == b.planar_adjacency
        assert not np.array_equal(a.positions, c.positions)

    def test_node_helpers(self):
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        topo = topology_from_positions(corners, math.sqrt(2.0) + 1e-6)
        assert topo.avg_degree() == 3.0
        assert topo.distance_to(0, (3.0, 4.0)) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_topology(1, 100.0, 50.0)
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
    """Every hop is a link, a perimeter hop a planar link, a greedy hop
    strictly closer to dest; the route keeps to ttl and succeeds exactly
    when it ends within radius of dest."""
    assert route.path[0] == src
    assert route.hops <= ttl
    assert len(route.perimeter_steps) == route.hops
    for a, b, on_perimeter in zip(route.path, route.path[1:], route.perimeter_steps):
        assert b in topo.adjacency[a]
        if on_perimeter:
            assert b in topo.planar_adjacency[a]
        else:
            assert topo.distance_to(b, dest) < topo.distance_to(a, dest)
    assert route.success == (topo.distance_to(route.path[-1], dest) <= radius)


class TestGpsr:
    def test_straight_chain_all_greedy(self):
        topo = topology_from_positions([(float(i), 0.0) for i in range(6)], 1.5)
        route = gpsr_route(topo, 0, (5.0, 0.0))
        assert route.success
        assert route.path == [0, 1, 2, 3, 4, 5]
        assert route.hops == 5
        assert route.perimeter_hops == 0
        assert route.perimeter_steps == (False,) * 5

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
            topo.distance_to(v, VOID_DEST) > d1 for v in topo.adjacency[1]
        )
        route = gpsr_route(topo, 0, VOID_DEST)
        assert route.success
        assert route.path == [0, 1, 2, 4, 6]
        assert route.perimeter_steps == (False, True, True, False)
        assert route.perimeter_hops == 2

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

    def test_default_ttl_values_and_truncation(self):
        assert default_ttl(50) == 29
        assert default_ttl(4) == 8
        chain = topology_from_positions([(float(i), 0.0) for i in range(30)], 1.5)
        short = gpsr_route(chain, 0, (29.0, 0.0))
        assert not short.success
        assert short.hops == default_ttl(30) == 22
        full = gpsr_route(chain, 0, (29.0, 0.0), ttl=29)
        assert full.success and full.hops == 29

    def test_validation(self):
        topo = _void_topology()
        with pytest.raises(ValueError):
            gpsr_route(topo, -1, VOID_DEST)
        with pytest.raises(ValueError):
            gpsr_route(topo, topo.n, VOID_DEST)
        with pytest.raises(ValueError):
            gpsr_route(topo, 0, VOID_DEST, acceptance_radius=-1.0)


def _hashed_home(target_id, grid_cells, cell_size, margin):
    """The ghls home center of a target, as _run_one looks it up."""
    config = ScenarioConfig(
        field_size=grid_cells * cell_size, grid_cells=grid_cells,
        cell_margin=margin, n_candidates=1, strategy="oracle",
    )
    eligible = config.eligible_cells()
    centers = scenario._cell_centers(config)
    return centers[eligible[hashed_home_index(target_id, len(eligible))]]


@pytest.fixture(scope="module")
def topo():
    topo = build_topology(120, 1000.0, 250.0, seed=2)
    assert topo.connected
    return topo


class TestDelivery:
    def _round_trip_recount(self, topo, src, position, radius):
        # Independent re-derivation of the charging rule: forward hops
        # always count, the response leg only runs after a reached
        # forward and is charged even if it fails.
        ttl = _leg_ttl(topo)
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
            topo, 5, candidates, Grouping.serial(3),
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
            topo, 0, candidates, Grouping.serial(4),
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

    def test_candidates_from_profile_ranked_centers(self):
        slots = np.array([9, 177, 345, 513, 681])
        cells = np.array([[2, 3], [2, 3], [2, 3], [4, 1], [2, 3]])
        profile = build_profile(ObservationTrace("n0", slots, cells), order=1)
        cands = candidates_from_profile(profile, 9, 2, 100.0)
        assert cands == [(250.0, 350.0), (450.0, 150.0)]
        with_context = candidates_from_profile(
            profile, 9, 2, 100.0, prev_cell=CellId(2, 3)
        )
        assert with_context[0] == (250.0, 350.0)

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
            return cell_center(
                CellId(margin + cell % side, margin + cell // side), cell_size
            )

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
        assert cfg.n_cells == 144
        centers = scenario._cell_centers(cfg)
        assert centers[0] == pytest.approx((cfg.cell_size / 2,) * 2)
        for i, center in enumerate(centers):
            assert center == cell_center(CellId(i % 12, i // 12), cfg.cell_size)

    def test_eligible_cells_respect_margin(self):
        cfg = replace(SMALL, grid_cells=6, cell_margin=1)
        cells = cfg.eligible_cells()
        assert len(cells) == 16
        for c in cells:
            x, y = int(c) % 6, int(c) // 6
            assert 1 <= x <= 4 and 1 <= y <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(SMALL, n=1)
        with pytest.raises(ValueError):
            replace(SMALL, radio_range=0.0)
        with pytest.raises(ValueError):
            replace(SMALL, trials=-1)
        with pytest.raises(ValueError):
            replace(SMALL, cell_margin=4)
        with pytest.raises(ValueError):
            replace(SMALL, n_candidates=36)
        with pytest.raises(ValueError):
            replace(SMALL, strategy="flood")
        with pytest.raises(ValueError):
            replace(SMALL, strategy="lpr")
        with pytest.raises(ValueError):
            replace(SMALL, strategy="lpr", grouping=Grouping.serial(13))
        with pytest.raises(ValueError):
            replace(SMALL, f_over_r=(1.0, -0.5))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            replace(SMALL, seed=-3)

    def test_non_finite_values_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be positive"):
                replace(SMALL, radio_range=value)
            with pytest.raises(ValueError, match="must be positive"):
                replace(SMALL, field_size=value)
            with pytest.raises(ValueError, match="must be non-negative"):
                replace(SMALL, f_over_r=(1.0, value))


_FUZZ_INI = """
[topology]
n = 80
field_size = 1200
radio_range = 300
pool = 2
grid_cells = 8
cell_margin = 1

[traffic]
trials = 40
n_candidates = 5

[strategy]
kind = lpr
grouping = 2|3

[ghls]
f_over_r = 0.5, 1.5, 2.5

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
cell_margin = 1

[traffic]
trials = 40
n_candidates = 5

[strategy]
kind = lpr
grouping = 2|3

[ghls]
f_over_r = 0.5, 1.5, 2.5

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
        assert cfg.f_over_r == (0.5, 1.5, 2.5)
        assert cfg.seed == 11
        assert cfg.cell_margin == 1

    def test_serial_k_shorthand_and_defaults(self, tmp_path):
        path = self._write(
            tmp_path,
            """
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
k = 3
""",
        )
        cfg = load_scenario(path)
        assert cfg.grouping == Grouping((1, 1, 1))
        assert cfg.pool_size == 10
        assert cfg.seed == 0
        assert cfg.cell_margin == 1
        assert len(cfg.f_over_r) == 6

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
        with pytest.raises(ValueError, match="not both"):
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
            ("", "\n[seed]\nseed = 9\n", "[seed] seed"),
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
        assert all(0 <= f < math.inf for f in cfg.f_over_r)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand ProcessPoolExecutor in with a double that maps in this
    process, so that patches of scenario also reach the work of the
    workers. Returns the (max_workers, start method) of each pool asked
    for."""
    requested = []

    class InProcessExecutor:
        def __init__(self, max_workers, mp_context):
            requested.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    return requested


class TestScenarioRuns:
    def test_zero_trials(self):
        record, rows = run_scenario(replace(SMALL, trials=0))
        assert record.n_trials == 0
        assert rows == []
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
            f_over_r=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        )
        comp = compare_ghls(cfg)
        assert len(comp.ghls_totals) == len(cfg.f_over_r)
        assert len(set(comp.lpr_totals)) == 1
        assert comp.lpr_totals[0] == pytest.approx(comp.lpr_request_cost)
        assert comp.ghls_totals[0] == pytest.approx(comp.ghls_request_cost)
        for fr, total in zip(cfg.f_over_r, comp.ghls_totals):
            assert total == pytest.approx(
                comp.ghls_request_cost + fr * comp.update_cost
            )
        assert comp.crossover is not None
        assert 1.4 < comp.crossover < 2.6
        assert 1.6 < comp.analytic_crossover < 2.5
        json.dumps(comp.as_dict())

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Count the calls of scenario.<name>; with the in-process pool
        this includes the calls a worker would make."""
        calls = []
        original = getattr(scenario, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(scenario, name, counted)
        return lambda: len(calls)

    def test_one_pool_and_one_baseline_per_run(self, monkeypatch, in_process_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pools = self._count_calls(monkeypatch, "build_pool")
        baselines = self._count_calls(monkeypatch, "measure_baseline")
        cfg = replace(SMALL, strategy="lpr", grouping=Grouping((2, 3)), n_candidates=5)
        for run in (lambda: compare_ghls(cfg), lambda: compare_ghls(cfg, jobs=2),
                    lambda: run_scenario(SMALL), lambda: run_scenario(SMALL, jobs=2)):
            before = pools(), baselines()
            run()
            assert (pools() - before[0], baselines() - before[1]) == (1, 1)
        # The --jobs 2 runs went through the pool: compare_ghls once per
        # strategy, run_scenario once.
        assert in_process_pool == [(2, "spawn")] * 3

    def test_jobs_match_serial(self, monkeypatch):
        # Two CPUs whatever the machine has, so the workers really run.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_scenario(SMALL, jobs=2) == run_scenario(SMALL)
        one = replace(SMALL, trials=1)
        assert run_scenario(one, jobs=2) == run_scenario(one)
        cfg = replace(SMALL, strategy="lpr", grouping=Grouping((2, 3)), n_candidates=5)
        assert compare_ghls(cfg, jobs=2) == compare_ghls(cfg)

    def test_worker_count_capped(self, monkeypatch, in_process_pool):
        serial = run_scenario(SMALL)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_scenario(SMALL, jobs=64) == serial
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        three = replace(SMALL, trials=3)
        assert run_scenario(three, jobs=64) == run_scenario(three)
        assert in_process_pool == [(2, "spawn"), (3, "spawn")]

    def test_serial_run_never_imports_multiprocessing(self):
        # A fresh interpreter: the serial path must not pay for the
        # multiprocessing import, which only --jobs above 1 needs.
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


def _leg_tables(config, pool, trials):
    """Replay the scenario draws, recording one round trip per rank."""
    eligible = config.eligible_cells()
    centers = scenario._cell_centers(config)
    model = RegularityModel()
    radius = config.cell_size
    nc = config.n_candidates
    hits = np.zeros((trials, nc), dtype=bool)
    costs = np.zeros((trials, nc), dtype=np.int64)
    from lprlab.simnet.delivery import _round_trip

    for index in range(trials):
        rng = np.random.default_rng([config.seed, 7, index])
        topo = pool[index % len(pool)]
        src = int(rng.integers(topo.n))
        hour = int(rng.integers(168))
        cand = rng.choice(eligible, size=nc, replace=False)
        pmf = sequential_hit_pmf(model(hour + 0.5), nc)
        u = float(rng.random())
        true_rank = 0
        cum = 0.0
        for i, mass in enumerate(pmf, start=1):
            cum += mass
            if u < cum:
                true_rank = i
                break
        if true_rank > 0:
            true_cell = int(cand[true_rank - 1])
        else:
            true_cell = int(rng.choice(np.setdiff1d(eligible, cand)))
        true_pos = centers[true_cell]
        for rank in range(nc):
            reached_ok, reached, cost = _round_trip(
                topo, src, centers[int(cand[rank])], radius
            )
            costs[index, rank] = cost
            hits[index, rank] = (
                reached_ok and topo.distance_to(reached, true_pos) <= radius
            )
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
        grouping=Grouping.serial(12),
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

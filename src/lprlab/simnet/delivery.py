"""Delivery strategies on top of geographic routing.

Two ways to find a moving target are modeled. Profile-guided delivery
(lpr_waves) sends copies of a message to ranked candidate cells, one
stage of a grouping at a time; every copy travels to its candidate cell
and the node reached there sends a response back to the source, so each
copy costs a round trip whether or not the target was found. Delivery
succeeds when a reached node lies within the acceptance radius of the
target's true cell center.

The comparator (ghls_waves) is a geographic hash location service: a target
id hashes to one of the scenario's eligible cells (hashed_home_index),
and the nodes of that home region answer queries for the target's
position. An update is a one-way route into the home region (within the
acceptance radius of the home center), and a delivery is a query round
trip to the home region followed by a data round trip to the target's
true position, so lookup legs and data legs terminate the same way.

Both strategies run a batch of trials at once, as a fixed sequence of
waves on one graph (a scenario's pool of layouts), and every wave routes
all of its legs in one gpsr.route_legs call. A round trip is a forward
wave, then a wave of responses from the copies that arrived.
Profile-guided delivery runs, for each stage while some trial is still
open, the forward copies, their responses and the hit check; trials
that hit drop out. The location service runs the query round trips,
then the data round trips of the queries that arrived, then the
updates. Trials never interact, so a trial's outcome does not depend
on the batch it runs in; lpr_deliver is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytic import Grouping
from .gpsr import _distance, _leg_ttl, route_legs
from .topology import Topology

__all__ = [
    "DeliveryOutcome",
    "ghls_waves",
    "hashed_home_index",
    "lpr_deliver",
    "lpr_waves",
    "round_trips",
]


@dataclass(frozen=True)
class DeliveryOutcome:
    success: bool
    latency_factor: float
    transmissions: int


def _within(
    graph: Topology, nodes: np.ndarray, points: np.ndarray, radius: float
) -> np.ndarray:
    """Whether node nodes[i] of graph lies within radius of position
    points[i]: the routing distance, bit for bit Topology.distance_to."""
    offset = graph.positions[nodes] - points
    return _distance(offset[:, 0], offset[:, 1]) <= radius


def round_trips(
    graph: Topology, ttl: int, src: np.ndarray, dest: np.ndarray, acceptance_radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A wave of legs from node src[i] of graph to position dest[i], then
    one of responses back to src[i] from the legs that arrived; every leg
    has hop budget ttl.

    Returns the arrays (reached, reached node, transmissions). A failed
    forward leg charges only its own hops; a response leg is charged even
    if it fails.
    """
    reached, end, transmissions, _ = route_legs(graph, src, dest, acceptance_radius, ttl)
    back = np.flatnonzero(reached)
    _, _, resp_hops, _ = route_legs(graph, end[back], graph.positions[src[back]], 0.0, ttl)
    transmissions[back] += resp_hops
    return reached, end, transmissions


def lpr_waves(
    graph: Topology,
    ttl: int,
    src: np.ndarray,
    candidates: np.ndarray,
    places: np.ndarray,
    grouping: Grouping,
    true_positions: np.ndarray,
    acceptance_radius: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-by-stage delivery for a batch of trials: trial i runs from
    node src[i] of graph, with ranked candidate positions
    places[candidates[i]] (candidates is a (trials, >= grouping.k) index
    array into the (m, 2) array places) and target position
    true_positions[i]. Every leg has hop budget ttl.

    Stage s sends one copy to each of its candidates in parallel; all
    copies of an attempted stage are charged (round trip on reaching the
    candidate area, forward hops only otherwise). The first stage in
    which some reached node lies within acceptance_radius of the true
    position ends the delivery with latency factor equal to that stage's
    1-based index; if no stage hits, the latency factor is the number of
    stages. Returns the arrays (success, latency factor, transmissions).
    """
    n_trials = len(src)
    success = np.zeros(n_trials, dtype=bool)
    latency = np.full(n_trials, float(len(grouping.sizes)))
    transmissions = np.zeros(n_trials, dtype=np.int64)
    open_trials = np.arange(n_trials)
    rank = 0
    for stage_index, size in enumerate(grouping.sizes, start=1):
        if not open_trials.size:
            break
        trial = np.repeat(open_trials, size)
        ranks = np.tile(np.arange(rank, rank + size), len(open_trials))
        rank += size
        reached, end, cost = round_trips(
            graph, ttl, src[trial], places[candidates[trial, ranks]], acceptance_radius
        )
        np.add.at(transmissions, trial, cost)
        arrived = np.flatnonzero(reached)
        t = trial[arrived]
        hit = np.zeros(n_trials, dtype=bool)
        hit[t[_within(graph, end[arrived], true_positions[t], acceptance_radius)]] = True
        success[hit] = True
        latency[hit] = float(stage_index)
        open_trials = open_trials[~hit[open_trials]]
    return success, latency, transmissions


def lpr_deliver(
    topology: Topology,
    src: int,
    candidate_positions: list[tuple[float, float]],
    grouping: Grouping,
    *,
    true_position: tuple[float, float],
    acceptance_radius: float,
) -> DeliveryOutcome:
    """lpr_waves for one trial."""
    if len(candidate_positions) < grouping.k:
        raise ValueError(
            f"need {grouping.k} candidate positions, got {len(candidate_positions)}"
        )
    success, latency, transmissions = lpr_waves(
        topology, _leg_ttl(topology.n), np.array([src]),
        np.arange(grouping.k)[None, :], np.array(candidate_positions, dtype=float),
        grouping, np.array([true_position], dtype=float), acceptance_radius,
    )
    return DeliveryOutcome(bool(success[0]), float(latency[0]), int(transmissions[0]))


def hashed_home_index(target_id: object, n: int) -> int:
    """Deterministic hash of a target id to an index in range(n).

    The scenario indexes its eligible cells with it, so home centers lie
    on the same cell-center lattice that data packets are addressed to
    and lookup legs and data legs are identically distributed. hashlib
    is imported here, so only ghls runs load it and OpenSSL with it.
    """
    import hashlib

    digest = hashlib.sha256(str(target_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n


def ghls_waves(
    graph: Topology,
    ttl: int,
    src: np.ndarray,
    homes: np.ndarray,
    true_positions: np.ndarray,
    acceptance_radius: float,
    updaters: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Location-service delivery for a batch of trials on graph, with legs
    of hop budget ttl: query trial i's home region homes[i] from src[i],
    then send data to true_positions[i], then update the home region
    from node updaters[i].

    Query and data legs are round trips; the data leg runs only if the
    query reached the home region, and succeeds only within
    acceptance_radius of the target. An update is a one-way route into
    the home region. Returns the arrays (success, transmissions, update
    hops); the latency factor is 2.0 (lookup plus data) regardless.
    """
    queried, _, transmissions = round_trips(graph, ttl, src, homes, acceptance_radius)
    success = np.zeros(len(src), dtype=bool)
    sent = np.flatnonzero(queried)
    success[sent], _, data_cost = round_trips(
        graph, ttl, src[sent], true_positions[sent], acceptance_radius
    )
    transmissions[sent] += data_cost
    _, _, update_hops, _ = route_legs(graph, updaters, homes, acceptance_radius, ttl)
    return success, transmissions, update_hops

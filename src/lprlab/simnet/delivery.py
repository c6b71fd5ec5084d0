"""Delivery strategies on top of geographic routing.

Two ways to find a moving target are modeled. Profile-guided delivery
(lpr_deliver) sends copies of a message to ranked candidate cells, one
stage of a grouping at a time; every copy travels to its candidate cell
and the node reached there sends a response back to the source, so each
copy costs a round trip whether or not the target was found. Delivery
succeeds when a reached node lies within the acceptance radius of the
target's true cell center.

The comparator (ghls_*) is a geographic hash location service: a target
id hashes to one of the scenario's eligible cells (hashed_home_index),
and the nodes of that home region answer queries for the target's
position. An update is a one-way route into the home region (within the
acceptance radius of the home center), and a delivery is a query round
trip to the home region followed by a data round trip to the target's
true position, so lookup legs and data legs terminate the same way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..analytic import Grouping
from ..profile import CellId, LocationProfile, top_k
from .gpsr import gpsr_route
from .topology import Topology

__all__ = [
    "DeliveryOutcome",
    "candidates_from_profile",
    "cell_center",
    "ghls_deliver",
    "ghls_update",
    "hashed_home_index",
    "lpr_deliver",
]


@dataclass(frozen=True)
class DeliveryOutcome:
    success: bool
    latency_factor: float
    transmissions: int


def _leg_ttl(topology: Topology) -> int:
    # Delivery legs get a hop budget that never truncates a face tour;
    # 8n is several times the longest tour seen on connected graphs,
    # while the per-packet default of about 4*sqrt(n) cuts off roughly
    # 2% of legitimate perimeter recoveries at n = 50.
    return 8 * topology.n


def cell_center(cell: CellId, cell_size: float) -> tuple[float, float]:
    return ((cell.x + 0.5) * cell_size, (cell.y + 0.5) * cell_size)


def candidates_from_profile(
    profile: LocationProfile,
    slot_index: int,
    k: int,
    cell_size: float,
    prev_cell: CellId | None = None,
) -> list[tuple[float, float]]:
    """Ranked candidate positions: centers of the profile's top-k cells."""
    cells = top_k(profile, slot_index, k, prev_cell=prev_cell)
    return [cell_center(c, cell_size) for c in cells]


def _round_trip(
    topology: Topology,
    src: int,
    position: tuple[float, float],
    acceptance_radius: float,
) -> tuple[bool, int, int]:
    """Forward to a position and, if reached, respond back to src.

    Returns (reached, reached_node, transmissions). A failed forward leg
    charges only its own hops; a response leg is charged even if it fails.
    """
    ttl = _leg_ttl(topology)
    fwd = gpsr_route(topology, src, position, acceptance_radius, ttl=ttl)
    hops = fwd.hops
    if not fwd.success:
        return False, fwd.path[-1], hops
    reached = fwd.path[-1]
    resp = gpsr_route(topology, reached, topology.position(src), 0.0, ttl=ttl)
    return True, reached, hops + resp.hops


def lpr_deliver(
    topology: Topology,
    src: int,
    candidate_positions: list[tuple[float, float]],
    grouping: Grouping,
    *,
    true_position: tuple[float, float],
    acceptance_radius: float,
) -> DeliveryOutcome:
    """Stage-by-stage delivery to ranked candidate positions.

    Stage i sends one copy to each of its candidates in parallel; all
    copies of an attempted stage are charged (round trip on reaching the
    candidate area, forward hops only otherwise). The first stage in
    which some reached node lies within acceptance_radius of
    true_position ends the delivery with latency factor equal to that
    stage's 1-based index; if no stage hits, the latency factor is the
    number of stages.
    """
    if len(candidate_positions) < grouping.k:
        raise ValueError(
            f"need {grouping.k} candidate positions, got {len(candidate_positions)}"
        )
    transmissions = 0
    rank = 0
    for stage_index, size in enumerate(grouping.sizes, start=1):
        hit = False
        for _ in range(size):
            pos = candidate_positions[rank]
            rank += 1
            reached_ok, reached, cost = _round_trip(
                topology, src, pos, acceptance_radius
            )
            transmissions += cost
            if reached_ok and topology.distance_to(reached, true_position) <= (
                acceptance_radius
            ):
                hit = True
        if hit:
            return DeliveryOutcome(True, float(stage_index), transmissions)
    return DeliveryOutcome(False, float(len(grouping.sizes)), transmissions)


def hashed_home_index(target_id: object, n: int) -> int:
    """Deterministic hash of a target id to an index in range(n).

    The scenario indexes its eligible cells with it, so home centers lie
    on the same cell-center lattice that data packets are addressed to
    and lookup legs and data legs are identically distributed.
    """
    digest = hashlib.sha256(str(target_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n


def ghls_update(
    topology: Topology,
    src: int,
    home_position: tuple[float, float],
    acceptance_radius: float,
) -> int:
    """One-way location update from src into the home region; returns hops."""
    route = gpsr_route(
        topology,
        src,
        home_position,
        acceptance_radius,
        ttl=_leg_ttl(topology),
    )
    return route.hops


def ghls_deliver(
    topology: Topology,
    src: int,
    home_position: tuple[float, float],
    *,
    true_position: tuple[float, float],
    acceptance_radius: float,
) -> DeliveryOutcome:
    """Query the home region, then send data to the target's position.

    Both legs are round trips; the data leg runs only if the query reached
    the home region. The latency factor is 2.0 (lookup plus data)
    regardless of outcome.
    """
    reached_ok, _, transmissions = _round_trip(
        topology, src, home_position, acceptance_radius
    )
    if not reached_ok:
        return DeliveryOutcome(False, 2.0, transmissions)
    reached_ok, reached, cost = _round_trip(
        topology, src, true_position, acceptance_radius
    )
    transmissions += cost
    hit = reached_ok and topology.distance_to(reached, true_position) <= (
        acceptance_radius
    )
    return DeliveryOutcome(hit, 2.0, transmissions)

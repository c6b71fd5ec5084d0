"""Static-snapshot MANET simulator.

Unit-disk topologies with Gabriel planarization, greedy/perimeter
geographic forwarding, a hashed-home-region location service baseline,
profile-driven first-packet delivery, and scenario orchestration with
reproducible metrics.
"""

from .topology import Topology, build_topology, topology_from_positions
from .gpsr import RouteResult, gpsr_route
from .delivery import DeliveryOutcome, lpr_deliver
from .scenario import (
    GhlsComparison,
    MetricsRecord,
    ScenarioConfig,
    TrialRow,
    compare_ghls,
    load_scenario,
    run_scenario,
)

__all__ = [
    "Topology",
    "build_topology",
    "topology_from_positions",
    "RouteResult",
    "gpsr_route",
    "DeliveryOutcome",
    "lpr_deliver",
    "GhlsComparison",
    "MetricsRecord",
    "ScenarioConfig",
    "TrialRow",
    "compare_ghls",
    "load_scenario",
    "run_scenario",
]

"""Static-snapshot MANET simulator.

Unit-disk topologies with Gabriel planarization (topology), greedy and
perimeter geographic forwarding (gpsr), hashed home-region and
profile-driven first-packet delivery (delivery), and scenario
orchestration with reproducible metrics (scenario), which draws its
trials, probes and layouts through lprlab.streams. Each name is imported
from its module; the package itself binds none.
"""

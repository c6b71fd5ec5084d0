"""Static-snapshot MANET simulator.

Unit-disk topologies with Gabriel planarization (topology), greedy and
perimeter geographic forwarding (gpsr), hashed home-region and
profile-driven first-packet delivery (delivery), per-trial random
streams (streams), and scenario orchestration with reproducible metrics
(scenario). Each name is imported from its module; the package itself
binds none.
"""

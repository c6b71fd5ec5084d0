"""Calibration loop: a fixed piece of work that times the machine, not lprlab.

    python3 benchmarks/calibrate.py

run.py runs this as a fresh interpreter before the first timed job and
after each one, and divides each job's times by the mean of the two loops
around it (see `Job.scale` in run.py). The loop never changes with
lprlab, so the quotient moves only when lprlab's own work does, while a
machine whose speed drifts over seconds or minutes moves both alike. Its
mix is the one lprlab spends its time on: interpreter start and the
numpy import, scalar reads from a numpy array into `math.hypot`, dict and
list work, and a few small array operations.
"""

from __future__ import annotations

import math

import numpy as np

NODES = 280
ROUNDS = 6000


def main() -> float:
    rng = np.random.default_rng(0)
    positions = rng.uniform(0.0, 2500.0, size=(NODES, 2))
    nearest: dict[int, int] = {}
    total = 0.0
    for step in range(ROUNDS):
        x0 = float(positions[step % NODES, 0])
        y0 = float(positions[(7 * step) % NODES, 1])
        best, best_d = -1, math.inf
        for u in range(0, NODES, 3):
            d = math.hypot(float(positions[u, 0]) - x0, float(positions[u, 1]) - y0)
            if d < best_d:
                best, best_d = u, d
        nearest[step % 997] = best
        total += best_d
        if step % 50 == 0:
            total += float(np.hypot(positions[:, 0] - x0, positions[:, 1] - y0).min())
    return total + sum(sorted(nearest.values()))


if __name__ == "__main__":
    main()

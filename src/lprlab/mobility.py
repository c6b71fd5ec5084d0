"""Synthetic human-mobility traces with calibrated marginal statistics.

The generator reproduces three empirical regularities: the hour-of-week
top-location regularity R(t), the ranked-location success model behind the
closed-form curves, and a floor of unpredictable visits (uniform random
cells, UNPREDICTABLE_FLOOR = 7% of hours). Each user gets HOME_CELLS = 40
home cells in a random rank order; each hour the user either wanders
(floor mass) or occupies one of its home cells with rank masses drawn
from the same sequential first-hit family the analytic module
integrates, scaled by 1/(1 - floor) so the top-1 mass is R(t). Both are
constants, as is the grid: MobilityParams sets only the population, the
length and the seed. Success-after-k on generated traces therefore
follows the closed-form F(k; R(t)) only in hours where
F(k; R(t)) <= 1 - floor; in the other hours the rank CDF is capped at 1
and home-cell coverage stops at 1 - floor. At k = 12 that cap binds in
63 of the 168 hours, and the exact expected top-12 coverage is 0.902
against 0.9155 for the time-averaged F(12). The rank masses are a
modeling choice, since only the marginals are specified by the models
being matched.

Also here: empirical measurement of regularity and of success-after-k on
arbitrary traces, used to validate generated data against the models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import HOURS_PER_WEEK, hourly_regularity, sequential_hit_pmf
from .profile import ObservationTrace, build_profile

__all__ = [
    "GRID_SIDE",
    "HOME_CELLS",
    "UNPREDICTABLE_FLOOR",
    "MobilityParams",
    "generate_trace",
    "empirical_regularity",
    "empirical_success_after_k",
]

# Traces are drawn on a GRID_SIDE x GRID_SIDE grid of cells, with cell
# (x, y) at flat index y * GRID_SIDE + x.
GRID_SIDE = 50
_GRID_CELLS = GRID_SIDE * GRID_SIDE
# Home cells per user (k <= 12 is far from truncation), and the share of
# hours a user wanders to a uniform random cell instead.
HOME_CELLS = 40
UNPREDICTABLE_FLOOR = 0.07


@dataclass(frozen=True)
class MobilityParams:
    n_users: int = 40
    n_weeks: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.n_weeks < 1:
            raise ValueError(f"n_weeks must be >= 1, got {self.n_weeks}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _slot_rank_cdf() -> np.ndarray:
    """Cumulative conditional rank masses, one row per hour of week.

    Row t holds the within-home-branch CDF over ranks 1..HOME_CELLS for
    hour t. The raw first-hit masses are taken at the floor-adjusted
    regularity and scaled up by 1/(1 - floor) so that the unconditional
    top-1 mass lands exactly on R(t); the running sum is capped at 1, and
    the last rank takes whatever mass is left, so each row is a proper
    distribution. Unconditional mass on the top k ranks is therefore
    min(F(k; r), 1 - floor), not F(k; r): it matches the closed-form
    curve only where F(k; r) <= 1 - floor.
    """
    floor = UNPREDICTABLE_FLOOR
    floor_per_cell = floor / _GRID_CELLS
    table = np.empty((HOURS_PER_WEEK, HOME_CELLS))
    for t, r in enumerate(hourly_regularity()):
        # Inside [0.528, 0.881] for every hour.
        masses = np.array(sequential_hit_pmf(r - floor_per_cell, HOME_CELLS)) / (1.0 - floor)
        cum = np.minimum(np.cumsum(masses), 1.0)
        cum[-1] = 1.0
        table[t] = cum
    return table


def generate_trace(params: MobilityParams) -> list[ObservationTrace]:
    """One trace per user, hourly observations over n_weeks.

    Deterministic for a given params.seed, and per-user streams are split
    from the seed independently, so any parallel or reordered execution
    yields identical traces.
    """
    n_slots = params.n_weeks * HOURS_PER_WEEK
    rank_cdf = _slot_rank_cdf()
    sow = np.arange(n_slots, dtype=np.int64) % HOURS_PER_WEEK
    slot_cdf = rank_cdf[sow]  # (n_slots, N)

    traces = []
    for user in range(params.n_users):
        rng = np.random.default_rng([params.seed, user])
        home_flat = rng.choice(_GRID_CELLS, size=HOME_CELLS, replace=False)
        branch = rng.random(n_slots)
        rank_u = rng.random(n_slots)
        wander_flat = rng.integers(0, _GRID_CELLS, size=n_slots)

        ranks = (rank_u[:, None] >= slot_cdf).sum(axis=1)  # 0-based rank index
        flat = home_flat[ranks]
        unpredictable = branch < UNPREDICTABLE_FLOOR
        flat = np.where(unpredictable, wander_flat, flat)

        cells = np.column_stack([flat % GRID_SIDE, flat // GRID_SIDE]).astype(np.int32)
        traces.append(
            ObservationTrace(f"u{user:04d}", np.arange(n_slots, dtype=np.int64), cells)
        )
    return traces


def empirical_regularity(traces: list[ObservationTrace]) -> np.ndarray:
    """Fraction of observations at the user's modal cell, per hour of week.

    Hours with no observations at all come back as NaN.
    """
    if not traces:
        raise ValueError("need at least one trace")
    hits = np.zeros(HOURS_PER_WEEK, dtype=np.int64)
    totals = np.zeros(HOURS_PER_WEEK, dtype=np.int64)
    for trace in traces:
        profile = build_profile(trace, order=1)
        for key, rows in profile.contexts.items():
            if key:  # an hour of week, whose first row counts its modal cell
                hits[key[0]] += int(profile.counts[rows.start])
        totals += np.bincount(trace.slots % HOURS_PER_WEEK, minlength=HOURS_PER_WEEK)
    with np.errstate(invalid="ignore"):
        return np.where(totals > 0, hits / np.maximum(totals, 1), np.nan)


def empirical_success_after_k(traces: list[ObservationTrace], k: int) -> float:
    """Held-out success rate of top-k prediction from per-user profiles.

    The first half of each trace trains an order-1 profile; the second
    half is scored: an observation counts as a hit when its cell is among
    the profile's top k for that hour of week, or the marginal's top k
    for an hour with no training data, as `top_k` falls back.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not traces:
        raise ValueError("need at least one trace")
    hits = total = 0
    for trace in traces:
        split = len(trace) // 2
        if split == 0:
            continue
        train = ObservationTrace(trace.node_id, trace.slots[:split], trace.cells[:split])
        profile = build_profile(train, order=1)
        marginal = profile.contexts[()]
        hours = [profile.contexts.get((hour,), marginal) for hour in range(HOURS_PER_WEEK)]
        starts, ends = np.array([(rows.start, rows.stop) for rows in hours]).T
        # Each hour's first k rows, as one int64 per (x, y) cell.
        rows = starts[:, None] + np.arange(min(k, (ends - starts).max()))
        top = profile.cells.view(np.int64).ravel()[np.minimum(rows, len(profile.cells) - 1)]
        hour = trace.slots[split:] % HOURS_PER_WEEK
        cell = np.ascontiguousarray(trace.cells[split:]).view(np.int64)
        hit = (top[hour] == cell) & (rows < ends[:, None])[hour]
        hits += int(np.count_nonzero(hit.any(axis=1)))
        total += len(trace) - split
    if total == 0:
        raise ValueError("traces too short to split into train and test halves")
    return hits / total

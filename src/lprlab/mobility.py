"""Synthetic human-mobility traces with calibrated marginal statistics.

The generator reproduces three empirical regularities: the hour-of-week
top-location regularity R(t), the ranked-location success model behind the
closed-form curves, and a floor of unpredictable visits (uniform random
cells, 7% by default). Each user gets N home cells in a random rank order;
each hour the user either wanders (floor mass) or occupies one of its home
cells with rank masses drawn from the same sequential first-hit family the
analytic module integrates, scaled by 1/(1 - floor) so the top-1 mass is
R(t). Success-after-k on generated traces therefore follows the
closed-form F(k; R(t)) only in hours where F(k; R(t)) <= 1 - floor; in the
other hours the rank CDF is capped at 1 and home-cell coverage stops at
1 - floor. At the default 7% floor and k = 12 that cap binds in 63 of the
168 hours, and the exact expected top-12 coverage is 0.902 against 0.9155
for the time-averaged F(12). The rank masses are a modeling choice, since
only the marginals are specified by the models being matched.

Also here: empirical measurement of regularity and of success-after-k on
arbitrary traces, used to validate generated data against the models.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .analytic import HOURS_PER_WEEK, RegularityModel, regularity, sequential_hit_pmf
from .profile import ObservationTrace, _cell_ranks

__all__ = [
    "CellGrid",
    "MobilityParams",
    "generate_trace",
    "empirical_regularity",
    "empirical_success_after_k",
]

logger = logging.getLogger(__name__)

_MIN_REGULARITY = 1e-9


@dataclass(frozen=True)
class CellGrid:
    """Rectangular cell grid; cell_size is meters per cell edge."""

    width: int = 50
    height: int = 50
    cell_size: float = 1000.0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.width}x{self.height}")
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")

    @property
    def n_cells(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class MobilityParams:
    n_users: int = 40
    n_weeks: int = 6
    n_locations: int = 40  # home cells per user; k <= 12 is far from truncation
    regularity_model: RegularityModel = field(default_factory=RegularityModel)
    unpredictable_floor: float = 0.07
    grid: CellGrid = field(default_factory=CellGrid)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.n_weeks < 1:
            raise ValueError(f"n_weeks must be >= 1, got {self.n_weeks}")
        if self.n_locations < 2:
            raise ValueError(f"n_locations must be >= 2, got {self.n_locations}")
        if not 0.0 <= self.unpredictable_floor <= 0.3:
            raise ValueError(
                f"unpredictable_floor must be in [0, 0.3], got {self.unpredictable_floor}"
            )
        if self.n_locations > self.grid.n_cells:
            raise ValueError("n_locations exceeds grid cell count")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _slot_rank_cdf(params: MobilityParams) -> np.ndarray:
    """Cumulative conditional rank masses, one row per hour of week.

    Row t holds the within-home-branch CDF over ranks 1..N for hour t. The
    raw first-hit masses are taken at the floor-adjusted regularity and
    scaled up by 1/(1 - floor) so that the unconditional top-1 mass lands
    exactly on R(t); the running sum is capped at 1 and any remainder
    (small floors only) is pushed onto the last rank so each row is a
    proper distribution. Unconditional mass on the top k ranks is
    therefore min(F(k; r), 1 - floor), not F(k; r): it matches the
    closed-form curve only where F(k; r) <= 1 - floor.
    """
    n = params.n_locations
    floor = params.unpredictable_floor
    floor_per_cell = floor / params.grid.n_cells
    table = np.empty((HOURS_PER_WEEK, n))
    clamped = 0
    for t in range(HOURS_PER_WEEK):
        r = regularity(t + 0.5, params.regularity_model) - floor_per_cell
        if not _MIN_REGULARITY <= r <= 1.0 - _MIN_REGULARITY:
            clamped += 1
            r = min(max(r, _MIN_REGULARITY), 1.0 - _MIN_REGULARITY)
        masses = np.array(sequential_hit_pmf(r, n))
        if floor < 1.0:
            masses /= 1.0 - floor
        cum = np.minimum(np.cumsum(masses), 1.0)
        cum[-1] = 1.0
        table[t] = cum
    if clamped:
        logger.warning(
            "regularity target out of (0, 1) for %d hours; clamped", clamped
        )
    return table


def generate_trace(params: MobilityParams) -> list[ObservationTrace]:
    """One trace per user, hourly observations over n_weeks.

    Deterministic for a given params.seed, and per-user streams are split
    from the seed independently, so any parallel or reordered execution
    yields identical traces.
    """
    grid = params.grid
    n_slots = params.n_weeks * HOURS_PER_WEEK
    rank_cdf = _slot_rank_cdf(params)
    sow = np.arange(n_slots, dtype=np.int64) % HOURS_PER_WEEK
    slot_cdf = rank_cdf[sow]  # (n_slots, N)

    traces = []
    for user in range(params.n_users):
        rng = np.random.default_rng([params.seed, user])
        home_flat = rng.choice(grid.n_cells, size=params.n_locations, replace=False)
        branch = rng.random(n_slots)
        rank_u = rng.random(n_slots)
        wander_flat = rng.integers(0, grid.n_cells, size=n_slots)

        ranks = (rank_u[:, None] >= slot_cdf).sum(axis=1)  # 0-based rank index
        flat = home_flat[ranks]
        unpredictable = branch < params.unpredictable_floor
        flat = np.where(unpredictable, wander_flat, flat)

        cells = np.column_stack([flat % grid.width, flat // grid.width]).astype(
            np.int32
        )
        traces.append(
            ObservationTrace(f"u{user:04d}", np.arange(n_slots, dtype=np.int64), cells)
        )
    return traces


def _modal_hits_per_slot(trace: ObservationTrace) -> tuple[np.ndarray, np.ndarray]:
    """Per hour of week: observations at this user's modal cell of that
    hour, and all observations."""
    cells, cell = _cell_ranks(trace.cells)
    n_cells = len(cells)
    sow = trace.slots % HOURS_PER_WEEK
    keys, counts = np.unique(sow * n_cells + cell, return_counts=True)
    hits = np.zeros(HOURS_PER_WEEK, dtype=np.int64)
    np.maximum.at(hits, keys // n_cells, counts)  # modal cell count per hour
    return hits, np.bincount(sow, minlength=HOURS_PER_WEEK)


def empirical_regularity(traces: list[ObservationTrace]) -> np.ndarray:
    """Fraction of observations at the user's modal cell, per hour of week.

    Hours with no observations at all come back as NaN.
    """
    if not traces:
        raise ValueError("need at least one trace")
    hits = np.zeros(HOURS_PER_WEEK, dtype=np.int64)
    totals = np.zeros(HOURS_PER_WEEK, dtype=np.int64)
    for trace in traces:
        h, t = _modal_hits_per_slot(trace)
        hits += h
        totals += t
    with np.errstate(invalid="ignore"):
        return np.where(totals > 0, hits / np.maximum(totals, 1), np.nan)


def empirical_success_after_k(traces: list[ObservationTrace], k: int) -> float:
    """Held-out success rate of top-k prediction from per-user profiles.

    The first half of each trace trains an order-1 profile; the second
    half is scored: an observation counts as a hit when its cell is among
    the profile's top k for that hour of week.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not traces:
        raise ValueError("need at least one trace")
    hits = 0
    total = 0
    for trace in traces:
        split = len(trace) // 2
        if split == 0:
            continue
        hits += _held_out_hits(trace, split, k)
        total += len(trace) - split
    if total == 0:
        raise ValueError("traces too short to split into train and test halves")
    return hits / total


def _held_out_hits(trace: ObservationTrace, split: int, k: int) -> int:
    """Observations from split on whose cell is in the top k of an order-1
    profile of the records before split.

    The top k of an hour of week rank its training cells by count, then by
    (x, y); an hour with no training data falls back to the marginal, as
    `top_k` does.
    """
    cells, cell = _cell_ranks(trace.cells)  # cell indices follow (x, y) order
    n_cells = len(cells)
    sow = trace.slots % HOURS_PER_WEEK
    train_sow, test_sow = sow[:split], sow[split:]
    train_cell, test_cell = cell[:split], cell[split:]

    keys, counts = np.unique(train_sow * n_cells + train_cell, return_counts=True)
    key_sow = keys // n_cells
    order = np.lexsort((keys, -counts, key_sow))
    # Rank of each entry within its hour of week; entries of an hour are
    # contiguous in `order` because the hour is the primary sort key.
    ranked_sow = key_sow[order]
    first = np.searchsorted(ranked_sow, ranked_sow)
    top_keys = np.sort(keys[order][np.arange(len(order)) - first < k])

    marginal, marginal_counts = np.unique(train_cell, return_counts=True)
    marginal_top = np.zeros(n_cells, dtype=bool)
    marginal_top[marginal[np.lexsort((marginal, -marginal_counts))[:k]]] = True

    test_keys = test_sow * n_cells + test_cell
    at = np.minimum(np.searchsorted(top_keys, test_keys), len(top_keys) - 1)
    in_slot_top = top_keys[at] == test_keys
    trained = np.bincount(train_sow, minlength=HOURS_PER_WEEK) > 0
    hit = np.where(trained[test_sow], in_slot_top, marginal_top[test_cell])
    return int(np.count_nonzero(hit))

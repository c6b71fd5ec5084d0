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

User u's draws are exactly those of np.random.default_rng([seed, u]),
made for a batch of users at once by streams.Streams, so generating a
trace never imports numpy.random.

Also here: empirical measurement of regularity and of success-after-k on
arbitrary traces, used to validate generated data against the models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import HOURS_PER_WEEK, hourly_regularity, sequential_hit_pmf
from .profile import ObservationTrace, build_profile
from .streams import Streams

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
# generate_trace peaks at about _SLOT_BYTES = 56 bytes an hour slot of a
# batch (the traces it keeps, its draws and the (slots, HOME_CELLS) bool
# rank comparison; 71.9 MiB under tracemalloc for one user at 8,000
# weeks), so _MAX_WEEKS keeps that under 0.1 GiB (56 * 168 * 8,000 =
# 75,264,000). Users draw in lockstep batches of at most
# _TRACE_BATCH_BYTES of those slots, and at least one user. A trace keeps
# 16 bytes an hour, 2,688 a user-week, so _MAX_USER_WEEKS keeps the traces
# near 0.5 GiB (2,688 * 200,000 = 537,600,000).
_SLOT_BYTES = 56
_TRACE_BATCH_BYTES = 1 << 22
_MAX_WEEKS = 8_000
_MAX_USER_WEEKS = 200_000
# A user's stream is seeded [seed, user], and a seed is one 32-bit
# SeedSequence word, as the user is.
_MAX_SEED = 2**32 - 1


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
        if self.n_weeks > _MAX_WEEKS:
            raise ValueError(f"n_weeks = {self.n_weeks} is above {_MAX_WEEKS}: the generator "
                             f"peaks at about {_SLOT_BYTES} bytes an hour slot")
        if self.n_users * self.n_weeks > _MAX_USER_WEEKS:
            raise ValueError(f"n_users * n_weeks = {self.n_users} * {self.n_weeks} is above "
                             f"{_MAX_USER_WEEKS}: a trace keeps 2,688 bytes a user-week")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.seed > _MAX_SEED:
            raise ValueError(f"seed = {self.seed} is above {_MAX_SEED}: a user's stream "
                             f"takes the seed as one 32-bit word")


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


def _batch_traces(seed: int, users: range, n_slots: int,
                  rank_cdf: np.ndarray) -> list[ObservationTrace]:
    """The traces of a lockstep batch of users. Each user's stream draws
    its home cells by choice, then random(slots) for the wander branch
    and for the home rank, then integers(cells, size=slots) for the
    wander cells; the ranks are taken before the wander cells are drawn,
    so the bool rank comparison never coexists with them."""
    streams = Streams(seed, None, users)
    home_flat = streams.choice(_GRID_CELLS, HOME_CELLS)
    branch = streams.random(n_slots)
    # 0-based rank index, each slot against its hour of week's row
    ranks = (streams.random(n_slots).reshape(-1, HOURS_PER_WEEK, 1) >= rank_cdf).sum(axis=2)
    flat = np.take_along_axis(home_flat, ranks.reshape(branch.shape), axis=1)
    del ranks
    unpredictable = branch < UNPREDICTABLE_FLOOR
    flat[unpredictable] = streams.integers(_GRID_CELLS, size=n_slots)[unpredictable]
    return [
        ObservationTrace(
            f"u{user:04d}", np.arange(n_slots, dtype=np.int64),
            np.column_stack([row % GRID_SIDE, row // GRID_SIDE]),
        )
        for user, row in zip(users, flat)
    ]


def generate_trace(params: MobilityParams) -> list[ObservationTrace]:
    """One trace per user, hourly observations over n_weeks.

    Deterministic for a given params.seed: user u draws exactly what
    np.random.default_rng([seed, u]) would, through streams.Streams in
    lockstep batches of users, so any batch split or population yields
    identical traces per user.
    """
    n_slots = params.n_weeks * HOURS_PER_WEEK
    rank_cdf = _slot_rank_cdf()  # (HOURS_PER_WEEK, HOME_CELLS)
    batch = max(1, _TRACE_BATCH_BYTES // (_SLOT_BYTES * n_slots))
    traces = []
    for start in range(0, params.n_users, batch):
        users = range(start, min(start + batch, params.n_users))
        traces += _batch_traces(params.seed, users, n_slots, rank_cdf)
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
        # The marginal, then each hour of week, whose first row counts its modal cell.
        hits[profile.keys[1:, 1]] += profile.counts[profile.ends[:-1]].astype(np.int64)
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
        # Each hour of week's context, or else the marginal, context 0.
        hours = np.zeros(HOURS_PER_WEEK, np.intp)
        hours[profile.keys[1:, 1]] = np.arange(1, len(profile.keys))
        starts, ends = np.append(0, profile.ends)[hours], profile.ends[hours]
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

"""Randomized delivery scenarios and their aggregate metrics.

A scenario draws, per trial, a source node on one layout of a small
pre-built pool (layout i mod pool_size for trial i), an hour of the
week, a ranked list of candidate cells, and the target's true cell. The
true cell equals the rank-i candidate with the probability that rank i
is the first hit under the time-of-day regularity model; with the
leftover probability the target is in a uniform non-candidate cell. A
configured strategy then attempts delivery, and an oracle route to the
true cell records whether the target was reachable at all.

Trials are independent and fully determined by (config, trial index), so
any split of the indices over run_trials calls merges cleanly. A run
builds its pool once, as one graph with the layouts as its components
(build_pool), and its traffic is normalized by one baseline round trip
per run, measured on an independent stream: one copy sent to a uniform
random cell. Layout attempt a lays out exactly what
build_topology(seed=[seed, 101, a]) would, but streams.Streams draws
the attempts in lockstep batches, so a run never imports numpy.random.

run_trials computes a batch of trials as a fixed sequence of waves, each
routing all of its legs in one gpsr.route_legs call on that graph:
1. every trial draws its randomness from its own stream (the ghls
   updater included), since no routing consumes any: trial i's stream
   is the one seeded [seed, 7, i], and streams.Streams makes each draw
   of all of a batch's streams at once, as array arithmetic;
2. the oracle legs, plus their responses for the oracle strategy;
3. lpr: for each stage while some trial is open, the forward copies,
   the responses of the copies that arrived, and the hit check;
4. ghls: the query round trips, the data round trips, the updates.
The baseline probes likewise draw first, then run one forward wave and
one response wave.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..analytic import (
    HOURS_PER_WEEK,
    Grouping,
    ghls_breakeven,
    hourly_regularity,
    mean_traffic,
    sequential_hit_pmf,
)
from ..streams import Streams
from .delivery import ghls_waves, hashed_home_index, lpr_waves, round_trips
from .gpsr import _leg_ttl, route_legs
from .topology import Topology, _disjoint_union, _planarized

__all__ = [
    "GhlsComparison",
    "MetricsRecord",
    "ScenarioConfig",
    "TrialRow",
    "aggregate",
    "build_pool",
    "compare_ghls",
    "load_scenario",
    "measure_baseline",
    "run_scenario",
    "run_trials",
]

_STRATEGIES = ("lpr", "oracle", "ghls")
_BASELINE_TRIALS = 2000
# The update-to-request ratios compare_ghls tabulates; its crossover is
# exact, so these only pick sample points on its two straight lines.
_F_OVER_R = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
# A layout attempt holds two (n, n) float64 arrays of per-axis offsets,
# so this bound keeps it within a few tens of MiB.
_MAX_NODES = 2048
# The trial draws copy numpy's choice, which may leave Floyd's algorithm
# above 10000 cells; this bound keeps the eligible cells at 99**2 = 9801.
_MAX_GRID_CELLS = 101
# A run holds about 0.55 KiB (563 bytes) per trial at a dozen candidates,
# so this bound keeps it near 0.52 GiB. Its (trials, n_candidates) int32
# candidate table grows with both keys, so it is held to that same budget
# on its own: 4 * trials * n_candidates <= 563 * _MAX_TRIALS bytes, at most
# 140,750,000 cells (1,000,000 trials of 140 candidates, or 14,362 trials
# of the 9,800 that grid_cells = 101 allows).
_MAX_TRIALS = 1_000_000
_MAX_CANDIDATE_CELLS = 563 * _MAX_TRIALS // 4
# Layouts build_pool draws before it gives up on finding pool connected ones.
_LAYOUT_ATTEMPTS = 10000
# A lockstep batch of layout draws costs about the same for 1 to a few
# hundred attempts (at n = 280: 12.6 ms for 10, 15.2 ms for 234), so
# batches double from pool_size; this caps a batch's (attempts, 2n)
# float64 draws near 1 MiB.
_LAYOUT_BATCH_BYTES = 2**20
# Candidate, wander, home, and baseline cells stay this many cells away
# from the field edge; boundary cells often have no node within the
# acceptance radius, and those failed legs cost face tours.
_CELL_MARGIN = 1
# Stream tags: trial i draws from the stream seeded [seed, 7, i],
# baseline probe b from [seed, 13, b], and layout attempt a from
# [seed, 101, a].
_TRIAL_TAG = 7
_BASELINE_TAG = 13
_LAYOUT_TAG = 101
# A seed is one 32-bit SeedSequence word, as the tag and index are.
_MAX_SEED = 2**32 - 1


@dataclass(frozen=True)
class ScenarioConfig:
    n: int = 280
    field_size: float = 2500.0
    radio_range: float = 400.0
    pool_size: int = 10
    grid_cells: int = 12
    trials: int = 1000
    n_candidates: int = 12
    strategy: str = "lpr"
    grouping: Grouping | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"[topology] n = {self.n} must be at least 2")
        if self.n > _MAX_NODES:
            raise ValueError(
                f"[topology] n = {self.n} is above {_MAX_NODES}: each layout "
                f"attempt holds two (n, n) arrays of per-axis offsets, 16*n**2 bytes"
            )
        # Chained comparisons also reject nan and inf: a non-finite size
        # fails every layout attempt.
        for key, size in (("field_size", self.field_size), ("radio_range", self.radio_range)):
            if not 0 < size < math.inf:
                raise ValueError(f"[topology] {key} = {size} must be positive and finite")
        if self.pool_size < 1:
            raise ValueError(f"[topology] pool = {self.pool_size} must be at least 1")
        if self.pool_size > _LAYOUT_ATTEMPTS:
            raise ValueError(f"[topology] pool = {self.pool_size} is above "
                             f"{_LAYOUT_ATTEMPTS}, the layout attempts build_pool makes")
        if self.grid_cells < 2 * _CELL_MARGIN + 2:
            raise ValueError(f"[topology] grid_cells = {self.grid_cells} must be at least "
                             f"{2 * _CELL_MARGIN + 2}, leaving an eligible non-candidate cell")
        if self.grid_cells > _MAX_GRID_CELLS:
            raise ValueError(
                f"[topology] grid_cells = {self.grid_cells} is above {_MAX_GRID_CELLS}: "
                f"the bound keeps the (grid_cells - 2)**2 eligible cells under 10000, above "
                f"which numpy's choice, which the trial draws copy, may leave Floyd's algorithm"
            )
        if self.trials < 1:
            raise ValueError(f"[traffic] trials = {self.trials} must be at least 1")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"[traffic] trials = {self.trials} is above {_MAX_TRIALS}: "
                             f"a run holds about 0.55 KiB per trial")
        if self.seed < 0:
            raise ValueError(f"[seeds] seed = {self.seed} must be non-negative")
        if self.seed > _MAX_SEED:
            raise ValueError(f"[seeds] seed = {self.seed} is above {_MAX_SEED}: a trial "
                             f"stream seeds numpy's SeedSequence with [seed, tag, index], "
                             f"one 32-bit word each")
        n_eligible = (self.grid_cells - 2 * _CELL_MARGIN) ** 2
        if not 1 <= self.n_candidates < n_eligible:
            raise ValueError(f"[traffic] n_candidates = {self.n_candidates} must be from 1 "
                             f"to {n_eligible - 1}, leaving an eligible non-candidate cell")
        if self.trials * self.n_candidates > _MAX_CANDIDATE_CELLS:
            raise ValueError(
                f"[traffic] trials * n_candidates = {self.trials} * {self.n_candidates} is "
                f"above {_MAX_CANDIDATE_CELLS}: the trial draws hold a (trials, n_candidates) "
                f"int32 table of candidates, 4 bytes a cell"
            )
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"[strategy] kind = {self.strategy} must be one of {_STRATEGIES}")
        if self.strategy == "lpr":
            if self.grouping is None:
                raise ValueError("[strategy] kind = lpr needs [strategy] grouping")
            if self.grouping.k > self.n_candidates:
                raise ValueError(f"[strategy] grouping = {self.grouping} covers more ranks "
                                 f"than [traffic] n_candidates = {self.n_candidates}")

    @property
    def cell_size(self) -> float:
        return self.field_size / self.grid_cells

    def places(self) -> np.ndarray:
        """(m, 2) centres of the eligible cells, those at least
        _CELL_MARGIN cells from the field edge, row by row: the cells that
        candidates, wanderers, ghls homes and baseline probes address."""
        side = (np.arange(_CELL_MARGIN, self.grid_cells - _CELL_MARGIN) + 0.5) * self.cell_size
        xs, ys = np.meshgrid(side, side)
        return np.stack([xs.ravel(), ys.ravel()], axis=1)


# Every key a scenario file may hold: (section, key) -> (ScenarioConfig
# field, converter). A key left out takes the dataclass default.
_KEYS = {
    ("topology", "n"): ("n", int),
    ("topology", "field_size"): ("field_size", float),
    ("topology", "radio_range"): ("radio_range", float),
    ("topology", "pool"): ("pool_size", int),
    ("topology", "grid_cells"): ("grid_cells", int),
    ("traffic", "trials"): ("trials", int),
    ("traffic", "n_candidates"): ("n_candidates", int),
    ("strategy", "kind"): ("strategy", lambda raw: raw.strip().lower()),
    ("strategy", "grouping"): ("grouping", Grouping.parse),
    ("seeds", "seed"): ("seed", int),
}
_REQUIRED = (
    ("topology", "n"), ("topology", "field_size"), ("topology", "radio_range"),
    ("traffic", "trials"), ("traffic", "n_candidates"), ("strategy", "kind"),
)


def load_scenario(path: str) -> ScenarioConfig:
    """Parse a scenario description from a UTF-8 INI file.

    Sections: [topology] n, field_size, radio_range, pool, grid_cells;
    [traffic] trials, n_candidates; [strategy] kind and grouping (stage
    sizes joined by '|'); [seeds] seed. Each key sets one ScenarioConfig
    field, and compare-ghls sweeps the fixed f/r of _F_OVER_R. Required:
    n, field_size, radio_range, trials, n_candidates and kind; every
    other key, when omitted, takes its ScenarioConfig default. Values are
    read as written: '%' is an ordinary character, so '%(n)s' is a bad
    value, not a reference to n. Any other key, a value its field
    refuses, and a file configparser cannot read or decode raise
    ValueError naming it.
    """
    try:
        return _parse_scenario(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"bad scenario file {path}: {exc}") from None


def _parse_scenario(path: str) -> ScenarioConfig:
    # No file can name the section "", so [DEFAULT] is an ordinary section,
    # its keys reported there instead of copied into every other one.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    if not parser.read(path, encoding="utf-8"):
        raise ValueError(f"cannot read scenario file: {path}")
    for section, _ in _REQUIRED:
        if not parser.has_section(section):
            raise ValueError(f"missing required section [{section}]")
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in _KEYS:
                raise ValueError(f"unknown option [{section}] {key}")
    for section, key in _REQUIRED:
        if not parser.has_option(section, key):
            raise ValueError(f"missing required option [{section}] {key}")

    values = {}
    for (section, key), (name, conv) in _KEYS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[name] = conv(raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return ScenarioConfig(**values)


@dataclass(frozen=True)
class TrialRow:
    index: int
    hour: int
    true_rank: int
    reachable: bool
    success: bool
    latency_factor: float
    transmissions: int
    update_hops: int = -1


@dataclass(frozen=True)
class MetricsRecord:
    n_trials: int
    n_success: int = 0
    n_reachable: int = 0
    delivery_ratio: float | None = None
    reachability: float | None = None
    ratio_vs_reachability: float | None = None
    mean_latency_factor: float | None = None
    p50_latency_factor: float | None = None
    p90_latency_factor: float | None = None
    mean_transmissions: float | None = None
    baseline_rtt: float | None = None
    traffic_factor: float | None = None
    wander_fraction: float | None = None
    mean_update_hops: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _layout_attempts(config: ScenarioConfig) -> Iterator[np.ndarray]:
    """The (n, 2) positions of each layout attempt in turn: attempt a's
    are default_rng([seed, 101, a]).random((n, 2)) * field_size, drawn in
    lockstep batches that start at pool_size attempts and double, at most
    _LAYOUT_BATCH_BYTES of draws a batch."""
    cap = max(1, _LAYOUT_BATCH_BYTES // (16 * config.n))
    start, size = 0, config.pool_size
    while start < _LAYOUT_ATTEMPTS:
        size = min(size, cap, _LAYOUT_ATTEMPTS - start)
        streams = Streams(config.seed, _LAYOUT_TAG, range(start, start + size))
        draws = streams.random(2 * config.n)
        draws *= config.field_size
        # A copy each, so a kept layout does not hold its batch's draws.
        yield from (positions.copy() for positions in draws.reshape(size, config.n, 2))
        start += size
        size *= 2


def build_pool(config: ScenarioConfig) -> Topology:
    """Deterministic pool of connected layouts for a scenario, as one
    graph: node u of layout i is node i * n + u."""

    def connected_layouts() -> Iterator[Topology]:
        for positions in _layout_attempts(config):
            # Only connected attempts are planarized.
            topo = _planarized(positions, config.radio_range, connected_only=True)
            if topo is not None:
                yield topo
        raise ValueError(
            f"no {config.pool_size} connected layouts in {_LAYOUT_ATTEMPTS} attempts at "
            f"[topology] n = {config.n}, field_size = {config.field_size:g}, "
            f"radio_range = {config.radio_range:g}"
        )

    return _disjoint_union(itertools.islice(connected_layouts(), config.pool_size))


def _layout_starts(
    config: ScenarioConfig, pool: Topology, indices: Iterable[int]
) -> np.ndarray:
    """First pool node of each index's layout, layout i mod pool_size."""
    if pool.n != config.pool_size * config.n:
        raise ValueError(f"pool has {pool.n} nodes, not the pool_size * n = "
                         f"{config.pool_size * config.n} of this scenario")
    return np.array([i % config.pool_size * config.n for i in indices], dtype=np.intp)


def run_trials(
    config: ScenarioConfig, indices: Iterable[int], pool: Topology
) -> list[TrialRow]:
    """Run the given trial indices; any disjoint split merges cleanly.

    Every trial's draws come first, each from its own stream; then the
    trials' legs run as waves (see the module docstring), which consume
    no randomness.
    """
    indices = [int(i) for i in indices]
    src = _layout_starts(config, pool, indices)
    # Candidate and true cells are positions in places().
    places = config.places()
    n_trials, nc = len(indices), config.n_candidates
    updaters = src.copy()
    draws = Streams(config.seed, _TRIAL_TAG, indices)
    src += draws.integers(config.n)
    hours = draws.integers(HOURS_PER_WEEK)
    cand = draws.choice(len(places), nc)
    u = draws.random()
    # The true cell is the first candidate whose cumulative rank mass at
    # the trial's hour exceeds u; rank 0 (a wanderer) when none does.
    cums = np.zeros((HOURS_PER_WEEK, nc))
    table = hourly_regularity()
    for hour in np.flatnonzero(np.bincount(hours, minlength=HOURS_PER_WEEK)).tolist():
        pmf = sequential_hit_pmf(table[hour], nc)
        cums[hour] = list(itertools.accumulate(pmf))
    first = (cums[hours] <= u[:, None]).sum(axis=1)
    true_pos = cand[np.arange(n_trials), np.minimum(first, nc - 1)]
    # A wanderer draws index k into the sorted non-candidate cells: its
    # position is k plus one for each candidate position at or below it.
    wander = np.flatnonzero(first == nc)
    k = draws.integers(len(places) - nc, wander)
    for taken in np.sort(cand[wander], axis=1).T:
        k += taken <= k
    true_pos[wander] = k
    if config.strategy == "ghls":
        updaters += draws.integers(config.n)
    del draws  # the draw state is not kept through the routing waves
    true_ranks = np.where(first < nc, first + 1, 0)

    true_positions = places[true_pos]
    radius = config.cell_size
    ttl = _leg_ttl(config.n)
    latency = np.ones(n_trials)
    update_hops = np.full(n_trials, -1, dtype=np.int64)
    if config.strategy == "oracle":
        reachable, _, transmissions = round_trips(pool, ttl, src, true_positions, radius)
        success = reachable
    else:
        reachable, _, _, _ = route_legs(pool, src, true_positions, radius, ttl)
        if config.strategy == "lpr":
            assert config.grouping is not None
            success, latency, transmissions = lpr_waves(
                pool, ttl, src, cand, places, config.grouping, true_positions, radius
            )
        else:
            homes = places[[hashed_home_index(i, len(places)) for i in indices]]
            latency = np.full(n_trials, 2.0)
            success, transmissions, update_hops = ghls_waves(
                pool, ttl, src, homes, true_positions, radius, updaters
            )

    return [
        TrialRow(*fields)
        for fields in zip(
            indices, hours.tolist(), true_ranks.tolist(), reachable.tolist(), success.tolist(),
            latency.tolist(), transmissions.tolist(), update_hops.tolist(),
        )
    ]


def measure_baseline(config: ScenarioConfig, pool: Topology) -> float:
    """Mean round-trip transmissions of one copy to a uniform random cell.

    Measured on an RNG stream independent of the trial stream, so the
    normalization never reuses scenario randomness. Every probe draws
    first; the round trips then run as one pair of waves.
    """
    n_probes = min(config.trials, _BASELINE_TRIALS)
    src = _layout_starts(config, pool, range(n_probes))
    places = config.places()
    probes = Streams(config.seed, _BASELINE_TAG, range(n_probes))
    src += probes.integers(config.n)
    dest = places[probes.integers(len(places))]
    del probes  # the draw state is not kept through the round trips
    _, _, cost = round_trips(pool, _leg_ttl(config.n), src, dest, config.cell_size)
    return int(cost.sum()) / n_probes


def _percentile(ordered: Sequence[float], q: float) -> float:
    """np.percentile(values, q) by its default linear method, bit for
    bit, given the values sorted; numpy's own call imports numpy.ma."""
    last = len(ordered) - 1
    virtual = last * (q / 100)
    if virtual < last:
        lo = math.floor(virtual)
        a, b = ordered[lo], ordered[lo + 1]
    else:  # numpy takes both neighbours at index -1, and gamma from it
        lo = -1
        a = b = ordered[-1]
    gamma = virtual - lo
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def aggregate(rows: Sequence[TrialRow], baseline_rtt: float) -> MetricsRecord:
    """Order-independent reduction of trial rows to summary metrics."""
    n = len(rows)
    if n == 0:
        return MetricsRecord(n_trials=0)
    n_success = sum(1 for r in rows if r.success)
    n_reachable = sum(1 for r in rows if r.reachable)
    delivery = n_success / n
    reachability = n_reachable / n
    ratio = delivery / reachability if reachability > 0 else None
    latencies = np.array([r.latency_factor for r in rows], dtype=float)
    ordered = sorted(latencies.tolist())
    mean_tx = float(np.mean([r.transmissions for r in rows]))
    traffic = mean_tx / baseline_rtt if baseline_rtt > 0 else None
    updates = [r.update_hops for r in rows if r.update_hops >= 0]
    return MetricsRecord(
        n_trials=n,
        n_success=n_success,
        n_reachable=n_reachable,
        delivery_ratio=delivery,
        reachability=reachability,
        ratio_vs_reachability=ratio,
        mean_latency_factor=float(latencies.mean()),
        p50_latency_factor=_percentile(ordered, 50),
        p90_latency_factor=_percentile(ordered, 90),
        mean_transmissions=mean_tx,
        baseline_rtt=baseline_rtt,
        traffic_factor=traffic,
        wander_fraction=sum(1 for r in rows if r.true_rank == 0) / n,
        mean_update_hops=(sum(updates) / len(updates)) if updates else None,
    )


def run_scenario(config: ScenarioConfig) -> tuple[MetricsRecord, list[TrialRow]]:
    """Summary and trial rows of one scenario run on one topology pool."""
    pool = build_pool(config)
    rows = run_trials(config, range(config.trials), pool)
    return aggregate(rows, measure_baseline(config, pool)), rows


@dataclass(frozen=True)
class GhlsComparison:
    f_over_r: tuple[float, ...]
    lpr_totals: tuple[float, ...]
    ghls_totals: tuple[float, ...]
    crossover: float | None
    analytic_crossover: float | None
    s_hat: float
    p_hat: float
    t_bar: float
    lpr_request_cost: float
    ghls_request_cost: float
    update_cost: float
    n_trials: int

    def as_dict(self) -> dict:
        return asdict(self)


def compare_ghls(config: ScenarioConfig) -> GhlsComparison:
    """Paired profile-vs-location-service traffic totals at each f/r of _F_OVER_R.

    Both strategies see identical trial draws. Totals are transmissions
    per location request with the update rate folded in: the profile
    side pays nothing per update, the service side pays one update route
    per f/r. The crossover is the f/r where the totals meet; either
    crossover is None where a zero cost leaves it undefined. Both
    strategies run on one topology pool against one baseline.
    """
    if config.grouping is None:
        raise ValueError("compare-ghls needs [strategy] grouping")
    lpr_config = replace(config, strategy="lpr")
    ghls_config = replace(config, strategy="ghls")
    pool = build_pool(config)
    baseline = measure_baseline(config, pool)
    trials = range(config.trials)
    lpr_record = aggregate(run_trials(lpr_config, trials, pool), baseline)
    ghls_record = aggregate(run_trials(ghls_config, trials, pool), baseline)
    m_lpr = lpr_record.mean_transmissions
    m_ghls = ghls_record.mean_transmissions
    m_update = ghls_record.mean_update_hops
    assert m_lpr is not None and m_ghls is not None and m_update is not None
    s_hat = m_update
    p_hat = baseline / 2.0
    t_bar = mean_traffic(config.grouping)
    crossover = (m_lpr - m_ghls) / m_update if m_update > 0 else None
    lpr_totals = tuple(m_lpr for _ in _F_OVER_R)
    ghls_totals = tuple(fr * m_update + m_ghls for fr in _F_OVER_R)
    return GhlsComparison(
        f_over_r=_F_OVER_R,
        lpr_totals=lpr_totals,
        ghls_totals=ghls_totals,
        crossover=crossover,
        analytic_crossover=(ghls_breakeven(p_hat / s_hat, t_bar)
                            if s_hat > 0 and p_hat > 0 else None),
        s_hat=s_hat,
        p_hat=p_hat,
        t_bar=t_bar,
        lpr_request_cost=m_lpr,
        ghls_request_cost=m_ghls,
        update_cost=m_update,
        n_trials=config.trials,
    )

"""Closed-form models for location-profile query success and cost.

A node's visited locations, ranked by how often they are visited, follow a
truncated Zipf law whose rank-1 mass is the node's regularity r. Querying
the top-k ranked locations one after another then succeeds with
probability F(k; r) = 1 - 1/(k * B(k, 1 - r)): the rank of the occupied
location is the first success of trials whose success probability is
Beta(r, 1 - r). `_conditional_cdf` is the one place this formula is written.

Three layers build on each other here:

- zeroth order: constant regularity, F(k; DEFAULT_C),
- time dependence: a sinusoidal hour-of-week regularity model R(t), and
  `hourly_regularity`, the week's one set of sample points: R at the 168
  hour midpoints t + 0.5, read by every hourly consumer, and checked to
  lie in (0, 1) there,
- first order: F(k; R(t)) averaged over the hour-of-week, every hour
  weighted alike, as a midpoint sum over that table, memoised per
  (k, model) so that every consumer reads the same values.

On top of the first-order CDF sit the grouping cost model (mean latency
factor and mean transmission factor of a partition of the top-k
candidates into serial stages of parallel probes, one stage sum for
both), the exact Pareto front over groupings, and the break-even
comparison against a home-server scheme that pays per-movement location
updates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

__all__ = [
    "DEFAULT_C",
    "DEFAULT_C1",
    "DEFAULT_C2",
    "DEFAULT_C3",
    "HOURS_PER_WEEK",
    "RegularityModel",
    "Grouping",
    "ParetoPoint",
    "GhlsCostModel",
    "log_beta",
    "zeroth_order_cdf",
    "zeroth_order_pmf",
    "regularity",
    "hourly_regularity",
    "first_order_cdf",
    "first_order_pmf",
    "conditional_cdf",
    "sequential_hit_pmf",
    "mean_latency",
    "mean_traffic",
    "enumerate_groupings",
    "pareto_front",
    "knee_point",
    "ghls_breakeven",
    "ghls_total_cost",
    "lpr_total_cost",
]

# Calibrated constants: rank-1 Zipf mass and the three regularity
# coefficients (two sinusoid amplitudes and the weekly mean).
DEFAULT_C = 0.48
DEFAULT_C1 = 0.148
DEFAULT_C2 = 0.077
DEFAULT_C3 = 0.657

HOURS_PER_WEEK = 168

# Largest k of enumerate_groupings (2**(k-1) compositions) and of
# pareto_front, which shares the check.
_MAX_GROUPING_K = 20

_CURVE_CACHE_SIZE = 1024  # memoised first-order values, one per (k, model)
_TABLE_CACHE_SIZE = 64  # memoised hour tables, one per model


def _check_k(k: int, lowest: int, highest: int | None = None) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if highest is not None and not lowest <= k <= highest:
        raise ValueError(f"k must be in [{lowest}, {highest}], got {k}")
    if k < lowest:
        raise ValueError(f"k must be >= {lowest}, got {k}")


def log_beta(a: float, b: float) -> float:
    """Natural log of the Beta function, via log-gamma.

    Direct gamma ratios overflow near k ~ 170; the log form is stable for
    every k this module evaluates.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"log_beta requires positive arguments, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def zeroth_order_cdf(k: int) -> float:
    """Success probability after k ranked probes at constant regularity.

    This is 1 - 1/(k * B(k, 1 - c)) at c = DEFAULT_C. k = 0 means no
    probes and returns 0.
    """
    _check_k(k, 0)
    if k == 1:
        # B(1, 1 - c) = 1/(1 - c), so the formula collapses to c; skip
        # the exp/log round trip to keep it exact.
        return DEFAULT_C
    return _conditional_cdf(k, DEFAULT_C)


def zeroth_order_pmf(k: int) -> float:
    """Probability that probe k is the first success; telescopes from the CDF."""
    _check_k(k, 1)
    return zeroth_order_cdf(k) - zeroth_order_cdf(k - 1)


@dataclass(frozen=True)
class RegularityModel:
    """Hour-of-week regularity R(t), two sinusoids plus a constant mean.

    t = 0 is Monday 00:00; the daily and half-daily periods make every day
    of the week identical.
    """

    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    c3: float = DEFAULT_C3


def regularity(t: float, model: RegularityModel | None = None) -> float:
    """R(t) for hour-of-week t in [0, 168)."""
    if model is None:
        model = RegularityModel()
    if not 0 <= t < HOURS_PER_WEEK:
        raise ValueError(f"t must be in [0, {HOURS_PER_WEEK}), got {t}")
    return (
        model.c1 * math.sin(2.0 * math.pi * t / 24.0 + 2.0 * math.pi / 8.0)
        + model.c2 * math.sin(2.0 * math.pi * t / 12.0 - 2.0 * math.pi / 24.0)
        + model.c3
    )


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def hourly_regularity(model: RegularityModel | None = None) -> tuple[float, ...]:
    """R(t + 0.5) for each hour t of the week, the midpoint of its bin;
    ValueError at the first midpoint where R leaves (0, 1)."""
    table = tuple(regularity(t + 0.5, model) for t in range(HOURS_PER_WEEK))
    for t, r in enumerate(table):
        if not 0.0 < r < 1.0:
            raise ValueError(
                f"regularity {r:.6g} at hour {t + 0.5:g}; it must lie in (0, 1)"
            )
    return table


_DEFAULT_MODEL = RegularityModel()


def _conditional_cdf(k: int, r: float) -> float:
    """Success CDF after k probes given instantaneous regularity r."""
    if k == 0:
        return 0.0
    return 1.0 - math.exp(-math.log(k) - log_beta(k, 1.0 - r))


def conditional_cdf(k: int, r: float) -> float:
    """Success probability after k probes at instantaneous regularity r."""
    _check_k(k, 0)
    if not 0 < r < 1:
        raise ValueError(f"regularity must be in (0, 1), got {r}")
    return _conditional_cdf(k, r)


def first_order_cdf(k: int, model: RegularityModel | None = None) -> float:
    """Hour-of-week averaged success probability after k ranked probes.

    Averages the conditional CDF over the hour-of-week, evaluating each of
    the 168 hourly bins at its midpoint (`hourly_regularity`) and weighting
    every bin alike. The midpoint sum is the fixed quadrature; quoted values refer
    to it rather than to the underlying integral. Each (k, model) is
    summed once; an omitted model shares the entry of the default.
    """
    _check_k(k, 0)
    return _midpoint_cdf(k, _DEFAULT_MODEL if model is None else model)


@functools.lru_cache(maxsize=_CURVE_CACHE_SIZE)
def _midpoint_cdf(k: int, model: RegularityModel) -> float:
    weight = 1.0 / HOURS_PER_WEEK
    total = 0.0
    for r in hourly_regularity(model):
        total += weight * _conditional_cdf(k, r)
    return total


def first_order_pmf(k: int, model: RegularityModel | None = None) -> float:
    """Probability that probe k is the first success, hour-of-week averaged."""
    _check_k(k, 1)
    return first_order_cdf(k, model) - first_order_cdf(k - 1, model)


def sequential_hit_pmf(r: float, n: int) -> list[float]:
    """Per-rank hit masses for n ranked candidates at regularity r.

    Element i (0-based) is the probability that the node sits at its rank
    i+1 location: the first-success mass cdf(i+1) - cdf(i). The masses sum
    to cdf(n) < 1; the remainder is the unpredictable visit mass. Shared by
    the trace generator and the simulator's target placement.
    """
    if not 0 < r < 1:
        raise ValueError(f"regularity must be in (0, 1), got {r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cdf_prev = 0.0
    masses = []
    for k in range(1, n + 1):
        cdf_k = _conditional_cdf(k, r)
        masses.append(cdf_k - cdf_prev)
        cdf_prev = cdf_k
    return masses


@dataclass(frozen=True)
class Grouping:
    """Ordered partition of the top-k candidates into serial stages.

    Stage sizes are probed left to right; all candidates inside one stage
    are probed in parallel. sizes = (k,) is fully parallel, (1,) * k is
    fully serial.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("grouping needs at least one stage")
        if any(not isinstance(s, int) or isinstance(s, bool) or s < 1 for s in self.sizes):
            raise ValueError(f"stage sizes must be positive integers, got {self.sizes}")

    @property
    def k(self) -> int:
        return sum(self.sizes)

    @classmethod
    def parse(cls, text: str) -> "Grouping":
        """Parse a '|'-separated size list, e.g. '1|2|9'."""
        try:
            sizes = tuple(int(part) for part in text.split("|"))
        except ValueError as exc:
            raise ValueError(f"bad grouping text {text!r}") from exc
        return cls(sizes)

    def __str__(self) -> str:
        return "|".join(str(s) for s in self.sizes)


def _stage_costs(
    sizes: Sequence[int], cdf: Callable[[int], float]
) -> tuple[float, float]:
    """(latency, traffic) means of stages probed left to right.

    A stage runs with probability 1 - cdf(start - 1), start being its first
    rank; it then costs one stage RTT and one probe per candidate.
    """
    lat = 0.0
    traf = 0.0
    start = 1
    for size in sizes:
        p_try = 1.0 - cdf(start - 1)
        lat += p_try
        traf += size * p_try
        start += size
    return lat, traf


def _curve(model: RegularityModel | None):
    # Calls go through the module global, so a rebound first_order_cdf sees them.
    return lambda k: first_order_cdf(k, model)


def mean_latency(grouping: Grouping, model: RegularityModel | None = None) -> float:
    """Expected number of serial stages paid, in units of one stage RTT.

    Sum over stages of the probability the stage runs. Misses pay every
    stage; the fully parallel grouping has latency factor 1.
    """
    return _stage_costs(grouping.sizes, _curve(model))[0]


def mean_traffic(grouping: Grouping, model: RegularityModel | None = None) -> float:
    """Expected number of candidate probes sent, in units of one probe.

    Sum over stages of size times the probability the stage runs. Fully
    serial sends the fewest probes, fully parallel sends all k.
    """
    return _stage_costs(grouping.sizes, _curve(model))[1]


def enumerate_groupings(k: int) -> list[Grouping]:
    """All ordered stage partitions of k, lexicographic by size tuple.

    There are 2**(k-1) of them; k is capped at _MAX_GROUPING_K.
    """
    _check_k(k, 1, _MAX_GROUPING_K)

    def compose(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in compose(remaining - first):
                yield (first, *rest)

    return [Grouping(sizes) for sizes in compose(k)]


class ParetoPoint(NamedTuple):
    grouping: Grouping
    latency: float
    traffic: float


_Label = tuple[float, float, tuple[int, ...]]  # (latency, traffic, sizes so far)


def _minimal_labels(labels: list[_Label], margin: float) -> list[_Label]:
    """Labels that no other label beats: <= on both means and lower by
    more than margin on one. Sorted by (latency, traffic), every label a
    candidate could be beaten by comes before it."""
    labels.sort(key=lambda lab: (lab[0], lab[1]))
    kept = []
    far_min = math.inf  # least traffic among labels[:j], all below lat - margin
    j = 0
    for i, (lat, traf, sizes) in enumerate(labels):
        while labels[j][0] < lat - margin:
            far_min = min(far_min, labels[j][1])
            j += 1
        if far_min <= traf:
            continue
        if any(labels[m][1] < traf - margin for m in range(j, i)):
            continue
        kept.append((lat, traf, sizes))
    return kept


def pareto_front(k: int, model: RegularityModel | None = None) -> list[ParetoPoint]:
    """Non-dominated (latency, traffic) groupings for top-k probing.

    A point is kept when no other grouping is at least as good on both
    means and strictly better on one. Sorted by latency ascending; ties
    broken by fewer stages, then lexicographic sizes. The fully parallel
    grouping (latency 1) is always present.

    Label-setting over start ranks (a bi-objective shortest path, Martins
    1984): a stage's cost depends only on its start rank and size, and
    the stage sums are added left to right as in _stage_costs, so the
    same suffix added to two partial groupings keeps their order in each
    mean. A partial grouping is dropped when another one at the same start
    rank is <= on both means and lower by more than 2 * eps on one: float
    rounding over at most _MAX_GROUPING_K stages closes that gap by far
    less than eps, so each completion of it stays dominated, and whatever
    it dominated is dominated by the completion that replaced it. The
    eps scan over the survivors is then the scan over all groupings.
    """
    _check_k(k, 1, _MAX_GROUPING_K)
    eps = 1e-12  # tolerate float noise when comparing equal means
    # One read of the memoised curve per rank.
    cdf = [first_order_cdf(i, model) for i in range(k)]
    # labels[s]: partial groupings that cover ranks 1..s-1
    labels: list[list[_Label]] = [[] for _ in range(k + 2)]
    labels[1].append((0.0, 0.0, ()))
    for start in range(1, k + 1):
        p_try = 1.0 - cdf[start - 1]
        for lat, traf, sizes in _minimal_labels(labels[start], 2 * eps):
            for size in range(1, k - start + 2):
                labels[start + size].append(
                    (lat + p_try, traf + size * p_try, (*sizes, size))
                )
    points = [
        ParetoPoint(Grouping(sizes), lat, traf)
        for lat, traf, sizes in _minimal_labels(labels[k + 1], 2 * eps)
    ]

    front = []
    for p in points:
        dominated = False
        for q in points:
            if (
                q.latency <= p.latency + eps
                and q.traffic <= p.traffic + eps
                and (q.latency < p.latency - eps or q.traffic < p.traffic - eps)
            ):
                dominated = True
                break
        if not dominated:
            front.append(p)
    front.sort(key=lambda p: (p.latency, len(p.grouping.sizes), p.grouping.sizes))
    return front


def knee_point(front: Sequence[ParetoPoint]) -> ParetoPoint:
    """Balanced point of a front: minimal sum of normalized means.

    Latency is normalized to [0, 1] over the front's own range above the
    floor of 1; traffic likewise over [1, k]. Ties prefer fewer stages,
    then lexicographic sizes.
    """
    if not front:
        raise ValueError("front is empty")
    lat_span = max(p.latency for p in front) - 1.0
    traf_span = max(p.traffic for p in front) - 1.0

    def score(p: ParetoPoint) -> tuple[float, int, tuple[int, ...]]:
        ln = (p.latency - 1.0) / lat_span if lat_span > 0 else 0.0
        tn = (p.traffic - 1.0) / traf_span if traf_span > 0 else 0.0
        return (ln + tn, len(p.grouping.sizes), p.grouping.sizes)

    return min(front, key=score)


@dataclass(frozen=True)
class GhlsCostModel:
    """Per-node cost terms for the home-server comparison.

    f: movement events per query interval (location updates sent),
    r: queries per interval,
    s: mean hop count of a one-way leg to the home server,
    p: mean hop count of a one-way leg to the target area,
    t_bar: mean transmission factor of the profile-based strategy.
    """

    f: float
    r: float
    s: float
    p: float
    t_bar: float

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.f < 0 or self.s < 0 or self.p < 0:
            raise ValueError("f, s, p must be non-negative")
        if self.t_bar < 1:
            raise ValueError(f"t_bar must be >= 1, got {self.t_bar}")


def ghls_total_cost(m: GhlsCostModel) -> float:
    """Home-server transmissions per query interval.

    f updates of s hops, plus per query a 2s round trip to the server and
    a 2p round trip to the target.
    """
    return m.f * m.s + m.r * (2.0 * m.s + 2.0 * m.p)


def lpr_total_cost(m: GhlsCostModel) -> float:
    """Profile-routing transmissions per query interval: 2p per probe."""
    return m.r * 2.0 * m.t_bar * m.p


def ghls_breakeven(p_over_s: float, t_bar: float) -> float:
    """Update-to-query ratio f/r above which the home server costs more.

    Setting the two totals equal and solving for f/r gives
    (p/s) * (2 t_bar - 2) - 2. Negative means the home server costs more
    at any update rate.
    """
    if p_over_s <= 0:
        raise ValueError(f"p_over_s must be positive, got {p_over_s}")
    if t_bar < 1:
        raise ValueError(f"t_bar must be >= 1, got {t_bar}")
    return p_over_s * (2.0 * t_bar - 2.0) - 2.0

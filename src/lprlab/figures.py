"""CSV emission for the standard model curve families.

Each family is a (header, rows) pair of plain Python values; writing is a
separate concern so callers can inspect rows without touching the
filesystem. Floats are rendered with repr-quality precision so re-running
a command reproduces byte-identical files.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from . import analytic
from .analytic import HOURS_PER_WEEK, BetaGeometricModel, RegularityModel

__all__ = [
    "success_cdf_rows",
    "time_averaged_rows",
    "first_try_pmf_rows",
    "retry_pmf_rows",
    "grouping_front_rows",
    "peak_hour",
    "trough_hour",
    "format_value",
    "write_csv",
]


def format_value(v: object) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write rows atomically: a torn write must not leave a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
    os.replace(tmp, path)


def success_cdf_rows(
    k_max: int = 50, model: BetaGeometricModel | None = None
) -> tuple[list[str], list[tuple]]:
    """Constant-regularity success probability over k."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rows = [(k, analytic.zeroth_order_cdf(k, model)) for k in range(1, k_max + 1)]
    return ["k", "success_cdf"], rows


def peak_hour(model: RegularityModel | None = None) -> int:
    """Hour-of-week bin whose midpoint regularity is highest."""
    return max(
        range(HOURS_PER_WEEK), key=lambda t: analytic.regularity(t + 0.5, model)
    )


def trough_hour(model: RegularityModel | None = None) -> int:
    """Hour-of-week bin whose midpoint regularity is lowest."""
    return min(
        range(HOURS_PER_WEEK), key=lambda t: analytic.regularity(t + 0.5, model)
    )


def time_averaged_rows(
    k_max: int = 50, model: RegularityModel | None = None
) -> tuple[list[str], list[tuple]]:
    """Hour-of-week averaged success next to the best-hour and worst-hour curves.

    The night column conditions on the regularity peak, the day column on
    the trough; both evaluate at the bin midpoint like the average itself.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    t_night = peak_hour(model) + 0.5
    t_day = trough_hour(model) + 0.5
    rows = []
    for k in range(1, k_max + 1):
        rows.append(
            (
                k,
                analytic.first_order_cdf(k, model),
                analytic.conditional_cdf_at_time(k, t_night, model),
                analytic.conditional_cdf_at_time(k, t_day, model),
            )
        )
    return ["k", "success_avg", "success_night", "success_day"], rows


def first_try_pmf_rows(
    k_max: int = 50, model: BetaGeometricModel | None = None
) -> tuple[list[str], list[tuple]]:
    """Constant-regularity first-success mass over the probe rank."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rows = [(k, analytic.zeroth_order_pmf(k, model)) for k in range(1, k_max + 1)]
    return ["k", "first_success_pmf"], rows


def retry_pmf_rows(
    k_max: int = 50, model: RegularityModel | None = None
) -> tuple[list[str], list[tuple]]:
    """Hour-of-week averaged first-success mass over the probe rank."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rows = [(k, analytic.first_order_pmf(k, model)) for k in range(1, k_max + 1)]
    return ["k", "first_success_pmf"], rows


def grouping_front_rows(
    k: int, model: RegularityModel | None = None
) -> tuple[list[str], list[tuple]]:
    """Pareto front of probe groupings: success, means, and stage sizes."""
    front = analytic.pareto_front(k, model)
    success = analytic.first_order_cdf(k, model)
    rows = [
        (success, p.latency, p.traffic, str(p.grouping))
        for p in front
    ]
    return ["success_rate", "mean_latency", "mean_traffic", "grouping"], rows

"""CSV emission for the standard model curve families.

Each family is a (header, rows) pair of plain Python values; writing is a
separate concern so callers can inspect rows without touching the
filesystem. Floats are rendered with repr-quality precision so re-running
a command reproduces byte-identical files.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from . import analytic
from .analytic import RegularityModel

__all__ = [
    "success_cdf_rows",
    "time_averaged_rows",
    "first_try_pmf_rows",
    "retry_pmf_rows",
    "grouping_front_rows",
    "format_value",
    "atomic_path",
    "write_csv",
]


def format_value(v: object) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


@contextmanager
def atomic_path(path: str) -> Iterator[str]:
    """A temporary path that replaces path when the block ends; a block that
    raises removes it and leaves path as it was."""
    tmp = f"{path}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write rows atomically: a torn write must not leave a partial file."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def _ranks(k_max: int) -> range:
    """The k column 1..k_max of the cdf and pmf families."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return range(1, k_max + 1)


def success_cdf_rows(k_max: int = 50) -> tuple[list[str], list[tuple]]:
    """Constant-regularity success probability over k."""
    rows = [(k, analytic.zeroth_order_cdf(k)) for k in _ranks(k_max)]
    return ["k", "success_cdf"], rows


def time_averaged_rows(
    k_max: int = 50, model: RegularityModel | None = None
) -> tuple[list[str], list[tuple]]:
    """Hour-of-week averaged success next to the best-hour and worst-hour curves.

    The night column conditions on the regularity peak, the day column on
    the trough, both taken from the hour table the average sums over.
    """
    table = analytic.hourly_regularity(model)
    r_night, r_day = max(table), min(table)
    rows = [
        (k, analytic.first_order_cdf(k, model),
         analytic.conditional_cdf(k, r_night), analytic.conditional_cdf(k, r_day))
        for k in _ranks(k_max)
    ]
    return ["k", "success_avg", "success_night", "success_day"], rows


def first_try_pmf_rows(k_max: int = 50) -> tuple[list[str], list[tuple]]:
    """Constant-regularity first-success mass over the probe rank."""
    rows = [(k, analytic.zeroth_order_pmf(k)) for k in _ranks(k_max)]
    return ["k", "first_success_pmf"], rows


def retry_pmf_rows(
    k_max: int = 50, model: RegularityModel | None = None
) -> tuple[list[str], list[tuple]]:
    """Hour-of-week averaged first-success mass over the probe rank."""
    rows = [(k, analytic.first_order_pmf(k, model)) for k in _ranks(k_max)]
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

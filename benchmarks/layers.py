"""Per-layer metrics of one traced job, computed from its span files.

A traced job writes `spans.jsonl` (see tracer.py): one span per line,
with its parent given as a line position, and a last `#counters` line.
A span's self time is its
duration minus the time its direct children cover. A metric whose base
is zero, such as time per GPSR leg on a workload that sends no legs, is
reported as 0.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "attrs", "child_s")

    def __init__(self, row: list) -> None:
        self.name, self.start, self.end, self.parent, self.trial, self.attrs = row
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def read_spans(job_dir: str) -> tuple[list[Span], dict[str, int]]:
    """The spans of a job with parents resolved, plus its counters."""
    spans: list[Span] = []
    with open(os.path.join(job_dir, "spans.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row[0] == "#counters":
                return spans, row[1]
            span = Span(row)
            if span.parent is not None:
                span.parent = spans[span.parent]
                span.parent.child_s += span.duration
            spans.append(span)
    raise ValueError(f"{job_dir}/spans.jsonl has no counters line")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(job_dir: str) -> dict[str, float]:
    spans, counters = read_spans(job_dir)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def count(name: str) -> int:
        return len(by_name[name])

    def total(*names: str) -> float:
        return sum(s.duration for name in names for s in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs[key] for s in by_name[name])

    m: dict[str, float] = {}

    builds = by_name["topology.build"]
    m["simnet.topology.build_s"] = total("topology.build")
    m["simnet.topology.builds"] = len(builds)
    m["simnet.topology.connected_ratio"] = _ratio(
        sum(s.attrs["connected"] for s in builds), len(builds))
    m["simnet.topology.distance_calls"] = counters["distance_calls"]

    legs = by_name["gpsr.route"]
    hops = attr_sum("gpsr.route", "hops")
    busy = sum(s.self_s for s in legs)
    m["simnet.gpsr.legs"] = len(legs)
    m["simnet.gpsr.busy_s"] = busy
    m["simnet.gpsr.us_per_leg"] = _ratio(busy * 1e6, len(legs))
    m["simnet.gpsr.hops_per_leg"] = _ratio(hops, len(legs))
    m["simnet.gpsr.perimeter_hop_ratio"] = _ratio(attr_sum("gpsr.route", "perimeter"), hops)
    m["simnet.gpsr.failed_legs"] = sum(not s.attrs["ok"] for s in legs)
    m["simnet.gpsr.dest_reuse"] = _ratio(
        len(legs), len({tuple(s.attrs["key"]) for s in legs}))

    deliveries = by_name["delivery.lpr"]
    copies = sum(
        1 for s in legs
        if s.attrs["radius"] > 0 and s.parent is not None
        and s.parent.name == "delivery.lpr"
    )
    m["simnet.delivery.self_s"] = sum(s.self_s for s in deliveries)
    m["simnet.delivery.copies"] = copies
    m["simnet.delivery.hits_per_copy"] = _ratio(
        sum(s.attrs["hits"] for s in deliveries), copies)
    m["simnet.delivery.tx_per_trial"] = _ratio(
        sum(s.attrs["tx"] for s in deliveries), len(deliveries))

    m["simnet.scenario.pool_s"] = total("scenario.build_pool")
    m["simnet.scenario.trials_s"] = total("scenario.run_trials")
    m["simnet.scenario.baseline_s"] = total("scenario.baseline")
    m["simnet.scenario.baseline_probes"] = sum(
        1 for s in legs
        if s.attrs["radius"] > 0 and s.parent is not None
        and s.parent.name == "scenario.baseline"
    )
    m["simnet.scenario.pool_builds"] = count("scenario.build_pool")

    m["cli.write_s"] = total("cli.write")

    m["analytic.cdf_evals"] = count("analytic.cdf")
    m["analytic.cdf_s"] = total("analytic.cdf")
    m["analytic.front_s"] = total("analytic.front")
    m["analytic.groupings_enumerated"] = attr_sum("analytic.enumerate", "n")
    m["analytic.cost_calls"] = count("analytic.cost")
    m["analytic.cost_s"] = total("analytic.cost")
    m["analytic.pmf_calls"] = count("analytic.pmf")

    predicts = by_name["profile.predict"]
    m["profile.build_s"] = total("profile.build")
    m["profile.records_built"] = attr_sum("profile.build", "records")
    m["profile.predict_calls"] = len(predicts)
    m["profile.predict_s"] = total("profile.top_k") + sum(
        s.duration for s in predicts
        if s.parent is None or s.parent.name != "profile.top_k")
    m["profile.context_entries"] = _ratio(attr_sum("profile.predict", "cells"), len(predicts))
    m["profile.serialize_s"] = total("profile.serialize")
    m["profile.deserialize_s"] = total("profile.deserialize")
    m["profile.bytes"] = attr_sum("profile.serialize", "bytes")
    m["profile.csv_s"] = total("profile.csv")

    m["mobility.generate_s"] = total("mobility.generate")
    m["mobility.observations"] = attr_sum("mobility.generate", "observations")
    m["mobility.regularity_s"] = total("mobility.regularity")
    m["mobility.success_s"] = total("mobility.success")
    m["mobility.scored"] = attr_sum("mobility.success", "scored")

    m["trace.spans"] = counters["spans"]
    return m

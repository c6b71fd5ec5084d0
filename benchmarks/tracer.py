"""In-memory spans around lprlab's public functions, for the traced run.

Nothing here edits lprlab. `Tracer.install` replaces each wrapped function
in every lprlab module that holds it, because the package binds names at
import time (`from .gpsr import gpsr_route` in delivery and scenario,
`from .profile import build_profile, top_k` in mobility), so patching the
defining module alone would miss most calls.

A span is (name, start, end, parent, trial, attrs). Spans stay in memory
and are written as JSON lines at `flush`, when the job's work ends.
`Topology.distance_to` is counted, not spanned: it runs over a million
times per job.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.distance_calls = 0
        # Topologies get a serial number when built; legs are keyed by it
        # because id() values are reused once a pool is freed. The list
        # keeps every traced topology alive for that reason.
        self.topo_serial: dict[int, int] = {}
        self.topologies: list = []

    # -- span recording ------------------------------------------------

    def open(self, name: str, trial: int | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, _now(), None, parent, trial, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = _now()
        span[5] = attrs
        self.stack.pop()

    def flush(self) -> None:
        """Write the spans and counters to `spans.jsonl`."""
        with open(os.path.join(self.out_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, trial, attrs]) + "\n")
            fh.write(json.dumps(["#counters", {"distance_calls": self.distance_calls,
                                               "spans": len(self.spans)}]) + "\n")

    # -- wrapping ------------------------------------------------------

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Span every call of module.attr; describe(args, kwargs, result)
        returns the span's attributes."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            attrs = None
            try:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs = describe(args, kwargs, result)
            finally:
                tracer.close(idx, attrs)
            return result

        wrapper.__wrapped__ = original
        replace_everywhere(original, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read from."""
        from lprlab import analytic, cli, figures, mobility, profile
        from lprlab.simnet import delivery, gpsr, scenario, topology

        self._count_distance(topology.Topology)

        def topo_built(args, kwargs, topo):
            self.topologies.append(topo)
            self.topo_serial[id(topo)] = len(self.topologies)
            return {"connected": bool(topo.connected)}

        self.wrap(topology, "build_topology", "topology.build", topo_built)

        def leg(args, kwargs, route):
            topo, _src, dest = args[:3]
            radius = args[3] if len(args) > 3 else kwargs.get("acceptance_radius", 0.0)
            return {
                "hops": route.hops,
                "perimeter": route.perimeter_hops,
                "ok": route.success,
                "end": route.path[-1],
                "radius": radius,
                "key": [self.topo_serial.get(id(topo), -1),
                        float(dest[0]), float(dest[1]), float(radius)],
            }

        self.wrap(gpsr, "gpsr_route", "gpsr.route", leg)

        def delivered(args, kwargs, outcome):
            topo = args[0]
            true_position = kwargs["true_position"]
            radius = kwargs["acceptance_radius"]
            return {
                "success": outcome.success,
                "tx": outcome.transmissions,
                "hits": self._copy_hits(topo, true_position, radius),
            }

        self.wrap(delivery, "lpr_deliver", "delivery.lpr", delivered)

        self.wrap(scenario, "build_pool", "scenario.build_pool")
        self.wrap(scenario, "measure_baseline", "scenario.baseline")
        self.wrap(scenario, "aggregate", "scenario.aggregate")
        self._wrap_run_trials(scenario)

        self.wrap(cli, "main", "cli.main")
        self.wrap(figures, "write_csv", "cli.write")
        # The CLI writes its JSON outputs through this one private helper.
        self.wrap(cli, "_write_text", "cli.write")

        self.wrap(analytic, "first_order_cdf", "analytic.cdf")
        for attr in ("first_order_pmf", "zeroth_order_pmf", "sequential_hit_pmf"):
            self.wrap(analytic, attr, "analytic.pmf")
        self.wrap(analytic, "mean_latency", "analytic.cost")
        self.wrap(analytic, "mean_traffic", "analytic.cost")
        self.wrap(analytic, "pareto_front", "analytic.front")
        self.wrap(analytic, "enumerate_groupings", "analytic.enumerate",
                  lambda a, kw, res: {"n": len(res)})
        self.wrap(analytic, "knee_point", "analytic.knee")

        self.wrap(profile, "build_profile", "profile.build",
                  lambda a, kw, res: {"records": len(a[0])})
        self.wrap(profile, "predict", "profile.predict",
                  lambda a, kw, res: {"cells": len(res)})
        self.wrap(profile, "top_k", "profile.top_k")
        self.wrap(profile, "serialize_profile", "profile.serialize",
                  lambda a, kw, res: {"bytes": len(res)})
        self.wrap(profile, "deserialize_profile", "profile.deserialize")
        self.wrap(profile, "write_trace_csv", "profile.csv")
        self.wrap(profile, "read_trace_csv", "profile.csv")

        self.wrap(mobility, "generate_trace", "mobility.generate",
                  lambda a, kw, res: {"observations": sum(len(t) for t in res)})
        self.wrap(mobility, "empirical_regularity", "mobility.regularity")
        self.wrap(mobility, "empirical_success_after_k", "mobility.success",
                  lambda a, kw, res: {
                      "scored": sum(len(t) - len(t) // 2 for t in a[0])})

    def _count_distance(self, cls) -> None:
        original = cls.distance_to
        tracer = self

        def distance_to(topo, u, point):
            tracer.distance_calls += 1
            return original(topo, u, point)

        cls.distance_to = distance_to

    def _copy_hits(self, topo, true_position, radius) -> int:
        """Forward legs of the open delivery span that ended within the
        acceptance radius of the true cell centre."""
        me = self.stack[-1]
        hits = 0
        for span in self.spans[me + 1:]:
            attrs = span[5]
            if span[0] != "gpsr.route" or span[3] != me or not attrs:
                continue
            if attrs["radius"] > 0 and attrs["ok"]:
                x, y = topo.positions[attrs["end"]]
                if math.hypot(float(x) - true_position[0],
                              float(y) - true_position[1]) <= radius:
                    hits += 1
        return hits

    def _wrap_run_trials(self, scenario) -> None:
        """Span each trial. The traced run_trials runs one index at a time
        on one pool, a split that run_trials' contract says merges cleanly;
        the digest check confirms that the outputs are unchanged."""
        original = scenario.run_trials
        tracer = self

        def run_trials(config, indices, pool=None):
            idx = tracer.open("scenario.run_trials")
            try:
                if pool is None:
                    pool = scenario.build_pool(config)
                rows = []
                for i in indices:
                    trial = tracer.open("scenario.trial", trial=int(i))
                    try:
                        rows.extend(original(config, [i], pool))
                    finally:
                        tracer.close(trial)
            finally:
                tracer.close(idx)
            return rows

        run_trials.__wrapped__ = original
        replace_everywhere(original, run_trials)


def replace_everywhere(original, replacement) -> None:
    """Rebind every lprlab module attribute that is `original`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lprlab" or name.startswith("lprlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)

"""One benchmark job: a fresh interpreter runs one workload once.

    python3 benchmarks/job.py SPEC.json

SPEC names the workload, its generated inputs and an output directory.
The job imports lprlab from the PYTHONPATH its parent sets, drives it
through public functions or the CLI, writes the workload's outputs, and
ends with `job.json`: the units of work done and any failed check. When
set-up ends (after `build_pool` or `generate_trace`), the job appends a
CLOCK_MONOTONIC reading to `marks.txt`, so the parent can time set-up
from outside the job.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import time


def _mark(out_dir: str) -> None:
    with open(os.path.join(out_dir, "marks.txt"), "a", encoding="utf-8") as fh:
        fh.write(f"{time.monotonic()!r}\n")


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cli(argv: list[str]) -> list[str]:
    from lprlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    return [] if status == 0 else [f"lprlab {argv[0]} exited with {status}"]


def _mark_after_pool_builds(out_dir: str) -> None:
    """Mark set-up done when the CLI has built its topology pool."""
    from lprlab.simnet import scenario
    from tracer import replace_everywhere

    build_pool = scenario.build_pool

    def marked_build_pool(config):
        pool = build_pool(config)
        _mark(out_dir)
        return pool

    replace_everywhere(build_pool, marked_build_pool)


def sim_lpr(spec: dict, out: str) -> tuple[int, list[str]]:
    from lprlab import figures
    from lprlab.simnet import scenario

    if spec["role"] == "reference":
        _mark_after_pool_builds(out)
        return 0, _cli(["simulate", spec["scenario"], "--out-dir", out])

    config = scenario.load_scenario(spec["scenario"])
    pool = scenario.build_pool(config)
    _mark(out)
    rows = scenario.run_trials(config, range(config.trials), pool)
    record = scenario.aggregate(rows, scenario.measure_baseline(config, pool))

    header = [f.name for f in dataclasses.fields(scenario.TrialRow)]
    figures.write_csv(
        os.path.join(out, "trials.csv"),
        header,
        (
            [int(v) if isinstance(v, bool) else v for v in dataclasses.astuple(row)]
            for row in rows
        ),
    )
    _write_json(os.path.join(out, "summary.json"), record.as_dict())
    checks = []
    if [row.index for row in rows] != list(range(config.trials)):
        checks.append("trial rows are not indices 0..trials-1 in order")
    if record.n_trials != config.trials:
        checks.append(f"summary counts {record.n_trials} trials, ran {config.trials}")
    return config.trials, checks


def profile_history(spec: dict, out: str) -> tuple[int, list[str]]:
    from lprlab import mobility, profile
    from lprlab.profile import CellId, ObservationTrace

    params = mobility.MobilityParams(
        n_users=spec["users"], n_weeks=spec["weeks"], seed=spec["trace_seed"]
    )
    generated = mobility.generate_trace(params)
    _mark(out)
    checks = []
    regularity = mobility.empirical_regularity(generated)

    csv_path = os.path.join(out, "trace.csv")
    profile.write_trace_csv(generated, csv_path)
    traces = profile.read_trace_csv(csv_path)
    if traces != generated:
        checks.append("trace CSV round trip changed the traces")

    blobs = bytearray()
    order3_profiles = []
    trained = 0
    for trace in traces:
        half = len(trace) // 2
        train = ObservationTrace(trace.node_id, trace.slots[:half], trace.cells[:half])
        trained += 2 * half
        for order in (1, 3):
            prof = profile.build_profile(train, order=order)
            data = profile.serialize_profile(prof)
            if profile.deserialize_profile(data) != prof:
                checks.append(f"order-{order} profile of {trace.node_id} "
                              "changed in a serialize round trip")
            blobs += len(data).to_bytes(8, "little") + data
        order3_profiles.append(prof)
    _write_bytes(os.path.join(out, "profiles.bin"), bytes(blobs))

    success = {}
    for k in spec["success_k"]:
        success[str(k)] = mobility.empirical_success_after_k(traces, k)
        trained += sum(len(t) // 2 for t in traces)
    scored = len(spec["success_k"]) * sum(len(t) - len(t) // 2 for t in traces)

    hits = queries = 0
    stride = spec["query_stride"]
    for trace, order3 in zip(traces, order3_profiles):
        for i in range(len(trace) // 2, len(trace), stride):
            prev = CellId(int(trace.cells[i - 1, 0]), int(trace.cells[i - 1, 1]))
            slot, cell = trace.record(i)
            hits += cell in profile.top_k(order3, slot, spec["query_k"], prev_cell=prev)
            queries += 1
    scored += queries

    _write_json(os.path.join(out, "success.json"), {
        "regularity": [float(v) for v in regularity],
        "success_after_k": success,
        "order3_top_k_hits": hits,
        "order3_top_k_queries": queries,
    })
    return trained + scored, checks


def model_front(spec: dict, out: str) -> tuple[int, list[str]]:
    # The CLI is imported before the mark, like everything set-up covers.
    from lprlab import analytic, cli, figures  # noqa: F401

    _mark(out)
    model = analytic.RegularityModel(*spec["model"])
    argv = ["curves", "--fig", "all", "--k", str(spec["front_k"]),
            "--k-max", str(spec["k_max"]), "--out-dir", out]
    for flag, value in zip(("--c1", "--c2", "--c3"), spec["model"]):
        argv += [flag, repr(value)]
    checks = _cli(argv)

    k = spec["score_k"]
    groupings = analytic.enumerate_groupings(k)
    scores = [
        (str(g), analytic.mean_latency(g, model), analytic.mean_traffic(g, model))
        for g in groupings
    ]
    front = analytic.pareto_front(k, model)
    eps = 1e-9
    for p in front:
        if any(
            lat <= p.latency + eps and traf <= p.traffic + eps
            and (lat < p.latency - eps or traf < p.traffic - eps)
            for _, lat, traf in scores
        ):
            checks.append(f"front point {p.grouping} is dominated")
    knee = analytic.knee_point(front)
    figures.write_csv(
        os.path.join(out, "scores.csv"),
        ["grouping", "mean_latency", "mean_traffic", "on_front", "knee"],
        (
            (name, lat, traf,
             int(any(str(p.grouping) == name for p in front)),
             int(name == str(knee.grouping)))
            for name, lat, traf in scores
        ),
    )
    units = 2 ** (spec["front_k"] - 1) + 2 * len(groupings)
    return units, checks


def profile_front(spec: dict, out: str) -> tuple[int, list[str]]:
    """profile-history, then model-front, in one process."""
    units, checks = profile_history(spec, out)
    more_units, more_checks = model_front(spec, out)
    return units + more_units, checks + more_checks


WORKLOADS = {
    "sim-lpr": sim_lpr,
    "profile-front": profile_front,
}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    out = spec["out_dir"]
    import lprlab
    import numpy

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(lprlab.__file__).startswith(src + os.sep):
        print(f"imported lprlab from {lprlab.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(out)
        tracer.install()
    units, checks = WORKLOADS[spec["workload"]](spec, out)
    if tracer is not None:
        tracer.flush()
    _write_json(os.path.join(out, "job.json"), {
        "units": units,
        "checks": checks,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""lprlab benchmark: end-to-end jobs on lprlab workloads, checked for correctness.

    python3 benchmarks/run.py --workload sim-lpr --seed 0 --seconds 50 --trace 0

Run from anywhere inside a checkout that holds `src/lprlab`; the package
is imported from that source tree, never from an installed copy. Each job
is a fresh interpreter (benchmarks/job.py) that runs its workload once on
inputs generated here from `--seed`. Jobs repeat while the next one is
expected to end within `--seconds`; every metric is the median over these
timed jobs. An untraced run also runs calibrate.py before the first
timed job and after each one, and reports times in seconds at a reference
machine speed (see CALIBRATION_REFERENCE_S). The last line of standard
output is one JSON object: `{"correct", "attempted", "failed",
"metrics"}`, with the end-to-end metrics of BENCHMARK.json under
`--trace 0` and its per-layer metrics under `--trace 1`. A traced run
alternates traced and untraced jobs, so it can report the tracing
overhead, and keeps the last traced job's span file in
`.bench_run/traces/`.

A job fails when it exits non-zero, when one of its own checks fails, or
when an output's SHA-256 differs from the reference: the digest recorded
in reference_digests.json for this workload and seed, or else the digest
of this run's first job. For sim-lpr that first job is an untimed
reference job that takes another path to the same outputs (`lprlab
simulate` on the same scenario file), so it checks the timed path too.
`--record` stores the reference digests of one seed after checking that
two jobs (the two paths, for sim-lpr) agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
REFERENCES = os.path.join(HERE, "reference_digests.json")
WORK = os.path.join(ROOT, ".bench_run")

MIN_TIMED_JOBS = 3
JOB_TIMEOUT_S = 120

# Median wall time of calibrate.py on the machine the bounds were set on
# (2 vCPUs, Linux 6.18, Python 3.11, numpy 2.x). The end-to-end times of
# an untraced run are reported in seconds at that machine speed: each
# job's seconds times this over the calibration loops around the job.
CALIBRATION_REFERENCE_S = 0.65

# Job sizes. "full" is what the benchmark measures; "quick" runs every code
# path in a few seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        # The README scenario: 280 nodes, 12 candidates, grouping 2|10.
        "sim-lpr": {"trials": 2000, "pool": 10},
        # Few users with long histories make large profile contexts;
        # pareto_front(13) enumerates 4096 groupings by brute force. Sized
        # for a job of about 3 s, so that a window holds a dozen jobs.
        "profile-front": {"users": 4, "weeks": 80, "query_stride": 2,
                          "front_k": 13, "score_k": 9, "k_max": 50},
    },
    "quick": {
        "sim-lpr": {"trials": 30, "pool": 2},
        "profile-front": {"users": 2, "weeks": 3, "query_stride": 5,
                          "front_k": 6, "score_k": 5, "k_max": 8},
    },
}

OUTPUTS = {
    "sim-lpr": ("trials.csv", "summary.json"),
    "profile-front": ("trace.csv", "profiles.bin", "success.json",
                      "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig7.csv",
                      "scores.csv"),
}

WORK_UNITS = {
    "sim-lpr": "trials",
    "profile-front": "observations+groupings",
}

# lprlab's calibrated regularity coefficients (c1, c2, c3). model-front
# scales each by a seeded factor in [0.9, 1.1], so every seed asks for
# different curves.
_REGULARITY = (0.148, 0.077, 0.657)

_SCENARIO_INI = """\
[topology]
n = 280
field_size = 2500
radio_range = 400
grid_cells = 12
pool = {pool}

[traffic]
trials = {trials}
n_candidates = 12

[strategy]
kind = lpr
grouping = 2|10

[seeds]
seed = {seed}
"""


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs


def make_spec(workload: str, size: str, seed: int, run_dir: str) -> dict:
    """Job inputs for one workload, generated from the seed alone."""
    params = SIZES[size][workload]
    spec = {"workload": workload, "src": SRC}
    if workload == "sim-lpr":
        path = os.path.join(run_dir, "scenario.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_SCENARIO_INI.format(seed=seed, **params))
        spec["scenario"] = path
    else:
        rng = random.Random(seed)
        spec.update(params, trace_seed=seed, success_k=[1, 5, 12], query_k=12,
                    model=[c * rng.uniform(0.9, 1.1) for c in _REGULARITY])
    return spec


# ---------------------------------------------------------------------------
# Jobs


class Job:
    """One finished job: its timings, outputs and what went wrong."""

    def __init__(self, role: str, traced: bool, out_dir: str) -> None:
        self.role = role
        self.traced = traced
        self.out_dir = out_dir
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.units = 0
        self.versions: dict[str, str] = {}
        self.wall_s = self.setup_s = self.cpu_s = self.peak_rss_mb = None
        # Calibration loop seconds around the job; None in a traced run.
        self.calibration_s: float | None = None

    @property
    def timed(self) -> bool:
        return self.wall_s is not None and self.role == "timed"

    @property
    def scale(self) -> float:
        """Seconds at the reference machine speed per measured second."""
        return CALIBRATION_REFERENCE_S / self.calibration_s

    @property
    def work_per_s(self) -> float:
        return self.units / (self.wall_s - self.setup_s)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_job(spec: dict, role: str, traced: bool, out_dir: str) -> Job:
    os.makedirs(out_dir)
    spec = dict(spec, role=role, trace=traced, out_dir=out_dir)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    job = Job(role, traced, out_dir)

    def timeout(signum, frame):
        _kill_group(proc.pid)

    with open(os.path.join(out_dir, "log.txt"), "w", encoding="utf-8") as log:
        start = time.monotonic()
        # Its own session, so a stuck job is killed with anything it started.
        proc = subprocess.Popen(
            [sys.executable, JOB, spec_path], stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT, start_new_session=True,
        )
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Reap anything a failed job left behind in its session.
    _kill_group(proc.pid)

    marks = os.path.join(out_dir, "marks.txt")
    if proc.returncode != 0 or not os.path.isfile(marks):
        job.problems.append(f"exit status {proc.returncode}: {_tail(out_dir)}")
        return job
    with open(os.path.join(out_dir, "job.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    job.problems += result["checks"]
    job.units = result["units"]
    job.versions = {"python": result["python"], "numpy": result["numpy"]}
    for name in OUTPUTS[spec["workload"]]:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            job.problems.append(f"missing output {name}")
            continue
        with open(path, "rb") as fh:
            job.digests[name] = hashlib.sha256(fh.read()).hexdigest()

    with open(marks, encoding="utf-8") as fh:
        setup_end = min(float(line) for line in fh if line.strip())
    job.wall_s = end - start
    job.setup_s = setup_end - start
    # wait4 reports the job plus every worker it reaped: CPU time summed,
    # resident memory as the largest single process.
    job.cpu_s = usage.ru_utime + usage.ru_stime
    job.peak_rss_mb = usage.ru_maxrss / 1024.0
    return job


def run_calibration() -> float:
    """Wall seconds of one calibration loop in a fresh interpreter."""
    start = time.monotonic()
    subprocess.run([sys.executable, CALIBRATE], check=True, cwd=ROOT,
                   stdin=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
    return time.monotonic() - start


def _tail(out_dir: str, lines: int = 5) -> str:
    with open(os.path.join(out_dir, "log.txt"), encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def check_digests(jobs: list[Job], expected: dict[str, str] | None) -> None:
    """Mark every job whose outputs differ from the expected digests.

    Without recorded digests, the first job that ran cleanly is expected:
    the reference job, where the workload has one.
    """
    if expected is None:
        clean = [j for j in jobs if not j.problems]
        if not clean:
            return
        expected = clean[0].digests
    for job in jobs:
        for name, digest in job.digests.items():
            if digest != expected.get(name):
                job.problems.append(f"{name} digest {digest[:12]} differs from reference")


# ---------------------------------------------------------------------------
# Run record and report


def run_record(workload: str, size: str, seed: int, seconds: float,
               loadavg: tuple, jobs: list[Job]) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "lprlab"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                src_hash.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    versions = next((j.versions for j in jobs if j.versions), {})
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "loadavg_at_start": list(loadavg),
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(timed: list[Job], attempted: int, failed: int) -> dict[str, list[float]]:
    samples = {
        "wall_s": [j.wall_s * j.scale for j in timed],
        "setup_s": [j.setup_s * j.scale for j in timed],
        "work_per_s": [j.work_per_s / j.scale for j in timed],
        "cpu_s": [j.cpu_s * j.scale for j in timed],
        "peak_rss_mb": [j.peak_rss_mb for j in timed],
    }
    samples["ok_ratio"] = [(attempted - failed) / attempted]
    return samples


def per_layer(traced: list[Job], untraced: list[Job]) -> dict[str, list[float]]:
    from layers import layer_metrics

    samples: dict[str, list[float]] = {}
    for job in traced:
        for name, value in layer_metrics(job.out_dir).items():
            samples.setdefault(name, []).append(value)
    samples["trace.overhead_s"] = [
        statistics.median(j.wall_s for j in traced)
        - statistics.median(j.wall_s for j in untraced)
    ]
    return samples


def report(samples: dict[str, list[float]], declared: list[dict], workload: str) -> dict:
    """Print each declared metric with its unit; return the result metrics."""
    missing = [m["name"] for m in declared if m["name"] not in samples]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    metrics = {}
    width = max(len(m["name"]) for m in declared)
    for m in declared:
        values = samples[m["name"]]
        value = statistics.median(values)
        lo, hi = _quartiles(values)
        unit = m["unit"]
        shown = f"{WORK_UNITS[workload]}/s" if m["name"] == "work_per_s" else unit
        print(f"  {m['name']:<{width}}  {value:<14.6g} {shown:<16} "
              f"median of {len(values)}, quartiles {lo:.6g} .. {hi:.6g}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OUTPUTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed jobs run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny job sizes, for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="record this seed's reference digests and exit")
    return parser.parse_args(argv)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record(spec: dict, run_dir: str, args: argparse.Namespace, size: str) -> int:
    reference = run_job(spec, "reference", False, os.path.join(run_dir, "job-0"))
    timed = run_job(spec, "timed", False, os.path.join(run_dir, "job-1"))
    for job in (reference, timed):
        if job.problems:
            raise RuntimeError(f"{job.role} job failed: {job.problems}")
    if reference.digests != timed.digests:
        raise RuntimeError("reference and timed jobs disagree; nothing recorded")
    refs = _load_json(REFERENCES) if os.path.exists(REFERENCES) else {}
    refs.setdefault(args.workload, {}).setdefault(size, {})[str(args.seed)] = (
        reference.digests)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"recorded {args.workload}/{size}/seed {args.seed} in {REFERENCES}")
    return 0


def measure(spec: dict, run_dir: str, args: argparse.Namespace) -> list[Job]:
    jobs = []
    if args.workload == "sim-lpr":
        jobs.append(run_job(spec, "reference", False, os.path.join(run_dir, "job-0")))
    start = time.monotonic()
    # An untraced run times the machine before the first job and after each.
    calibration = None if args.trace else run_calibration()
    durations: list[float] = []
    while len(durations) < MIN_TIMED_JOBS or (
        # Start a job only if it is expected to end within the window.
        time.monotonic() - start + statistics.median(durations) <= args.seconds
    ):
        # A traced run alternates, traced first, so overhead pairs are close in time.
        traced = bool(args.trace) and len(durations) % 2 == 0
        began = time.monotonic()
        job = run_job(spec, "timed", traced, os.path.join(run_dir, f"job-{len(jobs)}"))
        if calibration is not None:
            after = run_calibration()
            job.calibration_s = (calibration + after) / 2
            calibration = after
        jobs.append(job)
        durations.append(time.monotonic() - began)
    return jobs


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lprlab", "__init__.py")):
        raise UsageError(f"no lprlab source tree at {SRC}")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        raise UsageError(f"no BENCHMARK.json in {ROOT}")
    declared = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    if args.seconds <= 0:
        raise UsageError("--seconds must be positive")
    size = "quick" if args.quick else "full"
    loadavg = os.getloadavg()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        spec = make_spec(args.workload, size, args.seed, run_dir)
        if args.record:
            return record(spec, run_dir, args, size)
        jobs = measure(spec, run_dir, args)

        refs = _load_json(REFERENCES) if os.path.exists(REFERENCES) else {}
        expected = refs.get(args.workload, {}).get(size, {}).get(str(args.seed))
        check_digests(jobs, expected)
        attempted = len(jobs)
        failed = sum(1 for j in jobs if j.problems)
        # A job whose outputs are wrong still ran: its timings count, and
        # the result says it failed.
        timed = [j for j in jobs if j.timed]
        if not timed:
            for job in jobs:
                print(f"job {os.path.basename(job.out_dir)}: {job.problems}", file=sys.stderr)
            print("no timed job ran to the end; no result", file=sys.stderr)
            return 1

        rec = run_record(args.workload, size, args.seed, args.seconds, loadavg, jobs)
        checked = "recorded digests" if expected else "this run's first job"
        print(f"lprlab benchmark  workload {args.workload}  seed {args.seed}  "
              f"trace {args.trace}  outputs checked against {checked}")
        print("run record: " + json.dumps(rec, sort_keys=True))
        for job in jobs:
            line = f"  {os.path.basename(job.out_dir):<7} {job.role:<9}"
            if job.wall_s is not None:
                line += (f" wall {job.wall_s:.4f} s  setup {job.setup_s:.4f} s"
                         f"  cpu {job.cpu_s:.3f} s{'  traced' if job.traced else ''}")
                if job.calibration_s is not None:
                    line += f"  calibration {job.calibration_s:.4f} s"
            print(line + (f"  FAILED: {'; '.join(job.problems)}" if job.problems else ""))
        print(f"  failed_ratio  {failed / attempted:.6g}  ({failed} of {attempted} jobs)")
        if not args.trace:
            print("  measured medians, before scaling to the reference speed: "
                  + "  ".join(f"{name} {statistics.median(getattr(j, name) for j in timed):.4f} s"
                              for name in ("wall_s", "setup_s", "cpu_s", "calibration_s")))

        if args.trace:
            traced = [j for j in timed if j.traced]
            untraced = [j for j in timed if not j.traced]
            if not traced or not untraced:
                print("traced run needs a clean traced and untraced job", file=sys.stderr)
                return 1
            samples = per_layer(traced, untraced)
            metrics = report(samples, declared["per_layer"], args.workload)
            keep = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}")
            shutil.rmtree(keep, ignore_errors=True)
            shutil.copytree(traced[-1].out_dir, keep)
            print(f"  spans of the last traced job kept in {os.path.relpath(keep, ROOT)}")
        else:
            samples = end_to_end(timed, attempted, failed)
            metrics = report(samples, declared["end_to_end"], args.workload)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    # Exit through the finally clauses, which stop the running job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

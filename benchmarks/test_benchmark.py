"""Tests of the benchmark itself, at the tiny `--quick` job sizes.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("sim-lpr", "profile-front")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def bench(*args: str, cwd: str = ROOT, run: str = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, run, "--quick", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    return payload


def copy_benchmark(dest) -> str:
    """Copy BENCHMARK.json and the benchmark's files into dest; return its run.py."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    for path in DECLARED["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(dest, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return os.path.join(dest, "benchmarks", "run.py")


def test_declared_workloads_are_the_coded_ones():
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--trace", trace)
    payload = result(done)
    assert payload["correct"] is True
    assert payload["failed"] == 0 and payload["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in payload["metrics"].items()
    }
    for name, metric in payload["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        line = next(line for line in done.stdout.splitlines()
                    if line.split()[:1] == [name])
        if name != "work_per_s":
            assert f" {metric['unit']} " in line
    assert "run record: " in done.stdout


def test_altered_digest_counts_as_failed_job(tmp_path):
    run = copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    refs = tmp_path / "benchmarks" / "reference_digests.json"
    args = ("--workload", "profile-front", "--seed", "5")
    recorded = subprocess.run(
        [sys.executable, run, "--quick", *args, "--record"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert recorded.returncode == 0, recorded.stderr

    clean = result(bench(*args, cwd=str(tmp_path), run=run))
    assert clean["correct"] is True and clean["failed"] == 0

    digests = json.loads(refs.read_text(encoding="utf-8"))
    digests["profile-front"]["quick"]["5"]["scores.csv"] = "0" * 64
    refs.write_text(json.dumps(digests), encoding="utf-8")
    altered = result(bench(*args, cwd=str(tmp_path), run=run))
    assert altered["correct"] is False
    assert altered["failed"] == altered["attempted"]
    assert altered["metrics"]["ok_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    run = copy_benchmark(tmp_path)
    done = bench("--workload", "sim-lpr", cwd=str(tmp_path), run=run)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

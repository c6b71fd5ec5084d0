"""Command-line behavior: outputs, manifests, determinism, exit codes.

Commands run in-process through main() so exit codes and stderr are
observable without spawning an interpreter.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields, replace

import pytest

from lprlab import cli, mobility, profile
from lprlab.analytic import conditional_cdf, hourly_regularity
from lprlab.cli import build_parser, main
from lprlab.mobility import MobilityParams, empirical_regularity, generate_trace
from lprlab.profile import read_trace_csv
from lprlab.simnet import scenario

ORACLE_INI = """
[topology]
n = 80
field_size = 1200
radio_range = 300
pool = 2
grid_cells = 8

[traffic]
trials = 60
n_candidates = 5

[strategy]
kind = oracle

[seeds]
seed = 5
"""

# Six nodes that all hear each other: a leg is 0 or 1 hops, so for some
# seeds the mean update leg or the mean baseline round trip is 0 hops.
ZERO_HOP_COMPARE = """
[topology]
n = 6
field_size = 400
radio_range = 600
grid_cells = 4
pool = 1

[traffic]
trials = 1
n_candidates = 1

[strategy]
kind = lpr
grouping = 1
"""

SMALL_COMPARE = """
[topology]
n = 80
field_size = 1200
radio_range = 300

[traffic]
trials = 120
n_candidates = 5

[strategy]
kind = lpr
grouping = {grouping}

[seeds]
seed = 5
"""

# Three layouts in one pool, so trials on different layouts share a wave.
PINNED_INI = """
[topology]
n = 60
field_size = 1000
radio_range = 280
pool = 3
grid_cells = 8

[traffic]
trials = 90
n_candidates = 5

[strategy]
kind = {kind}
grouping = 2|3

[seeds]
seed = 9
"""


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_rows(path):
    lines = _read(path).decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCurves:
    def test_all_families(self, tmp_path):
        assert main(["curves", "--out-dir", str(tmp_path)]) == 0
        names = {"fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig7.csv",
                 "curves_manifest.json"}
        assert set(os.listdir(tmp_path)) == names
        lines = _read(tmp_path / "fig2.csv").decode().splitlines()
        assert lines[0] == "k,success_cdf"
        assert lines[1] == "1,0.48"
        assert len(lines) == 51
        manifest = json.loads(_read(tmp_path / "curves_manifest.json"))
        assert manifest["command"] == "curves"
        assert sorted(manifest["outputs"]) == sorted(n for n in names if n.endswith(".csv"))
        assert manifest["seeds"] == []
        assert manifest["parameters"]["fig"] == "all"

    def test_single_selector(self, tmp_path):
        assert main(["curves", "--fig", "fig7", "--k", "5",
                     "--out-dir", str(tmp_path)]) == 0
        assert set(os.listdir(tmp_path)) == {"fig7.csv", "curves_manifest.json"}
        rows = _csv_rows(tmp_path / "fig7.csv")
        assert len(rows) == 12
        assert rows[0]["grouping"] == "5"

    def test_flat_model_collapses_columns(self, tmp_path):
        assert main(["curves", "--fig", "fig3", "--c1", "0", "--c2", "0",
                     "--k-max", "20", "--out-dir", str(tmp_path)]) == 0
        for row in _csv_rows(tmp_path / "fig3.csv"):
            avg = float(row["success_avg"])
            assert float(row["success_night"]) == pytest.approx(avg, rel=1e-9)
            assert float(row["success_day"]) == pytest.approx(avg, rel=1e-9)
            k = int(row["k"])
            assert avg == pytest.approx(conditional_cdf(k, 0.657), rel=1e-9)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["curves", "--fig", "fig2", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        first = {n: _read(tmp_path / n) for n in os.listdir(tmp_path)}
        assert main(args) == 0
        assert {n: _read(tmp_path / n) for n in os.listdir(tmp_path)} == first

    def test_unknown_selector_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--fig", "fig9", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("k", ["0", "21"])
    def test_front_k_out_of_range(self, tmp_path, capsys, k):
        assert main(["curves", "--fig", "fig7", "--k", k,
                     "--out-dir", str(tmp_path)]) == 2
        assert f"k must be in [1, 20], got {k}" in capsys.readouterr().err

    def test_front_k_rejected_before_any_write(self, tmp_path, capsys):
        # fig2-fig5 would be valid; the fig7 k is checked before they land.
        assert main(["curves", "--fig", "all", "--k", "21",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --k 21: k must be in [1, 20], got 21\n"
        assert os.listdir(tmp_path) == []

    def test_bad_k_max(self, tmp_path, capsys):
        assert main(["curves", "--fig", "all", "--k-max", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --k-max 0: k_max must be >= 1, got 0\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("c", ["1.0", "0", "nan"])
    def test_bad_constant_regularity_names_its_flag(self, tmp_path, capsys, c):
        # The constant regularity is DEFAULT_C, not a flag: argparse
        # refuses every --c value, naming it, before anything is written.
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--c", c, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--c" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, digests",
        [
            ([], {
                "fig2.csv": "d4b14f6f5d322a7698c7083f7ad47aa1bfa3053ad96e7a24228e601583e733c5",
                "fig3.csv": "0959644f16ee9e61cb2db46a28f2ac7cd95a3a0e17d6f0b565d682b3e416bfc4",
                "fig4.csv": "b5d6a3454b785666efbcbb3c5068a992b2303aa2b7428c8fbac82205f1a9abcf",
                "fig5.csv": "7d68749d1ad320d4b2682eaf36f6ee41de4b43f174094c0ed4fc6016951652c9",
                "fig7.csv": "fed7fb13c2aed5b44e4cc7f3a3711885be0d239bb431836106d2745ce4f4362c",
            }),
            (["--c1", "0.12", "--c2", "0.05", "--c3", "0.6"], {
                "fig2.csv": "d4b14f6f5d322a7698c7083f7ad47aa1bfa3053ad96e7a24228e601583e733c5",
                "fig3.csv": "75d4212e442fe29f3da05708dc75efc93bf23253f71b4782bb89f0369b141420",
                "fig4.csv": "b5d6a3454b785666efbcbb3c5068a992b2303aa2b7428c8fbac82205f1a9abcf",
                "fig5.csv": "0bb495bc5bac23fb5eb1b05e5de3f7fe31c890cbcd93cf604eb020f8c212464b",
                "fig7.csv": "21578f96c797a6f8d1e8c2ab03080bb83427210f128e71cd815fc88ea1e8e4b4",
            }),
        ],
        ids=["default", "c1-c2-c3"],
    )
    def test_pinned_curve_digests(self, tmp_path, flags, digests):
        # SHA-256 of each family's bytes, pinned so any change to what
        # `curves --fig all` writes shows here.
        assert main(["curves", "--fig", "all", *flags, "--out-dir", str(tmp_path)]) == 0
        got = {name: hashlib.sha256(_read(tmp_path / name)).hexdigest() for name in digests}
        assert got == digests

    def test_regularity_outside_unit_interval_writes_nothing(self, tmp_path, capsys):
        # The first hour midpoint where R(t) leaves (0, 1) is named.
        for c3, located in (
            ("0.95", "regularity 1.06742 at hour 0.5"),
            ("0.05", "regularity -0.0463179 at hour 9.5"),
        ):
            out_dir = tmp_path / c3
            assert main(["curves", "--c3", c3, "--out-dir", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert f"--c1 0.148 --c2 0.077 --c3 {c3} give {located}" in err
            assert "Traceback" not in err
            assert not out_dir.exists()


class TestGenTrace:
    def test_deterministic_and_verified(self, tmp_path, capsys):
        args = ["gen-trace", "--users", "6", "--weeks", "3", "--seed", "7",
                "--verify", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "self-check passed" in out
        first = {n: _read(tmp_path / n) for n in os.listdir(tmp_path)}
        assert set(first) == {"trace.csv", "gen_trace_manifest.json"}
        assert main(args) == 0
        assert {n: _read(tmp_path / n) for n in os.listdir(tmp_path)} == first
        traces = read_trace_csv(str(tmp_path / "trace.csv"))
        assert len(traces) == 6
        assert all(len(t) == 3 * 168 for t in traces)

    def test_seed_changes_trace(self, tmp_path):
        for seed in ("1", "2"):
            assert main(["gen-trace", "--users", "2", "--weeks", "1", "--seed", seed,
                         "--out-dir", str(tmp_path / seed)]) == 0
        assert _read(tmp_path / "1" / "trace.csv") != _read(tmp_path / "2" / "trace.csv")

    def test_trace_file_name_is_fixed(self, tmp_path, capsys):
        # The trace is always trace.csv: a file-name flag could overwrite
        # the manifest or name a missing subdirectory.
        with pytest.raises(SystemExit) as exc:
            main(["gen-trace", "--out", "a.csv", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out a.csv" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_flags_are_the_params_fields(self):
        # Each MobilityParams field has one flag; an unset flag takes the
        # field's default, which is written back for the manifest.
        assert set(cli._TRACE_FLAGS) == {f.name for f in fields(MobilityParams)}
        gen = build_parser().parse_args(["gen-trace"])
        assert cli._trace_params(gen) == MobilityParams()
        assert MobilityParams(
            **{name: vars(gen)[flag[2:]] for name, flag in cli._TRACE_FLAGS.items()}
        ) == MobilityParams()

    @pytest.mark.parametrize("flag", ["--locations", "--floor"])
    def test_home_cells_and_floor_are_not_flags(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["gen-trace", flag, "2", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_invalid_flag_named_in_error(self, tmp_path, capsys):
        # The flag goes in front, as for simulate, compare-ghls and curves.
        for flag, value, message in (
            ("--users", "0", "n_users must be >= 1, got 0"),
            ("--seed", "-1", "seed must be non-negative, got -1"),
            ("--seed", "4294967296", "seed = 4294967296 is above 4294967295: a user's "
             "stream takes the seed as one 32-bit word"),
            ("--weeks", "0", "n_weeks must be >= 1, got 0"),
        ):
            assert main(["gen-trace", flag, value, "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"error: {flag} {value}: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_oversized_trace_refused_before_generating(self, tmp_path, capsys, monkeypatch):
        # Bounds on --weeks and --users * --weeks exit 2 before the
        # generator allocates anything.
        def generate_trace(params):
            raise AssertionError("generate_trace ran")

        monkeypatch.setattr(mobility, "generate_trace", generate_trace)
        for flags, message in (
            (["--weeks", "100000"], "--weeks 100000: n_weeks = 100000 is above 8000: "),
            (["--users", "201", "--weeks", "1000"],
             "--users 201: n_users * n_weeks = 201 * 1000 is above 200000: "),
        ):
            assert main(["gen-trace", *flags, "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _verify_oracle(traces, params):
        """The per-hour loop that _verify_trace's array steps replaced."""
        empirical = empirical_regularity(traces)
        table = hourly_regularity()
        samples = params.n_users * params.n_weeks
        worst_z = 0.0
        worst = (0.0, 1.0)
        for hour in range(len(empirical)):
            expected = table[hour]
            sigma = math.sqrt(expected * (1.0 - expected) / samples)
            deviation = abs(float(empirical[hour]) - expected)
            if deviation > worst_z * sigma:
                worst_z = deviation / sigma
                worst = (deviation, 4.5 * sigma)
        ok = worst_z <= 4.5
        status = "passed" if ok else "FAILED"
        print(
            f"self-check {status}: max deviation {worst[0]:.4f} "
            f"(bound {worst[1]:.4f} at {samples} samples per hour)"
        )
        return 0 if ok else 1

    def test_verify_matches_the_per_hour_loop(self, capsys):
        # Claiming 100 times the users shrinks the bound tenfold, so the
        # same traces also exercise the FAILED verdict.
        verdicts = set()
        for users, weeks, seed in ((1, 1, 0), (3, 2, 5), (6, 3, 7), (12, 1, 11)):
            params = MobilityParams(n_users=users, n_weeks=weeks, seed=seed)
            traces = generate_trace(params)
            for claimed in (params, replace(params, n_users=100 * users)):
                code = cli._verify_trace(traces, claimed)
                printed = capsys.readouterr().out
                want = self._verify_oracle(traces, claimed)
                assert (code, printed) == (want, capsys.readouterr().out)
                verdicts.add(code)
        assert verdicts == {0, 1}

    def test_failed_write_keeps_the_previous_trace(self, tmp_path, monkeypatch, capsys):
        args = ["gen-trace", "--users", "2", "--weeks", "1", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        before = (tmp_path / "trace.csv").read_bytes()

        def torn_write(traces, path):
            with open(path, "w") as fh:
                fh.write("node_id,slot")
            raise OSError("disk full")

        monkeypatch.setattr(profile, "write_trace_csv", torn_write)
        assert main(args + ["--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert (tmp_path / "trace.csv").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["gen_trace_manifest.json", "trace.csv"]

    def test_failed_json_write_keeps_the_previous_file(self, tmp_path):
        # The CLI writes its JSON outputs through _write_text; a lone
        # surrogate fails to encode partway through the write.
        path = tmp_path / "summary.json"
        cli._write_text(str(path), "{}\n")
        with pytest.raises(UnicodeEncodeError):
            cli._write_text(str(path), '{"a": "' + "x" * 10000 + '\ud800"}\n')
        assert path.read_bytes() == b"{}\n"
        assert os.listdir(tmp_path) == ["summary.json"]


class TestSimulate:
    def _ini(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI)
        return str(path)

    def test_oracle_run(self, tmp_path, capsys):
        ini = self._ini(tmp_path)
        assert main(["simulate", ini, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mean_latency_factor" in out
        summary = json.loads(_read(tmp_path / "summary.json"))
        assert summary["n_trials"] == 60
        assert summary["mean_latency_factor"] == 1.0
        assert summary["delivery_ratio"] == summary["reachability"]
        rows = _csv_rows(tmp_path / "trials.csv")
        assert len(rows) == 60
        assert rows[0]["index"] == "0"
        manifest = json.loads(_read(tmp_path / "simulate_manifest.json"))
        assert manifest["outputs"] == ["trials.csv", "summary.json"]
        assert manifest["seeds"] == [5]

    def test_readme_scenario_runs(self, tmp_path, capsys):
        # The scenario file README shows uses only keys the loader knows.
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme, encoding="utf-8") as f:
            block = f.read().split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "scenario.ini"
        path.write_text(block)
        config = scenario.load_scenario(str(path))
        assert (config.n, config.trials, str(config.grouping)) == (280, 5000, "2|10")
        assert main(["simulate", str(path), "--trials", "20", "--out-dir", str(tmp_path)]) == 0
        assert len(_csv_rows(tmp_path / "trials.csv")) == 20
        capsys.readouterr()

    def test_reruns_are_identical(self, tmp_path):
        ini = self._ini(tmp_path)
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        assert main(["simulate", ini, "--out-dir", str(first_dir)]) == 0
        assert main(["simulate", ini, "--out-dir", str(second_dir)]) == 0
        for name in ("trials.csv", "summary.json"):
            assert _read(first_dir / name) == _read(second_dir / name)

    def test_unconnectable_topology_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sparse.ini"
        path.write_text(
            ORACLE_INI.replace("n = 80", "n = 10")
            .replace("field_size = 1200", "field_size = 1000")
            .replace("radio_range = 300", "radio_range = 1")
        )
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "[topology] n = 10, field_size = 1000, radio_range = 1" in err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "trials.csv").exists()

    def test_non_finite_values_exit_2_at_once(self, tmp_path, capsys, monkeypatch):
        def no_pool(config):
            raise AssertionError("built a pool for a rejected scenario")

        monkeypatch.setattr(scenario, "build_pool", no_pool)
        for key, value, message in (
            ("radio_range = 300", "nan", "must be positive"),
            ("radio_range = 300", "inf", "must be positive"),
            ("field_size = 1200", "inf", "must be positive"),
            ("field_size = 1200", "nan", "must be positive"),
        ):
            path = tmp_path / "scenario.ini"
            path.write_text(ORACLE_INI.replace(key, f"{key.split(' =')[0]} = {value}"))
            for command in ("simulate", "compare-ghls"):
                start = time.perf_counter()
                assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
                assert time.perf_counter() - start < 1.0
                err = capsys.readouterr().err
                assert message in err and "Traceback" not in err
        assert not (tmp_path / "trials.csv").exists()
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_oversized_scenario_exits_2_at_once(self, tmp_path, capsys, monkeypatch):
        # Sizes whose arrays would far exceed memory are refused before
        # any layout is built, naming the key and the bound's reason.
        def no_pool(config):
            raise AssertionError("built a pool for an oversized scenario")

        monkeypatch.setattr(scenario, "build_pool", no_pool)
        for edits, named, reason in (
            ({"n = 80": "n = 10000000000"}, "[topology] n = 10000000000", "two (n, n) arrays"),
            ({"grid_cells = 8": "grid_cells = 100000"}, "[topology] grid_cells = 100000",
             "keeps the (grid_cells - 2)**2 eligible cells under 10000, above which numpy's "
             "choice, which the trial draws copy, may leave Floyd's algorithm"),
            ({"pool = 2": "pool = 10001"}, "[topology] pool = 10001",
             "the layout attempts build_pool makes"),
            # Each key is within its own bound, but the candidate table of
            # 9.8e9 int32 cells would take 36.5 GiB.
            ({"grid_cells = 8": "grid_cells = 101", "trials = 60": "trials = 1000000",
              "n_candidates = 5": "n_candidates = 9800"},
             "[traffic] trials * n_candidates = 1000000 * 9800 is above 140750000",
             "a (trials, n_candidates) int32 table of candidates"),
        ):
            text = ORACLE_INI
            for old, new in edits.items():
                text = text.replace(old, new)
            path = tmp_path / "scenario.ini"
            path.write_text(text)
            for command in ("simulate", "compare-ghls"):
                start = time.perf_counter()
                assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
                assert time.perf_counter() - start < 1.0
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err
                assert named in err and reason in err
        assert not (tmp_path / "trials.csv").exists()
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_zero_trials_exit_2_at_once(self, tmp_path, capsys, monkeypatch):
        # A run has at least one trial, whether the file or --trials sets
        # it; no pool is built first (TestCompareGhls checks compare-ghls).
        def no_pool(config):
            raise AssertionError("built a pool for a run of no trials")

        monkeypatch.setattr(scenario, "build_pool", no_pool)
        ini = self._ini(tmp_path)
        zero = tmp_path / "zero.ini"
        zero.write_text(ORACLE_INI.replace("trials = 60", "trials = 0"))
        assert main(["simulate", str(zero), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: [traffic] trials = 0 must be at least 1\n"
        assert main(["simulate", ini, "--trials", "0", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: --trials 0: [traffic] trials = 0 must be at least 1\n")
        assert not (tmp_path / "trials.csv").exists()

    def test_grid_above_floyds_path_exits_2(self, tmp_path, capsys):
        # The grid bound keeps the eligible cells under 10000, above which
        # numpy's choice, which the trial draws copy, may leave Floyd's
        # algorithm; grid 102 has 100**2 = 10000.
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI.replace("grid_cells = 8", "grid_cells = 102"))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [topology] grid_cells = 102 is above 101: ")
        assert "Traceback" not in err
        assert not (tmp_path / "trials.csv").exists()

    def test_trials_and_seed_overrides(self, tmp_path, capsys):
        ini = self._ini(tmp_path)
        assert main(["simulate", ini, "--trials", "10", "--seed", "9",
                     "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(_read(tmp_path / "summary.json"))
        assert summary["n_trials"] == 10
        manifest = json.loads(_read(tmp_path / "simulate_manifest.json"))
        assert manifest["seeds"] == [9]
        config = manifest["parameters"]["config"]
        assert (config["seed"], config["trials"], config["n"]) == (9, 10, 80)
        capsys.readouterr()
        assert main(["simulate", ini, "--seed", "-1",
                     "--out-dir", str(tmp_path / "neg")]) == 2
        assert capsys.readouterr().err == (
            "error: --seed -1: [seeds] seed = -1 must be non-negative\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("n = 80", "n = 1", "[topology] n = 1 must be at least 2"),
            ("field_size = 1200", "field_size = -5",
             "[topology] field_size = -5.0 must be positive and finite"),
            ("radio_range = 300", "radio_range = 0",
             "[topology] radio_range = 0.0 must be positive and finite"),
            ("grid_cells = 8", "grid_cells = 0", "[topology] grid_cells = 0 must be at "
             "least 4, leaving an eligible non-candidate cell"),
            ("grid_cells = 8", "grid_cells = 3", "[topology] grid_cells = 3 must be at "
             "least 4, leaving an eligible non-candidate cell"),
            ("trials = 60", "trials = -1", "[traffic] trials = -1 must be at least 1"),
            ("seed = 5", "seed = -1", "[seeds] seed = -1 must be non-negative"),
            ("pool = 2", "pool = 2\ncell_margin = 1", "unknown option [topology] cell_margin"),
            # Values are read as written: no interpolation, so no run of n layouts.
            ("pool = 2", "pool = %(n)s", "bad value for [topology] pool: '%(n)s'"),
            ("n_candidates = 5", "n_candidates = 36", "[traffic] n_candidates = 36 must be "
             "from 1 to 35, leaving an eligible non-candidate cell"),
            ("kind = oracle", "kind = lpr\ngrouping = 2|4", "[strategy] grouping = 2|4 covers "
             "more ranks than [traffic] n_candidates = 5"),
            ("[seeds]", "[ghls]\nf_over_r = 0.5, inf\n\n[seeds]",
             "unknown option [ghls] f_over_r"),
            ("kind = oracle", "kind = lpr\nk = 5", "unknown option [strategy] k"),
        ],
    )
    def test_scenario_error_names_the_key(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI.replace(old, new))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "trials.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "-1", "[traffic] trials = -1 must be at least 1"),
            ("--seed", "-1", "[seeds] seed = -1 must be non-negative"),
            ("--trials", "1000001", "[traffic] trials = 1000001 is above 1000000: "
             "a run holds about 0.55 KiB per trial"),
            ("--seed", "4294967296", "[seeds] seed = 4294967296 is above 4294967295: a trial "
             "stream seeds numpy's SeedSequence with [seed, tag, index], one 32-bit word each"),
        ],
    )
    def test_override_error_names_the_flag(self, tmp_path, capsys, flag, value, message):
        ini = self._ini(tmp_path)
        out = tmp_path / "out"
        for command in ("simulate", "compare-ghls"):
            assert main([command, ini, flag, value, "--out-dir", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {flag} {value}: {message}\n"
            assert not out.exists()

    def test_zero_pool_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI.replace("pool = 2", "pool = 0"))
        for command in ("simulate", "compare-ghls"):
            assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err == "error: [topology] pool = 0 must be at least 1\n"

    def test_unknown_kind_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI.replace("kind = oracle", "kind = bogus"))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: [strategy] kind = bogus must be one of ('lpr', 'oracle', 'ghls')\n")

    def test_lpr_without_grouping_names_the_keys(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI.replace("kind = oracle", "kind = lpr"))
        for command in ("simulate", "compare-ghls"):
            assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                "error: [strategy] kind = lpr needs [strategy] grouping\n")

    def test_out_dir_naming_a_file_exits_1(self, tmp_path, capsys):
        # The directory cannot be made: the one OSError path, exit 1.
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["curves", "--fig", "fig2", "--out-dir", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert "Traceback" not in err

    def test_config_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing_section.ini"
        missing.write_text("[topology]\nn = 10\n")
        assert main(["simulate", str(missing),
                     "--out-dir", str(tmp_path)]) == 2
        assert "[traffic]" in capsys.readouterr().err
        assert main(["simulate", str(tmp_path / "nope.ini"),
                     "--out-dir", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err
        # Files configparser itself rejects: no section header, a repeated
        # key, and bytes that are not UTF-8.
        malformed = {
            "no_header.ini": ("n = 5\n", "line: 1"),
            "duplicate.ini": (
                "[topology]\nn = 10\nn = 20\n", "option 'n' in section 'topology'"
            ),
            "latin1.ini": (b"[topology]\nn = 1\xff\n", "position 16"),
        }
        for name, (text, located) in malformed.items():
            path = tmp_path / name
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert name in err and located in err
        # A '%' is read as written, so a stray one is a bad value like any other.
        percent = tmp_path / "percent.ini"
        percent.write_text(ORACLE_INI.replace("kind = oracle", "kind = lpr\ngrouping = 2|10%"))
        assert main(["simulate", str(percent), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: bad value for [strategy] grouping: '2|10%'\n"
        assert not (tmp_path / "trials.csv").exists()


class TestCompareGhls:
    def _ini(self, tmp_path, grouping, extra=""):
        path = tmp_path / "compare.ini"
        path.write_text(SMALL_COMPARE.format(grouping=grouping) + extra)
        return str(path)

    def test_outputs_and_total_structure(self, tmp_path):
        ini = self._ini(tmp_path, "2|3")
        assert main(["compare-ghls", ini, "--out-dir", str(tmp_path)]) == 0
        rows = _csv_rows(tmp_path / "ghls_sweep.csv")
        assert len(rows) == 6
        assert [r["f_over_r"] for r in rows] == ["0.5", "1", "1.5", "2", "2.5", "3"]
        summary = json.loads(_read(tmp_path / "ghls_summary.json"))
        update = summary["update_cost"]
        for row in rows:
            lpr = float(row["profile_total"])
            ghls = float(row["home_server_total"])
            assert lpr == pytest.approx(summary["lpr_request_cost"])
            assert ghls == pytest.approx(
                summary["ghls_request_cost"] + float(row["f_over_r"]) * update
            )
        manifest = json.loads(_read(tmp_path / "compare_ghls_manifest.json"))
        assert manifest["outputs"] == ["ghls_sweep.csv", "ghls_summary.json"]

    def test_single_copy_never_crosses(self, tmp_path):
        # One candidate means one round trip per request, which the
        # two-leg home-server lookup can never undercut.
        ini = self._ini(tmp_path, "1")
        assert main(["compare-ghls", ini, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(_read(tmp_path / "ghls_summary.json"))
        assert summary["t_bar"] == 1.0
        assert summary["analytic_crossover"] == -2.0
        for lpr, ghls in zip(summary["lpr_totals"], summary["ghls_totals"]):
            assert lpr < ghls

    def test_zero_hop_costs_leave_analytic_crossover_undefined(
        self, tmp_path, capsys
    ):
        ini = tmp_path / "zero.ini"
        ini.write_text(ZERO_HOP_COMPARE)
        # Seed 17: s_hat is 0; seed 10: p_hat is 0.
        for seed, zero in (("17", "s_hat"), ("10", "p_hat")):
            out_dir = tmp_path / seed
            assert main(["compare-ghls", str(ini), "--seed", seed,
                         "--out-dir", str(out_dir)]) == 0
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            assert "analytic crossover  f/r = n/a" in captured.out
            summary = json.loads(_read(out_dir / "ghls_summary.json"))
            assert summary[zero] == 0.0
            assert summary["analytic_crossover"] is None

    def test_bad_sweep_exits_2(self, tmp_path, capsys):
        # The sweep is fixed: a file that sets one, well-formed or not,
        # sets an unknown option.
        for sweep in ("", "1, x", "1, -0.5", "0.5, 2"):
            ini = self._ini(tmp_path, "2|3", f"\n[ghls]\nf_over_r = {sweep}\n")
            assert main(["compare-ghls", ini, "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err == "error: unknown option [ghls] f_over_r\n"
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_missing_grouping_names_the_keys(self, tmp_path, capsys):
        path = tmp_path / "oracle.ini"
        path.write_text(ORACLE_INI)
        assert main(["compare-ghls", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: compare-ghls needs [strategy] grouping\n")
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_zero_trials_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_pool(config):
            raise AssertionError("built a pool for a run of no trials")

        monkeypatch.setattr(scenario, "build_pool", no_pool)
        ini = self._ini(tmp_path, "2|3")
        assert main(["compare-ghls", ini, "--trials", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: --trials 0: [traffic] trials = 0 must be at least 1\n")
        path = tmp_path / "compare.ini"
        path.write_text(path.read_text().replace("trials = 120", "trials = 0"))
        assert main(["compare-ghls", ini, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: [traffic] trials = 0 must be at least 1\n"
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_same_scenario_as_simulate(self, tmp_path):
        ini = self._ini(tmp_path, "2|3")
        sim, seq = tmp_path / "sim", tmp_path / "seq"
        assert main(["simulate", ini, "--seed", "3", "--out-dir", str(sim)]) == 0
        assert main(["compare-ghls", ini, "--seed", "3", "--out-dir", str(seq)]) == 0
        summary = json.loads(_read(sim / "summary.json"))
        comparison = json.loads(_read(seq / "ghls_summary.json"))
        assert comparison["lpr_request_cost"] == summary["mean_transmissions"]
        assert comparison["f_over_r"] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        sim_params = json.loads(_read(sim / "simulate_manifest.json"))["parameters"]
        cmp_params = json.loads(_read(seq / "compare_ghls_manifest.json"))["parameters"]
        assert sim_params["config"] == cmp_params["config"]
        assert cmp_params["config"]["seed"] == 3


@pytest.mark.parametrize(
    "command, kind, digests",
    [
        ("simulate", "lpr", {
            "trials.csv": "2b477e6986de2e7ef98c47f640160e11be0c97e6702833a0e0c336a8c3da6e15",
            "summary.json": "a08f48fe4e4a5dd54691e68f663f4db18cb040f602f716899c3bc19f4203c215",
        }),
        ("simulate", "oracle", {
            "trials.csv": "1d8699c34754d7fbc830eb67d1cf276b89cecd1292f1b40e5227074faa9ee01c",
            "summary.json": "1c557be41bf433c6c7d997cbd859012d5477949ae700cdb47259ec76f6c2b080",
        }),
        ("simulate", "ghls", {
            "trials.csv": "a6851e672b059fdec4ee1d8d8ac3049bfc6c249211c843e3d328eb458371ff3c",
            "summary.json": "33d42d1d576ea2c7adf0e77f9e322a9e3aabbda1eb244e084360e8308f292b9f",
        }),
        ("compare-ghls", "lpr", {
            "ghls_sweep.csv": "6522ba5ce8dd86b2dad7dde5b0cab918dfb64f56f2725bee47935c287e8ed0af",
            "ghls_summary.json":
                "300d1b937aa86ae9318263e5a647d4eacafcc6a63affdb8fd182ecba0a635d33",
        }),
    ],
    ids=["simulate-lpr", "simulate-oracle", "simulate-ghls", "compare-ghls"],
)
def test_pinned_output_digests(tmp_path, command, kind, digests):
    # SHA-256 of each output's bytes, pinned so any change to what the
    # simulator writes shows here.
    ini = tmp_path / "pinned.ini"
    ini.write_text(PINNED_INI.format(kind=kind))
    assert main([command, str(ini), "--out-dir", str(tmp_path)]) == 0
    got = {name: hashlib.sha256(_read(tmp_path / name)).hexdigest() for name in digests}
    assert got == digests


class TestHarness:
    def test_out_dir_defaults_to_the_current_directory(self, tmp_path, monkeypatch):
        # --out-dir is the one output location: the old environment
        # variable is ignored, and the manifest records where a run wrote.
        monkeypatch.setenv("LPRLAB_OUT_DIR", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        assert main(["curves", "--fig", "fig2"]) == 0
        assert main(["gen-trace", "--users", "2", "--weeks", "1", "--out-dir", ""]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "curves_manifest.json", "fig2.csv", "gen_trace_manifest.json", "trace.csv"]
        curves = json.loads(_read(tmp_path / "curves_manifest.json"))["parameters"]
        assert curves["out_dir"] == "."
        gen = json.loads(_read(tmp_path / "gen_trace_manifest.json"))
        assert gen["outputs"] == ["trace.csv"]
        assert sorted(gen["parameters"]) == ["out_dir", "seed", "users", "verify", "weeks"]

    def test_readme_names_every_setting(self):
        # Every subcommand option and every scenario key appears in README
        # as a word of some inline code span.
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme, encoding="utf-8") as f:
            prose = re.sub(r"```.*?```", "", f.read(), flags=re.S)
        named = {word for span in re.findall(r"`([^`]+)`", prose) for word in span.split()}
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        settings = {key for _, key in scenario._KEYS}
        for command in subparsers.choices.values():
            settings.update(option for action in command._actions
                            for option in action.option_strings)
        settings -= {"-h", "--help", "--version"}
        assert sorted(settings - named) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "lprlab" in capsys.readouterr().out

    def test_pinned_manifest_digest(self, tmp_path, monkeypatch):
        # SHA-256 of the manifest's bytes: sorted keys, two-space indent, a
        # final newline, and the resolved scenario. Relative paths keep the
        # recorded scenario and out_dir the same wherever the test runs.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pinned.ini").write_text(PINNED_INI.format(kind="lpr"))
        assert main(["simulate", "pinned.ini", "--out-dir", "out"]) == 0
        text = _read(tmp_path / "out" / "simulate_manifest.json")
        assert hashlib.sha256(text).hexdigest() == (
            "6ee50fc0264eafe14579c02eed7b46fea0689b47e0fa9cbff2ed1992a5498b25")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert parsed["seeds"] == [9]

    def test_curves_and_gen_trace_leave_the_simulator_unimported(self, tmp_path):
        # The commands that need no simulator do not pay for importing it.
        out = str(tmp_path)
        code = (
            "import sys\n"
            "from lprlab.cli import main\n"
            f"assert main(['curves', '--k-max', '8', '--out-dir', {out!r}]) == 0\n"
            f"assert main(['gen-trace', '--users', '2', '--weeks', '1', '--verify',"
            f" '--out-dir', {out!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m.startswith('lprlab.simnet')]\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.dirname(scenario.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=120)
        assert (tmp_path / "fig7.csv").exists() and (tmp_path / "trace.csv").exists()

"""Command-line behavior: outputs, manifests, determinism, exit codes.

Commands run in-process through main() so exit codes and stderr are
observable without spawning an interpreter.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

from lprlab.analytic import BetaGeometricModel, zeroth_order_cdf
from lprlab.cli import ENV_OUT_DIR, RunManifest, main
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
        flat = BetaGeometricModel(0.657)
        for row in _csv_rows(tmp_path / "fig3.csv"):
            avg = float(row["success_avg"])
            assert float(row["success_night"]) == pytest.approx(avg, rel=1e-9)
            assert float(row["success_day"]) == pytest.approx(avg, rel=1e-9)
            k = int(row["k"])
            assert avg == pytest.approx(zeroth_order_cdf(k, flat), rel=1e-9)

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
        assert "k must be in [1, 20], got 21" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_bad_k_max(self, tmp_path, capsys):
        assert main(["curves", "--fig", "fig2", "--k-max", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: k_max must be >= 1, got 0\n"

    @pytest.mark.parametrize("c", ["1.0", "0", "nan"])
    def test_bad_constant_regularity_names_its_flag(self, tmp_path, capsys, c):
        assert main(["curves", "--c", c, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --c must be in (0, 1), got {float(c)}\n"
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
        main(["gen-trace", "--users", "2", "--weeks", "1", "--seed", "1",
              "--out", "a.csv", "--out-dir", str(tmp_path)])
        main(["gen-trace", "--users", "2", "--weeks", "1", "--seed", "2",
              "--out", "b.csv", "--out-dir", str(tmp_path)])
        assert _read(tmp_path / "a.csv") != _read(tmp_path / "b.csv")

    def test_two_locations_floorless(self, tmp_path):
        assert main(["gen-trace", "--users", "3", "--weeks", "1",
                     "--locations", "2", "--floor", "0",
                     "--out-dir", str(tmp_path)]) == 0
        for trace in read_trace_csv(str(tmp_path / "trace.csv")):
            cells = [(int(x), int(y)) for x, y in trace.cells]
            distinct = set(cells)
            assert len(distinct) <= 2
            top = max(distinct, key=cells.count)
            assert cells.count(top) > len(cells) / 2

    def test_invalid_flag_named_in_error(self, tmp_path, capsys):
        assert main(["gen-trace", "--users", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert "--users" in capsys.readouterr().err
        assert main(["gen-trace", "--floor", "0.31",
                     "--out-dir", str(tmp_path)]) == 2
        assert "--floor" in capsys.readouterr().err
        assert main(["gen-trace", "--seed", "-1",
                     "--out-dir", str(tmp_path)]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert main(["gen-trace", "--weeks", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert "--weeks must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


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
            ("[seeds]", "nan", "must be non-negative"),
            ("[seeds]", "inf", "must be non-negative"),
        ):
            if key == "[seeds]":
                sweep = f"[ghls]\nf_over_r = 1.0, {value}\n\n"
                text = ORACLE_INI.replace(key, sweep + key)
            else:
                text = ORACLE_INI.replace(key, f"{key.split(' =')[0]} = {value}")
            path = tmp_path / "scenario.ini"
            path.write_text(text)
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
        for old, new, reason in (
            ("n = 80", "n = 10000000000", "(n, n, 2) array"),
            ("grid_cells = 8", "grid_cells = 100000", "grid_cells**2 cells"),
        ):
            path = tmp_path / "scenario.ini"
            path.write_text(ORACLE_INI.replace(old, new))
            for command in ("simulate", "compare-ghls"):
                start = time.perf_counter()
                assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
                assert time.perf_counter() - start < 1.0
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err
                assert f"[topology] {new}" in err and reason in err
        assert not (tmp_path / "trials.csv").exists()
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_too_many_candidates_exit_2(self, tmp_path, capsys):
        # Of 10201 cells numpy's choice draws at most 204 by the Floyd's
        # algorithm that the trial draws copy.
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI.replace("grid_cells = 8", "grid_cells = 101\ncell_margin = 0")
                        .replace("n_candidates = 5", "n_candidates = 205"))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [traffic] n_candidates = 205 is above 204: ")
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
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_zero_pool_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text(ORACLE_INI.replace("pool = 2", "pool = 0"))
        for command in ("simulate", "compare-ghls"):
            assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err == "error: [topology] pool = 0 must be at least 1\n"

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
        # key, a bare '%' that interpolation cannot parse, and bytes that
        # are not UTF-8.
        malformed = {
            "no_header.ini": ("n = 5\n", "line: 1"),
            "duplicate.ini": (
                "[topology]\nn = 10\nn = 20\n", "option 'n' in section 'topology'"
            ),
            "percent.ini": (
                ORACLE_INI.replace("kind = oracle", "kind = lpr\ngrouping = 2|10%"),
                "[strategy] grouping",
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
        for sweep, message in (
            ("", "bad value for [ghls] f_over_r: ''"),
            ("1, x", "bad value for [ghls] f_over_r: '1, x'"),
            ("1, -0.5", "f_over_r values must be non-negative"),
        ):
            ini = self._ini(tmp_path, "2|3", f"\n[ghls]\nf_over_r = {sweep}\n")
            assert main(["compare-ghls", ini, "--out-dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_missing_grouping_names_the_keys(self, tmp_path, capsys):
        path = tmp_path / "oracle.ini"
        path.write_text(ORACLE_INI)
        assert main(["compare-ghls", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: compare-ghls needs [strategy] grouping or k\n")
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        ini = self._ini(tmp_path, "2|3")
        assert main(["compare-ghls", ini, "--trials", "0",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "at least one trial" in err and "Traceback" not in err
        assert not (tmp_path / "ghls_sweep.csv").exists()

    def test_same_scenario_as_simulate(self, tmp_path):
        ini = self._ini(tmp_path, "2|3", "\n[ghls]\nf_over_r = 0.5, 2\n")
        sim, seq = tmp_path / "sim", tmp_path / "seq"
        assert main(["simulate", ini, "--seed", "3", "--out-dir", str(sim)]) == 0
        assert main(["compare-ghls", ini, "--seed", "3", "--out-dir", str(seq)]) == 0
        summary = json.loads(_read(sim / "summary.json"))
        comparison = json.loads(_read(seq / "ghls_summary.json"))
        assert comparison["lpr_request_cost"] == summary["mean_transmissions"]
        assert comparison["f_over_r"] == [0.5, 2.0]
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
    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert main(["curves", "--fig", "fig2"]) == 0
        assert (tmp_path / "fig2.csv").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "lprlab" in capsys.readouterr().out

    def test_manifest_json_is_sorted_and_stable(self):
        manifest = RunManifest(
            command="curves",
            parameters={"fig": "all", "k": 12},
            seeds=(3,),
            version="0.1.0",
            outputs=("a.csv",),
        )
        text = manifest.to_json()
        assert text == manifest.to_json()
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert parsed["seeds"] == [3]

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

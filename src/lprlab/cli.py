"""Command-line entry point.

Subcommands cover the four artifact families: `curves` exports the
closed-form model curves as CSV, `gen-trace` writes synthetic mobility
traces, `simulate` runs a delivery scenario from an INI file, and
`compare-ghls` sweeps the same scenario's update-to-request ratio
against a home-server baseline. Every command writes a JSON manifest
naming its outputs. Every output goes to `--out-dir` (default: the
current directory) under a fixed file name, and re-running a command
with the same flags and files reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__, figures
from .analytic import DEFAULT_C1, DEFAULT_C2, DEFAULT_C3, RegularityModel, hourly_regularity
from .mobility import MobilityParams, empirical_regularity, generate_trace
from .profile import write_trace_csv

if TYPE_CHECKING:
    from .simnet.scenario import ScenarioConfig

__all__ = ["build_parser", "main"]

_FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig7")

# The gen-trace flag that sets each MobilityParams field.
_TRACE_FLAGS = {"n_users": "--users", "n_weeks": "--weeks", "seed": "--seed"}


def _json_text(value: dict) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _write_text(path: str, text: str) -> None:
    with figures.atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _make_out_dir(out_dir: str) -> str:
    os.makedirs(out_dir or ".", exist_ok=True)  # '' is the current directory
    return out_dir


def _name_the_flag(exc: ValueError, flags: dict[str, tuple[str, object]]) -> ValueError:
    """exc with "--flag value: " in front when its message starts with
    what the flag sets; flags maps each flag to (what it sets, value)."""
    for flag, (sets, value) in flags.items():
        if str(exc).startswith(f"{sets} "):
            return ValueError(f"{flag} {value}: {exc}")
    return exc


def _finish(args: argparse.Namespace, out_dir: str, outputs: list[str],
            seeds: tuple[int, ...], config: ScenarioConfig | None = None) -> None:
    # The manifest is written last: its presence certifies that every
    # listed output landed completely.
    parameters = {key: value for key, value in vars(args).items()
                  if key not in ("func", "command")}
    if config is not None:
        parameters["config"] = asdict(config)  # the scenario as it ran
    manifest = {"command": args.command, "parameters": parameters, "seeds": seeds,
                "version": __version__, "outputs": outputs}
    path = os.path.join(out_dir, f"{args.command.replace('-', '_')}_manifest.json")
    _write_text(path, _json_text(manifest))
    print(f"wrote {path}")


def _check_regularity(model: RegularityModel) -> None:
    """Reject flags that put R(t) outside (0, 1) at some hour midpoint."""
    try:
        hourly_regularity(model)
    except ValueError as exc:
        raise ValueError(
            f"--c1 {model.c1:g} --c2 {model.c2:g} --c3 {model.c3:g} give {exc}"
        ) from None


def _curve_rows(name: str, args: argparse.Namespace,
                model: RegularityModel) -> tuple[list[str], list[tuple]]:
    if name == "fig2":
        return figures.success_cdf_rows(args.k_max)
    if name == "fig3":
        return figures.time_averaged_rows(args.k_max, model)
    if name == "fig4":
        return figures.first_try_pmf_rows(args.k_max)
    if name == "fig5":
        return figures.retry_pmf_rows(args.k_max, model)
    return figures.grouping_front_rows(args.k, model)


def cmd_curves(args: argparse.Namespace) -> int:
    model = RegularityModel(args.c1, args.c2, args.c3)
    _check_regularity(model)
    selected = _FIGURES if args.fig == "all" else (args.fig,)
    # Every family is computed before the first write, so a rejected flag
    # leaves no partial output set behind.
    try:
        tables = {name: _curve_rows(name, args, model) for name in selected}
    except ValueError as exc:
        flags = {"--k": ("k", args.k), "--k-max": ("k_max", args.k_max)}
        raise _name_the_flag(exc, flags) from None
    out_dir = _make_out_dir(args.out_dir)
    outputs = []
    for name, (header, rows) in tables.items():
        filename = f"{name}.csv"
        figures.write_csv(os.path.join(out_dir, filename), header, rows)
        outputs.append(filename)
        print(f"wrote {os.path.join(out_dir, filename)} ({len(rows)} rows)")
    _finish(args, out_dir, outputs, ())
    return 0


def _trace_params(args: argparse.Namespace) -> MobilityParams:
    values = {name: vars(args)[flag[2:]] for name, flag in _TRACE_FLAGS.items()}
    try:
        return MobilityParams(**values)
    except ValueError as exc:
        flags = {flag: (name, values[name]) for name, flag in _TRACE_FLAGS.items()}
        raise _name_the_flag(exc, flags) from None


def cmd_gen_trace(args: argparse.Namespace) -> int:
    params = _trace_params(args)
    traces = generate_trace(params)
    out_dir = _make_out_dir(args.out_dir)
    path = os.path.join(out_dir, "trace.csv")
    with figures.atomic_path(path) as tmp:
        write_trace_csv(traces, tmp)
    print(f"wrote {path} ({sum(len(t) for t in traces)} observations)")
    _finish(args, out_dir, ["trace.csv"], (args.seed,))
    if args.verify:
        return _verify_trace(traces, params)
    return 0


def _verify_trace(traces, params: MobilityParams) -> int:
    """Compare per-hour modal-cell frequency against the model curve."""
    expected = np.array(hourly_regularity())
    samples = params.n_users * params.n_weeks
    sigma = np.sqrt(expected * (1.0 - expected) / samples)
    deviation = np.abs(empirical_regularity(traces) - expected)
    z = deviation / sigma
    worst = int(np.argmax(z))
    ok = bool(z[worst] <= 4.5)
    status = "passed" if ok else "FAILED"
    print(
        f"self-check {status}: max deviation {deviation[worst]:.4f} "
        f"(bound {4.5 * sigma[worst]:.4f} at {samples} samples per hour)"
    )
    return 0 if ok else 1


def _print_summary(record_dict: dict) -> None:
    width = max(len(key) for key in record_dict)
    for key, value in record_dict.items():
        if isinstance(value, float):
            value = format(value, ".6g")
        print(f"  {key:<{width}}  {value}")


# The scenario key that each override flag sets.
_FLAG_KEYS = {"seed": "[seeds] seed", "trials": "[traffic] trials"}


def _run_config(args: argparse.Namespace, run: Callable) -> tuple:
    """The scenario file with --seed and --trials applied, and run's result
    on it; an error about a key that a flag set names the flag too."""
    # The simulator is imported by the commands that run it only, so
    # `curves` and `gen-trace` never load it.
    from .simnet.scenario import load_scenario

    config = load_scenario(args.scenario)
    flags = {name: vars(args)[name] for name in _FLAG_KEYS if vars(args)[name] is not None}
    try:
        config = replace(config, **flags)
        return config, run(config)
    except ValueError as exc:
        raise _name_the_flag(
            exc, {f"--{name}": (_FLAG_KEYS[name], value) for name, value in flags.items()}
        ) from None


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simnet.scenario import TrialRow, run_scenario

    config, (record, rows) = _run_config(args, run_scenario)
    out_dir = _make_out_dir(args.out_dir)

    trials_path = os.path.join(out_dir, "trials.csv")
    figures.write_csv(
        trials_path,
        tuple(f.name for f in fields(TrialRow)),
        (
            [int(v) if isinstance(v, bool) else v for v in astuple(row)]
            for row in rows
        ),
    )
    summary = record.as_dict()
    _write_text(os.path.join(out_dir, "summary.json"), _json_text(summary))
    print(f"wrote {trials_path} ({len(rows)} rows)")
    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    _print_summary(summary)
    _finish(args, out_dir, ["trials.csv", "summary.json"], (config.seed,), config)
    return 0


def cmd_compare_ghls(args: argparse.Namespace) -> int:
    from .simnet.scenario import compare_ghls

    config, comparison = _run_config(args, compare_ghls)
    out_dir = _make_out_dir(args.out_dir)
    sweep_path = os.path.join(out_dir, "ghls_sweep.csv")
    figures.write_csv(
        sweep_path,
        ("f_over_r", "profile_total", "home_server_total"),
        zip(comparison.f_over_r, comparison.lpr_totals, comparison.ghls_totals),
    )
    _write_text(os.path.join(out_dir, "ghls_summary.json"), _json_text(comparison.as_dict()))
    print(f"wrote {sweep_path} ({len(comparison.f_over_r)} rows)")
    print(f"wrote {os.path.join(out_dir, 'ghls_summary.json')}")
    for label, cross in (("empirical crossover", comparison.crossover),
                         ("analytic crossover ", comparison.analytic_crossover)):
        print(f"  {label} f/r = " + ("n/a" if cross is None else f"{cross:.3f}"))
    print(
        f"  s_hat {comparison.s_hat:.3f}  p_hat {comparison.p_hat:.3f}  "
        f"t_bar {comparison.t_bar:.3f}"
    )
    _finish(args, out_dir, ["ghls_sweep.csv", "ghls_summary.json"], (config.seed,),
            config)
    return 0


def _add_out_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out-dir",
        default=".",
        help="output directory (default: the current directory)",
    )


def build_parser() -> argparse.ArgumentParser:
    # Flags are spelled in full: a prefix such as --out would otherwise
    # quietly set --out-dir.
    parser = argparse.ArgumentParser(
        prog="lprlab",
        description="Location-profile routing workbench",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curves = sub.add_parser(
        "curves", help="export the closed-form model curve families as CSV", allow_abbrev=False
    )
    curves.add_argument(
        "--fig", choices=(*_FIGURES, "all"), default="all",
        help="curve family to export (default: all)",
    )
    curves.add_argument(
        "--k-max", type=int, default=50, dest="k_max",
        help="largest candidate count for the cdf/pmf families",
    )
    curves.add_argument(
        "--k", type=int, default=12, help="candidate count for the fig7 front"
    )
    curves.add_argument("--c1", type=float, default=DEFAULT_C1)
    curves.add_argument("--c2", type=float, default=DEFAULT_C2)
    curves.add_argument("--c3", type=float, default=DEFAULT_C3)
    _add_out_dir(curves)
    curves.set_defaults(func=cmd_curves)

    gen = sub.add_parser("gen-trace", help="generate synthetic mobility traces",
                         allow_abbrev=False)
    defaults = MobilityParams()
    for name, flag in _TRACE_FLAGS.items():
        gen.add_argument(flag, type=int, default=getattr(defaults, name))
    gen.add_argument(
        "--verify", action="store_true",
        help="check the trace's hourly regularity against the model curve",
    )
    _add_out_dir(gen)
    gen.set_defaults(func=cmd_gen_trace)

    for name, func, summary in (
        ("simulate", cmd_simulate, "run a delivery scenario from an INI file"),
        ("compare-ghls", cmd_compare_ghls,
         "sweep a scenario's update rates: profile delivery vs a hashed home server"),
    ):
        scenario = sub.add_parser(name, help=summary, allow_abbrev=False)
        scenario.add_argument("scenario", help="scenario INI file")
        for name, key in _FLAG_KEYS.items():
            scenario.add_argument(f"--{name}", type=int, default=None, help=f"override {key}")
        _add_out_dir(scenario)
        scenario.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipelines: simulate, fit, grid-search, evaluate, reproduce,
bench.

Every command reads an optional TOML config file (its top-level keys match the
long flag names of any subcommand, with dashes or underscores) and lets
explicit flags override it.  Floats in CSV files carry
17 significant digits and in JSON files their shortest round-trip repr; human
summaries use 4.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .estimator import FitConfig, FitError, FittedModel, fit, g_curve
from .events import read_events_csv, write_events_csv, write_table
from .evaluation import GridSpec, bench_factorization, bench_scaling
from .evaluation import fit_scenario_draws, grid_search, ise, ise_on_grid
from .features import KernelSpec, build_basis
from .simulation import SCENARIOS, read_curves_csv, simulate, true_curves, write_curves_csv

SEED_ENV = "HAWKES_RKHS_SEED"


class UsageError(Exception):
    """A command line that cannot run as given; ``main`` exits with 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".4g")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_config(path) -> dict:
    """The top-level keys of a TOML file, dashes in them read as underscores;
    a file that is not TOML raises ValueError naming it."""
    import tomllib  # here, so that a run without --config does not import it

    with open(path, "rb") as fh:
        try:
            doc = tomllib.load(fh)
        except ValueError as exc:  # TOMLDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    return {key.replace("-", "_"): value for key, value in doc.items()}


# Options of each subcommand, dest -> (type, default[, help]), which drive
# both the parser and ``_resolve``.  The flag is the dest with dashes, and
# every subcommand also takes --config.
COMMANDS = {
    "simulate": ("draw a synthetic event sequence", {
        "scenario": (str, None), "t_end": (float, None), "seed": (int, None),
        "out": (str, None), "curves_out": (str, None)}),
    "fit": ("fit baselines and triggering kernels", {
        "events": (str, None), "gamma": (float, 1.0), "beta": (float, 1.0),
        "features": (int, 100), "window": (float, 5.0), "horizon": (float, None),
        "seed": (int, None), "out": (str, None)}),
    "grid-search": ("hyperparameter search with a validation split", {
        "events": (str, None), "gammas": (str, "0.1,0.5,1.0"),
        "betas": (str, "0.5,1.0,1.5"), "features": (int, 100), "window": (float, 5.0),
        "split": (float, 0.8), "horizon": (float, None), "seed": (int, None),
        "workers": (int, None), "out": (str, None)}),
    "evaluate": ("integrated squared error against ground truth", {
        "model": (str, None), "scenario": (str, None), "truth_curves": (str, None),
        "out": (str, None), "curves_out": (str, None)}),
    "reproduce": ("the paper's benchmark protocol over a range of seeds", {
        "scenario": (str, None), "t_end": (float, 2000.0),
        "seeds": (str, None, "inclusive seed range, e.g. 160-169"),
        "features": (int, 100), "workers": (int, 2),
        "baseline": (float, None, "refractory baseline intensity")}),
    "bench": ("runtime scaling benchmarks", {
        "scenario": (str, "mutually-exciting"), "horizons": (str, "250,500,1000"),
        "features": (int, 100), "reps": (int, 1), "fact_features": (str, None),
        "seed": (int, None), "out": (str, None)}),
}


def _resolve(args) -> dict:
    """Effective options of the chosen subcommand: flag value, else
    config-file value as the option's type, else default.  A config key that
    no subcommand declares is an error; keys of other subcommands are allowed,
    so one file can drive a whole pipeline."""
    config = load_config(args.config) if args.config else {}
    known = {key for _, options in COMMANDS.values() for key in options}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
    out = {}
    for key, (kind, fallback, *_) in COMMANDS[args.command][1].items():
        out[key] = getattr(args, key)
        if out[key] is None:
            out[key] = (_config_value(args.config, key, kind, config[key]) if key in config
                        else fallback)
    return out


def _config_value(path, key, kind, value):
    """Config ``value`` of option ``key`` as the option's type, else UsageError
    naming the file and the key; a table, array or date is no option value, a
    bool no number, and an int no fraction."""
    try:
        if (not isinstance(value, (str, int, float))
                or kind is not str and isinstance(value, bool)
                or kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except ValueError:
        raise UsageError(f"{path}: {key} = {value!r} is not a valid {kind.__name__}") from None


def _seed_or_none(value):
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV)
    try:
        return int(env) if env else None
    except ValueError:
        raise UsageError(f"{SEED_ENV}={env} is not an integer seed") from None


def _writable(*paths) -> None:
    """Raise OSError naming the first output path whose directory is not writable."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(str(path))) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise OSError(f"cannot write to {path}")


def _scenario(name):
    """Factory of the named scenario; UsageError for an unknown name."""
    if name not in SCENARIOS:
        raise UsageError(f"unknown scenario {name!r}; valid scenarios: "
                         + ", ".join(sorted(SCENARIOS)))
    return SCENARIOS[name]


def _number_list(opts, key, kind=float) -> tuple:
    """Option ``key`` as comma-separated numbers; UsageError naming it if not."""
    try:
        return tuple(kind(v) for v in str(opts[key]).split(",") if v.strip())
    except ValueError:
        raise UsageError(f"--{key.replace('_', '-')} {opts[key]} is not a list of "
                         f"{'integers' if kind is int else 'numbers'}") from None


def _positive(opts, key):
    """Option ``key``; UsageError naming it if set but not positive and finite."""
    if opts[key] is not None and not 0.0 < opts[key] < np.inf:
        raise UsageError(f"--{key.replace('_', '-')} {opts[key]} is not a positive finite number")
    return opts[key]


def _fit_inputs(opts, command):
    """Seed and events (over --horizon if given) of fit and grid-search; UsageError
    for a missing --events or --out or a --horizon not positive and finite."""
    if opts["events"] is None or opts["out"] is None:
        raise UsageError(f"{command} requires --events and --out")
    seed = _seed_or_none(opts["seed"]) or 0
    T = _positive(opts, "horizon")
    _writable(opts["out"])
    return seed, read_events_csv(opts["events"], T=T)[0]


def run_simulate(opts) -> int:
    spec = _scenario(opts["scenario"])()
    seed = _seed_or_none(opts["seed"])
    if seed is None:
        raise UsageError(f"simulate requires --seed (or {SEED_ENV})")
    if opts["t_end"] is None or opts["out"] is None:
        raise UsageError("simulate requires --t-end and --out")
    _positive(opts, "t_end")
    curves_path = opts["curves_out"] or os.path.splitext(opts["out"])[0] + "_curves.csv"
    _writable(opts["out"], curves_path)
    result = simulate(spec, opts["t_end"], seed)
    write_events_csv(opts["out"], result.events,
                     {"scenario": opts["scenario"], "seed": seed})
    write_curves_csv(curves_path, spec)
    print(f"simulated {len(result.events)} events on [0, {_fmt(opts['t_end'])}] "
          f"(scenario={opts['scenario']}, seed={seed})")
    print(f"events -> {opts['out']}")
    print(f"truth curves -> {curves_path}")
    return 0


def run_fit(opts) -> int:
    seed, events = _fit_inputs(opts, "fit")
    basis = build_basis(KernelSpec(beta=opts["beta"]), opts["features"], seed)
    config = FitConfig(gamma=opts["gamma"], A=opts["window"], basis=basis)
    try:
        model = fit(events, config)
    except (FitError, ValueError) as exc:  # LinAlgError is a ValueError
        raise ValueError(f"fit failed on {opts['events']}: {exc}") from exc
    _write_json(opts["out"], model.to_dict())
    mu = ", ".join(_fmt(v) for v in model.mu_hat)
    mu_c = ", ".join(_fmt(v) for v in model.mu_hat_clipped)
    print(f"fit {len(events)} events, U={events.U}, M={basis.M}, "
          f"gamma={_fmt(config.gamma)}, beta={_fmt(basis.beta)}")
    print(f"mu_hat = [{mu}]  (clipped: [{mu_c}])")
    print(f"timings: xi {_fmt(model.stats['xi_build_s'])}s, "
          f"solve {_fmt(model.stats['solve_s'])}s, "
          f"total {_fmt(model.stats['total_s'])}s; "
          f"condition estimate {_fmt(model.stats['condition_estimate'])}")
    print(f"model -> {opts['out']}")
    return 0


def run_grid_search(opts) -> int:
    workers = _positive(opts, "workers") or os.cpu_count() or 1
    seed, events = _fit_inputs(opts, "grid-search")
    grid = GridSpec(_number_list(opts, "gammas"), _number_list(opts, "betas"), opts["split"])
    best, cells = grid_search(events, grid, opts["features"], opts["window"], seed, workers=workers)
    doc = {
        "chosen": best.to_dict(),
        "cells": [cell.to_dict() for cell in cells],
        "seed": seed,
        "split": opts["split"],
    }
    _write_json(opts["out"], doc)
    for cell in cells:
        status = f"loss {_fmt(cell.ls_loss)}" if cell.error is None else f"FAILED ({cell.error})"
        marker = " <- chosen" if (cell.gamma, cell.beta) == (best.gamma, best.beta) else ""
        print(f"gamma={_fmt(cell.gamma)} beta={_fmt(cell.beta)}: {status}{marker}")
    print(f"report -> {opts['out']}")
    return 0


def run_evaluate(opts) -> int:
    if opts["model"] is None or opts["out"] is None:
        raise UsageError("evaluate requires --model and --out")
    if (opts["scenario"] is None) == (opts["truth_curves"] is None):
        raise UsageError("pass exactly one of --scenario or --truth-curves")
    try:
        with open(opts["model"]) as fh:
            model = FittedModel.from_dict(json.load(fh))
    except (ValueError, OSError, KeyError) as exc:
        raise ValueError(f"cannot load model {opts['model']}: {exc}") from exc
    if opts["scenario"] is not None:
        truth = _scenario(opts["scenario"])()
        report = ise(truth, model)
        s = np.linspace(0.0, truth.A, 501)
        curves = true_curves(truth, s)
    else:
        s, curves, _ = read_curves_csv(opts["truth_curves"])
        report = ise_on_grid(s, curves, model)
    _write_json(opts["out"], report.to_dict())
    if opts["curves_out"]:
        _write_pair_curves(opts["curves_out"], s, curves, model)
    print(f"delta^2 = {_fmt(report.delta_sq)}")
    for i in range(model.U):
        row = ", ".join(_fmt(report.per_pair[i, j]) for j in range(model.U))
        print(f"  pair errors row {i + 1}: [{row}]")
    print(f"report -> {opts['out']}")
    return 0


def _write_pair_curves(prefix, s, truth_curves, model) -> None:
    for i in range(model.U):
        for j in range(model.U):
            est = g_curve(model, i + 1, j + 1, s)
            write_table(f"{prefix}_g{i + 1}{j + 1}.csv", {}, ("s", "g_true", "g_hat"),
                        np.column_stack([s, truth_curves[i, j], est]).tolist())


# default seed ranges of the two benchmark reproductions
_REPRODUCE_SEEDS = {"mutually-exciting": "160-169", "refractory": "1-10"}


def run_reproduce(opts) -> int:
    if opts["scenario"] not in _REPRODUCE_SEEDS:
        raise UsageError("reproduce needs --scenario, one of: "
                         + ", ".join(sorted(_REPRODUCE_SEEDS)))
    if opts["baseline"] is not None and opts["scenario"] != "refractory":
        raise UsageError("--baseline applies to the refractory scenario only")
    text = str(opts["seeds"] or _REPRODUCE_SEEDS[opts["scenario"]])
    match = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", text)
    seeds = range(int(match[1]), int(match[2] or match[1]) + 1) if match else range(0)
    if not seeds:
        raise UsageError(f"--seeds {text} is not a seed range: expected N or N-M with N <= M")
    factory = SCENARIOS[opts["scenario"]]
    spec = factory() if opts["baseline"] is None else factory(opts["baseline"])
    t_end, workers = _positive(opts, "t_end"), _positive(opts, "workers")
    grid = GridSpec((0.1, 0.5, 1.0), (0.5, 1.0, 1.5))
    d2, counts, refit = [], [], []
    draws = fit_scenario_draws(spec, t_end, seeds, grid, M=opts["features"], workers=workers)
    for seed, (report, model, events, wall) in zip(seeds, draws):
        d2.append(report.delta_sq)
        counts.append(len(events))
        refit.append(model.stats["solve_s"])
        print(f"seed {seed:4d}: N={len(events):5d}  "
              f"chosen (gamma={report.gamma}, beta={report.beta})  "
              f"delta^2={report.delta_sq:6.3f}  refit wall={_fmt(refit[-1])}s  "
              f"wall={wall:.1f}s")
    n = len(d2)
    baseline = f"baseline={spec.mu[0]}  " if opts["scenario"] == "refractory" else ""
    print(f"\nT={t_end:.0f}  {baseline}N~ {np.mean(counts):.0f}   "
          f"delta^2 {np.mean(d2):.2f} ({np.std(d2) / np.sqrt(n):.2f})   "
          f"refit wall {_fmt(np.mean(refit))}s ({_fmt(np.std(refit) / np.sqrt(n))})")
    return 0


def run_bench(opts) -> int:
    spec = _scenario(opts["scenario"])()
    seed = _seed_or_none(opts["seed"]) or 0
    horizons = _number_list(opts, "horizons")
    m_values = _number_list(opts, "fact_features", int) if opts["fact_features"] else ()
    rows, slopes = bench_scaling(spec, horizons, opts["features"], reps=opts["reps"], seed=seed)
    doc = {"scaling": rows, "slopes": slopes}
    if opts["fact_features"]:  # both tables are measured before either prints
        events = simulate(spec, horizons[0], seed).events
        fact_rows, fact_slopes = bench_factorization(events, m_values, reps=opts["reps"])
        doc["factorization"] = fact_rows
        doc["slopes"].update(fact_slopes)
    print(f"{'T':>8} {'events':>8} {'xi_build_s':>11} {'solve_s':>9} {'total_s':>9}")
    for r in rows:
        print(f"{r['T']:>8.0f} {r['n_events']:>8d} {r['xi_build_s']:>11.4g} "
              f"{r['solve_s']:>9.4g} {r['total_s']:>9.4g}")
    print(f"xi-build vs events log-log slope: {_fmt(slopes['xi_build_vs_events'])}")
    if "factorization" in doc:
        for r in doc["factorization"]:
            print(f"M={r['M']:>5d} size={r['size']:>6d} factorize {r['factorize_s']:.4g}s")
        print(f"factorize vs M log-log slope: {_fmt(slopes['factorize_vs_M'])}")
    if opts["out"]:
        _write_json(opts["out"], doc)
        print(f"bench table -> {opts['out']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkes-rkhs",
        description="Triggering-kernel estimation for multivariate Hawkes processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for dest, (kind, _, *text) in options.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind,
                           help=text[0] if text else None)
        p.add_argument("--config")
        # looked up on each call, so that a wrapped run_* is the one called
        p.set_defaults(func=globals()["run_" + command.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args))
    except (UsageError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())

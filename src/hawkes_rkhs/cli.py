"""Command-line pipelines: simulate, fit, grid-search, evaluate, reproduce,
bench.

Every command reads an optional flat key=value config file (a TOML-compatible
subset; keys match the long flag names of any subcommand, with dashes or
underscores) and lets explicit flags override it.  Machine artifacts print
floats with 17 significant digits; human summaries use 4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .estimator import FitConfig, FitError, FittedModel, fit, g_curve
from .events import read_events_csv, write_events_csv
from .evaluation import GridSpec, bench_factorization, bench_scaling
from .evaluation import fit_scenario_draw, grid_search, ise, ise_on_grid
from .features import KernelSpec, build_basis
from .simulation import SCENARIOS, read_curves_csv, simulate, write_curves_csv

SEED_ENV = "HAWKES_RKHS_SEED"


def _fmt(x: float) -> str:
    return format(float(x), ".4g")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(_json_ready(doc), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_config(path) -> dict:
    """Parse a flat key = value config file; '#' starts a comment."""
    opts = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                opts[key] = value[1:-1]
            elif value.lower() in ("true", "false"):
                opts[key] = value.lower() == "true"
            else:
                try:
                    opts[key] = int(value)
                except ValueError:
                    try:
                        opts[key] = float(value)
                    except ValueError:
                        opts[key] = value
    return opts


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
    config-file value, else default.  A config key that no subcommand
    declares is an error; keys of other subcommands are allowed, so one
    file can drive a whole pipeline."""
    config = load_config(args.config) if args.config else {}
    known = {key for _, options in COMMANDS.values() for key in options}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
    out = {}
    for key, (_, fallback, *_) in COMMANDS[args.command][1].items():
        value = getattr(args, key)
        out[key] = config.get(key, fallback) if value is None else value
    return out


def _seed_or_none(value):
    if value is not None:
        return int(value)
    env = os.environ.get(SEED_ENV)
    return int(env) if env else None


def _writable(*paths) -> str | None:
    """Name of the first output path whose directory is not writable."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(str(path))) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            return str(path)
    return None


def _float_list(text) -> tuple:
    return tuple(float(v) for v in str(text).split(",") if v.strip())


def run_simulate(opts) -> int:
    if opts["scenario"] not in SCENARIOS:
        print(f"error: unknown scenario {opts['scenario']!r}; valid scenarios: "
              + ", ".join(sorted(SCENARIOS)), file=sys.stderr)
        return 2
    seed = _seed_or_none(opts["seed"])
    if seed is None:
        print(f"error: simulate requires --seed (or {SEED_ENV})", file=sys.stderr)
        return 2
    if opts["t_end"] is None or opts["out"] is None:
        print("error: simulate requires --t-end and --out", file=sys.stderr)
        return 2
    curves_path = opts["curves_out"] or _derived_path(opts["out"], "_curves.csv")
    bad = _writable(opts["out"], curves_path)
    if bad is not None:
        print(f"error: cannot write to {bad}", file=sys.stderr)
        return 1
    spec = SCENARIOS[opts["scenario"]]()
    result = simulate(spec, float(opts["t_end"]), seed)
    write_events_csv(opts["out"], result.events,
                     {"scenario": opts["scenario"], "seed": seed})
    write_curves_csv(curves_path, spec)
    print(f"simulated {len(result.events)} events on [0, {_fmt(opts['t_end'])}] "
          f"(scenario={opts['scenario']}, seed={seed})")
    print(f"events -> {opts['out']}")
    print(f"truth curves -> {curves_path}")
    return 0


def _derived_path(base, suffix: str) -> str:
    stem, dot, _ = str(base).rpartition(".")
    return (stem if dot else str(base)) + suffix


def run_fit(opts) -> int:
    if opts["events"] is None or opts["out"] is None:
        print("error: fit requires --events and --out", file=sys.stderr)
        return 2
    seed = _seed_or_none(opts["seed"])
    if seed is None:
        seed = 0
    bad = _writable(opts["out"])
    if bad is not None:
        print(f"error: cannot write to {bad}", file=sys.stderr)
        return 1
    try:
        events, meta = read_events_csv(opts["events"], T=opts["horizon"])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    basis = build_basis(KernelSpec(beta=float(opts["beta"])), int(opts["features"]), seed)
    config = FitConfig(gamma=float(opts["gamma"]), A=float(opts["window"]), basis=basis)
    try:
        model = fit(events, config)
    except (FitError, ValueError) as exc:  # LinAlgError is a ValueError
        print(f"error: fit failed on {opts['events']}: {exc}", file=sys.stderr)
        return 1
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
    if opts["events"] is None or opts["out"] is None:
        print("error: grid-search requires --events and --out", file=sys.stderr)
        return 2
    seed = _seed_or_none(opts["seed"]) or 0
    workers = int(opts["workers"]) if opts["workers"] else (os.cpu_count() or 1)
    bad = _writable(opts["out"])
    if bad is not None:
        print(f"error: cannot write to {bad}", file=sys.stderr)
        return 1
    try:
        events, _ = read_events_csv(opts["events"], T=opts["horizon"])
        grid = GridSpec(_float_list(opts["gammas"]), _float_list(opts["betas"]),
                        float(opts["split"]))
        best, cells = grid_search(events, grid, int(opts["features"]),
                                  float(opts["window"]), seed, workers=workers)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "chosen": best.to_dict(),
        "cells": [cell.to_dict() for cell in cells],
        "seed": seed,
        "split": float(opts["split"]),
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
        print("error: evaluate requires --model and --out", file=sys.stderr)
        return 2
    if (opts["scenario"] is None) == (opts["truth_curves"] is None):
        print("error: pass exactly one of --scenario or --truth-curves", file=sys.stderr)
        return 2
    try:
        with open(opts["model"]) as fh:
            model = FittedModel.from_dict(json.load(fh))
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: cannot load model {opts['model']}: {exc}", file=sys.stderr)
        return 1
    try:
        if opts["scenario"] is not None:
            if opts["scenario"] not in SCENARIOS:
                print(f"error: unknown scenario {opts['scenario']!r}; valid scenarios: "
                      + ", ".join(sorted(SCENARIOS)), file=sys.stderr)
                return 2
            truth = SCENARIOS[opts["scenario"]]()
            report = ise(truth, model)
            s = np.linspace(0.0, truth.A, 501)
            curves = np.stack([[truth.kernel_values(i + 1, j + 1, s)
                                for j in range(truth.U)] for i in range(truth.U)])
        else:
            s, curves, U = read_curves_csv(opts["truth_curves"])
            report = ise_on_grid(s, curves, model)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
            path = f"{prefix}_g{i + 1}{j + 1}.csv"
            lines = ["s,g_true,g_hat"]
            for k in range(len(s)):
                lines.append(f"{s[k]:.17g},{truth_curves[i, j, k]:.17g},{est[k]:.17g}")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")


# default seed ranges of the two benchmark reproductions
_REPRODUCE_SEEDS = {"mutually-exciting": "160-169", "refractory": "1-10"}


def run_reproduce(opts) -> int:
    if opts["scenario"] not in _REPRODUCE_SEEDS:
        print("error: reproduce needs --scenario, one of: "
              + ", ".join(sorted(_REPRODUCE_SEEDS)), file=sys.stderr)
        return 2
    if opts["baseline"] is not None and opts["scenario"] != "refractory":
        print("error: --baseline applies to the refractory scenario only",
              file=sys.stderr)
        return 2
    first, _, last = str(opts["seeds"] or _REPRODUCE_SEEDS[opts["scenario"]]).partition("-")
    factory = SCENARIOS[opts["scenario"]]
    spec = factory() if opts["baseline"] is None else factory(float(opts["baseline"]))
    t_end = float(opts["t_end"])
    grid = GridSpec((0.1, 0.5, 1.0), (0.5, 1.0, 1.5))
    d2, counts, cpu = [], [], []
    for seed in range(int(first), int(last or first) + 1):
        t0 = time.perf_counter()
        report, model, events = fit_scenario_draw(
            spec, t_end, seed, grid, M=int(opts["features"]), workers=int(opts["workers"]))
        wall = time.perf_counter() - t0
        d2.append(report.delta_sq)
        counts.append(len(events))
        cpu.append(model.stats["total_s"])
        print(f"seed {seed:4d}: N={len(events):5d}  "
              f"chosen (gamma={report.gamma}, beta={report.beta})  "
              f"delta^2={report.delta_sq:6.3f}  refit cpu={cpu[-1]:.2f}s  "
              f"wall={wall:.1f}s")
    n = len(d2)
    baseline = f"baseline={spec.mu[0]}  " if opts["scenario"] == "refractory" else ""
    print(f"\nT={t_end:.0f}  {baseline}N~ {np.mean(counts):.0f}   "
          f"delta^2 {np.mean(d2):.2f} ({np.std(d2) / np.sqrt(n):.2f})   "
          f"refit cpu {np.mean(cpu):.2f}s ({np.std(cpu) / np.sqrt(n):.2f})")
    return 0


def run_bench(opts) -> int:
    if opts["scenario"] not in SCENARIOS:
        print(f"error: unknown scenario {opts['scenario']!r}; valid scenarios: "
              + ", ".join(sorted(SCENARIOS)), file=sys.stderr)
        return 2
    seed = _seed_or_none(opts["seed"]) or 0
    spec = SCENARIOS[opts["scenario"]]()
    horizons = _float_list(opts["horizons"])
    rows, slopes = bench_scaling(spec, horizons, int(opts["features"]),
                                 reps=int(opts["reps"]), seed=seed)
    doc = {"scaling": rows, "slopes": slopes}
    print(f"{'T':>8} {'events':>8} {'xi_build_s':>11} {'solve_s':>9} {'total_s':>9}")
    for r in rows:
        print(f"{r['T']:>8.0f} {r['n_events']:>8d} {r['xi_build_s']:>11.4g} "
              f"{r['solve_s']:>9.4g} {r['total_s']:>9.4g}")
    print(f"xi-build vs events log-log slope: {_fmt(slopes['xi_build_vs_events'])}")
    if opts["fact_features"]:
        m_values = [int(v) for v in _float_list(opts["fact_features"])]
        events = simulate(spec, horizons[0], seed).events
        fact_rows, fact_slopes = bench_factorization(events, m_values,
                                                     reps=int(opts["reps"]))
        doc["factorization"] = fact_rows
        doc["slopes"].update(fact_slopes)
        for r in fact_rows:
            print(f"M={r['M']:>5d} size={r['size']:>6d} factorize {r['factorize_s']:.4g}s")
        print(f"factorize vs M log-log slope: {_fmt(fact_slopes['factorize_vs_M'])}")
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
    except (OSError, ValueError, RuntimeError) as exc:  # argparse handles usage
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

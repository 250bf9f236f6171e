import argparse
import contextlib
import functools
import hashlib
import io
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import hawkes_rkhs
from hawkes_rkhs import cli
from hawkes_rkhs.cli import build_parser, load_config
from hawkes_rkhs.events import read_events_csv


def run_cli(*args, env_extra=None):
    """``cli.main(args)`` in this process, with HAWKES_RKHS_SEED unset and
    env_extra set for the call alone; its exit code and output, as
    subprocess.run returns them."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        os.environ.pop("HAWKES_RKHS_SEED", None)
        os.environ.update(env_extra or {})
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    # the one run of python -m hawkes_rkhs, so that __main__.py runs in a test
    root = tmp_path_factory.mktemp("cli")
    events = root / "events.csv"
    env = {name: value for name, value in os.environ.items() if name != "HAWKES_RKHS_SEED"}
    # the child runs the package these tests import, also when that is the
    # checkout's src/ put on the path by pytest's pythonpath setting
    package_root = str(Path(hawkes_rkhs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "hawkes_rkhs", "simulate", "--scenario",
                          "mutually-exciting", "--t-end", "400", "--seed", "1",
                          "--out", str(events)], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return root, events, root / "events_curves.csv"


def test_simulate_writes_events_and_curves(sim_files):
    root, events, curves = sim_files
    assert events.exists() and curves.exists()
    ev, meta = read_events_csv(events)
    assert meta["scenario"] == "mutually-exciting"
    assert meta["seed"] == "1"
    assert ev.T == 400.0 and ev.U == 3
    header = curves.read_text().splitlines()
    assert any(line.startswith("s,g_11") for line in header[:4])


@pytest.mark.parametrize("out,curves", [
    ("events.csv", "events_curves.csv"),
    ("./events", "events_curves.csv"),
    ("out.d/events", "out.d/events_curves.csv"),
    ("runs/v1.2/ev", "runs/v1.2/ev_curves.csv"),
])
def test_simulate_default_curves_path_replaces_the_file_extension(out, curves, tmp_path,
                                                                  monkeypatch):
    # only the file name's extension becomes _curves.csv; a dot in a directory
    # name or a leading ./ leaves the curves file beside the events file
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--scenario", "refractory", "--t-end", "10",
                         "--seed", "1", "--out", out]) == 0
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file())
    assert written == sorted([os.path.normpath(out), curves])


def test_simulate_idempotent_byte_identical(sim_files, tmp_path):
    root, events, curves = sim_files
    again = tmp_path / "again.csv"
    out = run_cli("simulate", "--scenario", "mutually-exciting",
                  "--t-end", "400", "--seed", "1", "--out", str(again))
    assert out.returncode == 0
    assert again.read_bytes() == events.read_bytes()


def test_simulate_unknown_scenario():
    out = run_cli("simulate", "--scenario", "nope", "--t-end", "10",
                  "--seed", "1", "--out", "/tmp/x.csv")
    assert out.returncode == 2
    assert "mutually-exciting" in out.stderr and "refractory" in out.stderr


def test_simulate_requires_seed(tmp_path):
    out = run_cli("simulate", "--scenario", "refractory", "--t-end", "10",
                  "--out", str(tmp_path / "x.csv"))
    assert out.returncode == 2
    assert "seed" in out.stderr.lower()


def test_simulate_seed_env_fallback(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    out = run_cli("simulate", "--scenario", "mutually-exciting", "--t-end", "200",
                  "--out", str(a), env_extra={"HAWKES_RKHS_SEED": "9"})
    assert out.returncode == 0, out.stderr
    out = run_cli("simulate", "--scenario", "mutually-exciting", "--t-end", "200",
                  "--seed", "9", "--out", str(b))
    assert out.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_tiny_horizon_gives_valid_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    out = run_cli("simulate", "--scenario", "mutually-exciting",
                  "--t-end", "0.001", "--seed", "3", "--out", str(path))
    assert out.returncode == 0
    ev, _ = read_events_csv(path)
    assert len(ev) == 0


def test_fit_writes_model_json(sim_files, tmp_path):
    root, events, _ = sim_files
    model_path = tmp_path / "model.json"
    out = run_cli("fit", "--events", str(events), "--features", "16",
                  "--seed", "2", "--out", str(model_path))
    assert out.returncode == 0, out.stderr
    assert "mu_hat" in out.stdout
    doc = json.loads(model_path.read_text())
    assert set(doc) == {"U", "M", "T", "A", "gamma", "basis_ref", "mu_hat", "coeff"}
    assert doc["U"] == 3 and doc["M"] == 16
    assert doc["gamma"] == 1.0 and doc["A"] == 5.0  # defaults
    assert len(doc["coeff"]) == 3 and len(doc["coeff"][0]) == 48

    again = tmp_path / "model2.json"
    out = run_cli("fit", "--events", str(events), "--features", "16",
                  "--seed", "2", "--out", str(again))
    assert out.returncode == 0
    assert again.read_bytes() == model_path.read_bytes()


def test_fit_reports_malformed_row(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# T=10\n# U=1\ntime,mark\n0.5,1\nnot-a-number,1\n")
    out = run_cli("fit", "--events", str(bad), "--out", str(tmp_path / "m.json"))
    assert out.returncode == 1
    assert "line 5" in out.stderr


def test_fit_reports_duplicate_timestamp(tmp_path):
    bad = tmp_path / "dup.csv"
    bad.write_text("# T=10\n# U=1\ntime,mark\n0.5,1\n0.5,1\n")
    out = run_cli("fit", "--events", str(bad), "--out", str(tmp_path / "m.json"))
    assert out.returncode == 1
    assert out.stderr == f"error: {bad}: line 5: duplicate event time 0.5\n"


def test_fit_programming_error_propagates(tmp_path, monkeypatch):
    # only expected numerical failures become "error: ..." and exit code 1
    def broken(events, config):
        raise TypeError("broken fit")

    monkeypatch.setattr(cli, "fit", broken)
    events = tmp_path / "events.csv"
    events.write_text("# T=10\n# U=1\ntime,mark\n0.5,1\n2.5,1\n")
    with pytest.raises(TypeError, match="broken fit"):
        cli.main(["fit", "--events", str(events), "--out", str(tmp_path / "m.json")])


def test_grid_search_single_cell_matches_fit(sim_files, tmp_path):
    root, events, _ = sim_files
    report_path = tmp_path / "grid.json"
    out = run_cli("grid-search", "--events", str(events), "--gammas", "0.5",
                  "--betas", "1.0", "--features", "16", "--seed", "2",
                  "--workers", "1", "--out", str(report_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads(report_path.read_text())
    assert len(doc["cells"]) == 1
    assert doc["chosen"]["gamma"] == 0.5 and doc["chosen"]["beta"] == 1.0
    assert np.isfinite(doc["chosen"]["ls_loss"])
    # report JSON carries no wall-clock values, so reruns are byte-identical
    again = tmp_path / "grid2.json"
    out = run_cli("grid-search", "--events", str(events), "--gammas", "0.5",
                  "--betas", "1.0", "--features", "16", "--seed", "2",
                  "--workers", "1", "--out", str(again))
    assert again.read_bytes() == report_path.read_bytes()


def test_grid_search_validation_window_empty(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("# T=100\n# U=1\ntime,mark\n1.0,1\n2.0,1\n")
    out = run_cli("grid-search", "--events", str(path),
                  "--out", str(tmp_path / "r.json"))
    assert out.returncode == 1
    assert "validation window empty" in out.stderr


def test_evaluate_self_curves_zero_error(sim_files, tmp_path):
    root, events, _ = sim_files
    model_path = tmp_path / "model.json"
    run_cli("fit", "--events", str(events), "--features", "16", "--seed", "2",
            "--out", str(model_path))
    curves_prefix = tmp_path / "own"
    report1 = tmp_path / "r1.json"
    out = run_cli("evaluate", "--model", str(model_path), "--scenario",
                  "mutually-exciting", "--out", str(report1),
                  "--curves-out", str(curves_prefix))
    assert out.returncode == 0, out.stderr
    pair_files = sorted(tmp_path.glob("own_g*.csv"))
    assert len(pair_files) == 9
    # rebuild a truth-curves file from the model's own fitted curves
    own = tmp_path / "own_truth.csv"
    lines = ["# A=5", "# U=3", "s," + ",".join(
        f"g_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))]
    tables = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rows = (tmp_path / f"own_g{i}{j}.csv").read_text().splitlines()[1:]
            tables[(i, j)] = [r.split(",") for r in rows]
    n = len(tables[(1, 1)])
    for k in range(n):
        s_val = tables[(1, 1)][k][0]
        vals = [tables[(i, j)][k][2] for i in (1, 2, 3) for j in (1, 2, 3)]
        lines.append(",".join([s_val] + vals))
    own.write_text("\n".join(lines) + "\n")
    report2 = tmp_path / "r2.json"
    out = run_cli("evaluate", "--model", str(model_path),
                  "--truth-curves", str(own), "--out", str(report2))
    assert out.returncode == 0, out.stderr
    doc = json.loads(report2.read_text())
    assert doc["delta_sq"] <= 1e-12


def test_evaluate_against_scenario(sim_files, tmp_path):
    root, events, _ = sim_files
    model_path = tmp_path / "model.json"
    run_cli("fit", "--events", str(events), "--features", "16", "--seed", "2",
            "--out", str(model_path))
    report = tmp_path / "r.json"
    out = run_cli("evaluate", "--model", str(model_path), "--scenario",
                  "mutually-exciting", "--out", str(report))
    assert out.returncode == 0
    doc = json.loads(report.read_text())
    assert doc["delta_sq"] >= 0
    assert len(doc["per_pair"]) == 3
    assert "delta^2" in out.stdout


def test_evaluate_requires_exactly_one_truth(tmp_path):
    out = run_cli("evaluate", "--model", "x.json", "--out", "y.json")
    assert out.returncode == 2


def test_full_pipeline_from_config(tmp_path):
    config = tmp_path / "run.toml"
    events = tmp_path / "ev.csv"
    model = tmp_path / "model.json"
    grid_out = tmp_path / "grid.json"
    report = tmp_path / "report.json"
    config.write_text(
        "# one config drives the whole pipeline\n"
        "scenario = \"mutually-exciting\"\n"
        "t-end = 400\n"
        "seed = 4\n"
        f"out = \"{events}\"\n"
        "gammas = \"0.5,1.0\"\n"
        "betas = \"1.0\"\n"
        "features = 16\n"
        "workers = 1\n"
    )
    out = run_cli("simulate", "--config", str(config))
    assert out.returncode == 0, out.stderr
    out = run_cli("grid-search", "--config", str(config), "--events", str(events),
                  "--out", str(grid_out))
    assert out.returncode == 0, out.stderr
    chosen = json.loads(grid_out.read_text())["chosen"]
    out = run_cli("fit", "--config", str(config), "--events", str(events),
                  "--gamma", str(chosen["gamma"]), "--beta", str(chosen["beta"]),
                  "--out", str(model))
    assert out.returncode == 0, out.stderr
    out = run_cli("evaluate", "--model", str(model), "--scenario",
                  "mutually-exciting", "--out", str(report))
    assert out.returncode == 0, out.stderr
    assert json.loads(report.read_text())["delta_sq"] >= 0


def test_config_comment_starts_outside_quotes(tmp_path):
    config = tmp_path / "run.toml"
    config.write_text(
        'out = "runs#1.csv"  # a comment after a quoted value\n'
        "curves_out = 'a\"b#2.csv'\n"
        'scenario = "refractory"#no space before the comment\n'
        "seed = 7 # seven\n"
        "# a whole-line comment\n"
    )
    assert load_config(config) == {
        "out": "runs#1.csv", "curves_out": 'a"b#2.csv', "scenario": "refractory",
        "seed": 7}


def test_unknown_config_key_is_an_error(sim_files, tmp_path):
    _, events, _ = sim_files
    config = tmp_path / "run.toml"
    config.write_text("featurs = 16\nbetas = \"1.0\"\n")
    out = run_cli("fit", "--config", str(config), "--events", str(events),
                  "--out", str(tmp_path / "m.json"))
    assert out.returncode == 1
    assert "featurs" in out.stderr and "betas" not in out.stderr
    assert not (tmp_path / "m.json").exists()


# long flag -> parsed type of every subcommand, as declared before the
# options became one table
FLAGS = {
    "simulate": {"--scenario": str, "--t-end": float, "--seed": int, "--out": str,
                 "--curves-out": str},
    "fit": {"--events": str, "--gamma": float, "--beta": float, "--features": int,
            "--window": float, "--horizon": float, "--seed": int, "--out": str},
    "grid-search": {"--events": str, "--gammas": str, "--betas": str, "--features": int,
                    "--window": float, "--split": float, "--horizon": float,
                    "--seed": int, "--workers": int, "--out": str},
    "evaluate": {"--model": str, "--scenario": str, "--truth-curves": str, "--out": str,
                 "--curves-out": str},
    "reproduce": {"--scenario": str, "--t-end": float, "--seeds": str, "--features": int,
                  "--workers": int, "--baseline": float},
    "bench": {"--scenario": str, "--horizons": str, "--features": int, "--reps": int,
              "--fact-features": str, "--seed": int, "--out": str},
}


def test_parser_keeps_every_flag_dest_and_type():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(FLAGS)
    for command, flags in FLAGS.items():
        got = {a.option_strings[0]: (a.dest, a.type or str)
               for a in commands.choices[command]._actions if a.dest != "help"}
        want = {flag: (flag[2:].replace("-", "_"), kind)
                for flag, kind in {**flags, "--config": str}.items()}
        assert got == want, command
        assert commands.choices[command].get_default("func").__name__ == \
            "run_" + command.replace("-", "_")


def test_bench_smoke(tmp_path):
    out_path = tmp_path / "bench.json"
    out = run_cli("bench", "--scenario", "mutually-exciting",
                  "--horizons", "300,600", "--features", "8", "--reps", "1",
                  "--seed", "1", "--out", str(out_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out_path.read_text())
    assert len(doc["scaling"]) == 2
    assert "xi_build_vs_events" in doc["slopes"]


def test_bench_fact_features_prints_and_writes_the_factorization(tmp_path):
    out_path = tmp_path / "bench.json"
    out = run_cli("bench", "--scenario", "mutually-exciting", "--horizons", "300,600",
                  "--features", "8", "--fact-features", "8,16", "--reps", "1",
                  "--seed", "1", "--out", str(out_path))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert re.fullmatch(r"M=    8 size=    24 factorize \S+s", lines[-4])
    assert re.fullmatch(r"M=   16 size=    48 factorize \S+s", lines[-3])
    assert re.fullmatch(r"factorize vs M log-log slope: \S+", lines[-2])
    assert lines[-1] == f"bench table -> {out_path}"
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"scaling", "factorization", "slopes"}
    assert set(doc["slopes"]) == {"xi_build_vs_events", "factorize_vs_M"}
    assert [(r["M"], r["size"]) for r in doc["factorization"]] == [(8, 24), (16, 48)]
    assert all(r["factorize_s"] > 0 for r in doc["factorization"])


@pytest.mark.parametrize("scenario,extra", [
    ("mutually-exciting", []),
    ("refractory", ["--baseline", "0.006"]),
])
def test_reproduce_tiny(scenario, extra):
    out = run_cli("reproduce", "--scenario", scenario, "--t-end", "400",
                  "--seeds", "2-3", "--features", "8", "--workers", "1", *extra)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("seed    2: N=") and lines[1].startswith("seed    3: N=")
    assert "delta^2=" in lines[0] and "refit wall=" in lines[0]
    assert lines[-1].startswith("T=400  ") and "refit wall " in lines[-1]
    assert ("baseline=0.006" in lines[-1]) == (scenario == "refractory")
    # the refit is a solve of about a millisecond: printed to 4 significant digits
    refits = [float(re.search(r"refit wall=(\S+)s", line)[1]) for line in lines[:2]]
    assert all(wall > 0 for wall in refits)


@pytest.mark.parametrize("scenario", ["mutually-exciting", "refractory"])
def test_reproduce_output_does_not_depend_on_workers(scenario):
    # the seeds go to worker processes and come back in seed order
    outputs = []
    for workers in ("2", "1"):
        out = run_cli("reproduce", "--scenario", scenario, "--t-end", "400",
                      "--seeds", "2-4", "--features", "8", "--workers", workers)
        assert out.returncode == 0, out.stderr
        # the two wall-clock fields end each line
        outputs.append([re.sub(r"\s+refit wall.*$", "", line)
                        for line in out.stdout.splitlines()])
    assert outputs[0] == outputs[1]
    assert [line[:9] for line in outputs[0][:3]] == ["seed    2", "seed    3", "seed    4"]


# every "error: ..." line a command prints, with its exit code: usage errors
# exit 2, failures of the inputs or of the run exit 1.  {d} is the directory
# of ``error_inputs`` (model.json has U = 1); {d}/missing does not exist
CLI_ERRORS = {
    "simulate-unknown-scenario": (
        ["simulate", "--scenario", "nope", "--t-end", "10", "--seed", "1",
         "--out", "{d}/x.csv"], 2,
        "unknown scenario 'nope'; valid scenarios: mutually-exciting, refractory"),
    "simulate-no-seed": (
        ["simulate", "--scenario", "refractory", "--t-end", "10", "--out", "{d}/x.csv"], 2,
        "simulate requires --seed (or HAWKES_RKHS_SEED)"),
    "simulate-bad-seed-variable": (
        ["simulate", "--scenario", "refractory", "--t-end", "10", "--out", "{d}/x.csv"], 2,
        "HAWKES_RKHS_SEED=x is not an integer seed", {"HAWKES_RKHS_SEED": "x"}),
    "simulate-no-out": (
        ["simulate", "--scenario", "refractory", "--t-end", "10", "--seed", "1"], 2,
        "simulate requires --t-end and --out"),
    "simulate-nan-horizon": (
        ["simulate", "--scenario", "refractory", "--t-end", "nan", "--seed", "1",
         "--out", "{d}/x.csv"], 2, "--t-end nan is not a positive finite number"),
    "simulate-negative-horizon": (
        ["simulate", "--scenario", "refractory", "--t-end", "-1", "--seed", "1",
         "--out", "{d}/x.csv"], 2, "--t-end -1.0 is not a positive finite number"),
    "simulate-unwritable": (
        ["simulate", "--scenario", "refractory", "--t-end", "10", "--seed", "1",
         "--out", "{d}/x.csv", "--curves-out", "{d}/missing/c.csv"], 1,
        "cannot write to {d}/missing/c.csv"),
    "fit-no-out": (["fit", "--events", "{d}/events.csv"], 2,
                   "fit requires --events and --out"),
    "fit-unwritable": (["fit", "--events", "{d}/events.csv", "--out", "{d}/missing/m.json"], 1,
                       "cannot write to {d}/missing/m.json"),
    "fit-unreadable": (["fit", "--events", "{d}/dup.csv", "--out", "{d}/m.json"], 1,
                       "{d}/dup.csv: line 5: duplicate event time 0.5"),
    "fit-missing-events": (["fit", "--events", "{d}/none.csv", "--out", "{d}/m.json"], 1,
                           "[Errno 2] No such file or directory: '{d}/none.csv'"),
    "fit-bad-horizon-metadata": (
        ["fit", "--events", "{d}/bad_t.csv", "--out", "{d}/m.json"], 1,
        "{d}/bad_t.csv: '# T=' is not a valid float: 'abc'"),
    "fit-bad-dimension-metadata": (
        ["fit", "--events", "{d}/bad_u.csv", "--out", "{d}/m.json"], 1,
        "{d}/bad_u.csv: '# U=' is not a valid int: 'x'"),
    "fit-failed": (["fit", "--events", "{d}/events.csv", "--window", "20", "--out",
                    "{d}/m.json"], 1,
                   "fit failed on {d}/events.csv: support window A=20.0 exceeds the "
                   "horizon T=10.0"),
    "fit-infinite-gamma": (["fit", "--events", "{d}/events.csv", "--gamma", "inf", "--out",
                            "{d}/m.json"], 1, "gamma must be positive and finite, got inf"),
    "fit-failed-empty": (["fit", "--events", "{d}/empty.csv", "--out", "{d}/m.json"], 1,
                         "fit failed on {d}/empty.csv: cannot fit an empty event sequence"),
    "grid-search-no-out": (["grid-search", "--events", "{d}/events.csv"], 2,
                           "grid-search requires --events and --out"),
    "grid-search-unwritable": (
        ["grid-search", "--events", "{d}/events.csv", "--out", "{d}/missing/g.json"], 1,
        "cannot write to {d}/missing/g.json"),
    "grid-search-empty-validation": (
        ["grid-search", "--events", "{d}/events.csv", "--out", "{d}/g.json"], 1,
        "validation window empty: no events after t=8"),
    # an unusable training window is an input error, not a failed grid cell
    "grid-search-window-past-training": (
        ["grid-search", "--events", "{d}/late.csv", "--window", "9", "--features", "4",
         "--workers", "1", "--out", "{d}/g.json"], 1,
        "support window A=9.0 exceeds the horizon T=8.0"),
    "grid-search-empty-training": (
        ["grid-search", "--events", "{d}/late.csv", "--split", "0.01", "--features", "4",
         "--workers", "1", "--out", "{d}/g.json"], 1, "cannot fit an empty event sequence"),
    "grid-search-bad-gammas": (
        ["grid-search", "--events", "{d}/events.csv", "--gammas", "abc", "--out",
         "{d}/g.json"], 2, "--gammas abc is not a list of numbers"),
    "grid-search-bad-grid": (
        ["grid-search", "--events", "{d}/events.csv", "--gammas", "-1", "--out",
         "{d}/g.json"], 1, "grid values must be positive and finite, got -1.0"),
    "grid-search-zero-workers": (
        ["grid-search", "--events", "{d}/events.csv", "--workers", "0", "--out",
         "{d}/g.json"], 2, "--workers 0 is not a positive finite number"),
    "grid-search-negative-workers": (
        ["grid-search", "--events", "{d}/events.csv", "--workers", "-3", "--out",
         "{d}/g.json"], 2, "--workers -3 is not a positive finite number"),
    "evaluate-no-out": (["evaluate", "--model", "{d}/model.json"], 2,
                        "evaluate requires --model and --out"),
    "evaluate-two-truths": (
        ["evaluate", "--model", "{d}/model.json", "--out", "{d}/r.json"], 2,
        "pass exactly one of --scenario or --truth-curves"),
    "evaluate-unloadable-model": (
        ["evaluate", "--model", "{d}/events.csv", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/events.csv: Expecting value: line 1 column 1 (char 0)"),
    "evaluate-model-without-key": (
        ["evaluate", "--model", "{d}/keyless.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1, "cannot load model {d}/keyless.json: 'basis_ref'"),
    # a model file whose basis is not finite, or not the (cos, sin) pair layout
    # every built basis has, or whose fit is not finite: evaluating one would
    # report delta_sq NaN
    "evaluate-infinite-frequency-model": (
        ["evaluate", "--model", "{d}/inf_omega.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/inf_omega.json: not a (cos, sin) pair basis: omega must be "
        "finite and repeat its first half, under phases 0 then -pi/2"),
    "evaluate-non-pair-phase-model": (
        ["evaluate", "--model", "{d}/non_pair_theta.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/non_pair_theta.json: not a (cos, sin) pair basis: omega "
        "must be finite and repeat its first half, under phases 0 then -pi/2"),
    "evaluate-unequal-halves-model": (
        ["evaluate", "--model", "{d}/unequal_omega.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/unequal_omega.json: not a (cos, sin) pair basis: omega "
        "must be finite and repeat its first half, under phases 0 then -pi/2"),
    "evaluate-nan-baseline-model": (
        ["evaluate", "--model", "{d}/nan_mu.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/nan_mu.json: mu_hat and coeff must be finite"),
    "evaluate-nan-coefficient-model": (
        ["evaluate", "--model", "{d}/nan_coeff.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/nan_coeff.json: mu_hat and coeff must be finite"),
    # a model file with a value of the wrong JSON type, or whose M is not its basis's
    "evaluate-list-model": (
        ["evaluate", "--model", "{d}/list_model.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/list_model.json: expected a JSON object whose 'basis_ref' "
        "is an object"),
    "evaluate-number-basis-model": (
        ["evaluate", "--model", "{d}/number_basis.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/number_basis.json: expected a JSON object whose 'basis_ref' "
        "is an object"),
    "evaluate-null-horizon-model": (
        ["evaluate", "--model", "{d}/null_t.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/null_t.json: 'T' is not a number: None"),
    "evaluate-list-gamma-model": (
        ["evaluate", "--model", "{d}/list_gamma.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/list_gamma.json: 'gamma' is not a number: [1]"),
    "evaluate-null-feature-count-model": (
        ["evaluate", "--model", "{d}/null_m.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/null_m.json: 'M' is None, but the basis has 2 features"),
    "evaluate-wrong-feature-count-model": (
        ["evaluate", "--model", "{d}/wrong_m.json", "--scenario", "refractory",
         "--out", "{d}/r.json"], 1,
        "cannot load model {d}/wrong_m.json: 'M' is 4, but the basis has 2 features"),
    "evaluate-unknown-scenario": (
        ["evaluate", "--model", "{d}/model.json", "--scenario", "nope", "--out",
         "{d}/r.json"], 2,
        "unknown scenario 'nope'; valid scenarios: mutually-exciting, refractory"),
    "evaluate-dimension-mismatch": (
        ["evaluate", "--model", "{d}/model.json", "--scenario", "refractory", "--out",
         "{d}/r.json"], 1, "dimension mismatch: truth U=3, model U=1"),
    "evaluate-curves-not-a-number": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/nan_curves.csv",
         "--out", "{d}/r.json"], 1,
        "{d}/nan_curves.csv: line 5: could not convert string to float: 'x'"),
    "evaluate-curves-short-row": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/short_curves.csv",
         "--out", "{d}/r.json"], 1, "{d}/short_curves.csv: line 5: expected 2 values, got 1"),
    "evaluate-curves-long-row": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/long_curves.csv",
         "--out", "{d}/r.json"], 1, "{d}/long_curves.csv: line 5: expected 2 values, got 3"),
    "evaluate-curves-no-rows": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/bare_curves.csv",
         "--out", "{d}/r.json"], 1, "{d}/bare_curves.csv: no curve data"),
    "evaluate-curves-bad-dimension": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/bad_u_curves.csv",
         "--out", "{d}/r.json"], 1, "{d}/bad_u_curves.csv: '# U=' is not a valid int: 'x'"),
    "evaluate-curves-not-u-squared": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/two_pair_curves.csv",
         "--out", "{d}/r.json"], 1, "{d}/two_pair_curves.csv: expected U^2 kernel columns, got 2"),
    "evaluate-curves-not-increasing": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/unsorted_curves.csv",
         "--out", "{d}/r.json"], 1, "{d}/unsorted_curves.csv: non-increasing lag at line 6"),
    "evaluate-missing-curves": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/none.csv",
         "--out", "{d}/r.json"], 1, "[Errno 2] No such file or directory: '{d}/none.csv'"),
    "evaluate-curves-window-mismatch": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/wide_curves.csv",
         "--out", "{d}/r.json"], 1, "window mismatch: lag grid [0.0, 2.0], model A=1.0"),
    "evaluate-curves-declared-window": (
        ["evaluate", "--model", "{d}/model.json", "--truth-curves", "{d}/short_grid_curves.csv",
         "--out", "{d}/r.json"], 1,
        "{d}/short_grid_curves.csv: the lag grid ends at 1.0, not at '# A=5.0'"),
    "reproduce-unknown-scenario": (
        ["reproduce", "--scenario", "poisson"], 2,
        "reproduce needs --scenario, one of: mutually-exciting, refractory"),
    "reproduce-baseline": (
        ["reproduce", "--scenario", "mutually-exciting", "--baseline", "0.1"], 2,
        "--baseline applies to the refractory scenario only"),
    "reproduce-negative-horizon": (
        ["reproduce", "--scenario", "refractory", "--t-end", "-1"], 2,
        "--t-end -1.0 is not a positive finite number"),
    "reproduce-nan-baseline": (
        ["reproduce", "--scenario", "refractory", "--baseline", "nan", "--t-end", "50",
         "--seeds", "1", "--features", "8", "--workers", "1"], 1,
        "baseline mu must be finite, got nan"),
    "reproduce-bad-seeds": (
        ["reproduce", "--scenario", "refractory", "--seeds", "5-3"], 2,
        "--seeds 5-3 is not a seed range: expected N or N-M with N <= M"),
    "reproduce-text-seeds": (
        ["reproduce", "--scenario", "refractory", "--seeds", "abc"], 2,
        "--seeds abc is not a seed range: expected N or N-M with N <= M"),
    "reproduce-negative-seeds": (
        ["reproduce", "--scenario", "refractory", "--seeds", "-3"], 2,
        "--seeds -3 is not a seed range: expected N or N-M with N <= M"),
    "reproduce-negative-workers": (
        ["reproduce", "--scenario", "refractory", "--t-end", "20", "--seeds", "1",
         "--workers", "-2"], 2,
        "--workers -2 is not a positive finite number"),
    "bench-unknown-scenario": (["bench", "--scenario", "nope"], 2,
                               "unknown scenario 'nope'; valid scenarios: "
                               "mutually-exciting, refractory"),
    "bench-one-fact-feature": (
        ["bench", "--horizons", "50,100", "--features", "8", "--fact-features", "16"], 1,
        "a slope needs at least two feature counts, got 1"),
    "bench-bad-horizons": (["bench", "--horizons", "50,x"], 2,
                           "--horizons 50,x is not a list of numbers"),
    "bench-fractional-fact-features": (
        ["bench", "--horizons", "50,100", "--features", "8", "--fact-features", "16.5,32"], 2,
        "--fact-features 16.5,32 is not a list of integers"),
    "unknown-config-key": (["fit", "--config", "{d}/run.toml"], 1,
                           "{d}/run.toml: unknown config key(s): featurs"),
    "config-fractional-seed": (
        ["fit", "--events", "{d}/events.csv", "--config", "{d}/frac_seed.toml", "--out",
         "{d}/m.json"], 2, "{d}/frac_seed.toml: seed = 1.5 is not a valid int"),
    "config-text-seed": (
        ["fit", "--events", "{d}/events.csv", "--config", "{d}/text_seed.toml", "--out",
         "{d}/m.json"], 2, "{d}/text_seed.toml: seed = 'x' is not a valid int"),
    "config-text-window": (
        ["fit", "--events", "{d}/events.csv", "--config", "{d}/text_window.toml", "--out",
         "{d}/m.json"], 2, "{d}/text_window.toml: window = 'wide' is not a valid float"),
    "config-unquoted-value": (
        ["fit", "--events", "{d}/events.csv", "--config", "{d}/unquoted.toml", "--out",
         "{d}/m.json"], 1, "{d}/unquoted.toml: Invalid value (at line 1, column 10)"),
    "config-unterminated-string": (
        ["fit", "--events", "{d}/events.csv", "--config", "{d}/unterminated.toml", "--out",
         "{d}/m.json"], 1,
        "{d}/unterminated.toml: Illegal character '\\n' (at line 1, column 27)"),
    "config-not-utf8": (
        ["fit", "--events", "{d}/events.csv", "--config", "{d}/latin1.toml", "--out",
         "{d}/m.json"], 1,
        "{d}/latin1.toml: 'utf-8' codec can't decode byte 0xe9 in position 10: "
        "invalid continuation byte"),
    "config-array-features": (
        ["fit", "--events", "{d}/events.csv", "--config", "{d}/array.toml", "--out",
         "{d}/m.json"], 2, "{d}/array.toml: features = [16] is not a valid int"),
    "fit-event-past-horizon": (
        ["fit", "--events", "{d}/events.csv", "--horizon", "2", "--out", "{d}/m.json"], 1,
        "{d}/events.csv: line 5: event time 2.5 is at or past the horizon T=2.0"),
    "fit-mark-above-dimension": (
        ["fit", "--events", "{d}/high_mark.csv", "--out", "{d}/m.json"], 1,
        "{d}/high_mark.csv: line 4: mark 2 outside 1..1"),
    "fit-nan-event-time": (
        ["fit", "--events", "{d}/nan_time.csv", "--out", "{d}/m.json"], 1,
        "{d}/nan_time.csv: line 4: event time nan is not finite"),
    "fit-fractional-mark": (
        ["fit", "--events", "{d}/fractional_mark.csv", "--out", "{d}/m.json"], 1,
        "{d}/fractional_mark.csv: line 5: mark 1.5 is not an integer"),
    # with no '# U=' the largest finite mark sets U, and the NaN is refused by its line
    "fit-nan-mark": (
        ["fit", "--events", "{d}/nan_mark.csv", "--out", "{d}/m.json"], 1,
        "{d}/nan_mark.csv: line 4: mark nan is not an integer"),
    "fit-events-no-header": (
        ["fit", "--events", "{d}/no_header.csv", "--out", "{d}/m.json"], 1,
        "{d}/no_header.csv: missing 'time,mark' header"),
    "fit-events-wrong-header": (
        ["fit", "--events", "{d}/wrong_header.csv", "--out", "{d}/m.json"], 1,
        "{d}/wrong_header.csv: line 2: expected header 'time,mark', got 'time,dim'"),
    "fit-events-three-fields": (
        ["fit", "--events", "{d}/three_fields.csv", "--out", "{d}/m.json"], 1,
        "{d}/three_fields.csv: line 4: expected 2 values, got 3"),
    "fit-events-decreasing-time": (
        ["fit", "--events", "{d}/decreasing.csv", "--out", "{d}/m.json"], 1,
        "{d}/decreasing.csv: line 4: event times must be strictly increasing"),
    "fit-negative-event-time": (
        ["fit", "--events", "{d}/negative_time.csv", "--out", "{d}/m.json"], 1,
        "{d}/negative_time.csv: line 4: negative event time -0.5"),
    "fit-nan-horizon-metadata": (
        ["fit", "--events", "{d}/nan_t.csv", "--out", "{d}/m.json"], 1,
        "{d}/nan_t.csv: '# T=' is not a positive finite horizon: 'nan'"),
    "fit-negative-horizon-metadata": (
        ["fit", "--events", "{d}/negative_t.csv", "--out", "{d}/m.json"], 1,
        "{d}/negative_t.csv: '# T=' is not a positive finite horizon: '-1'"),
    "fit-negative-horizon": (
        ["fit", "--events", "{d}/events.csv", "--horizon", "-1", "--out", "{d}/m.json"], 2,
        "--horizon -1.0 is not a positive finite number"),
    "grid-search-nan-horizon": (
        ["grid-search", "--events", "{d}/events.csv", "--horizon", "nan", "--out",
         "{d}/g.json"], 2, "--horizon nan is not a positive finite number"),
}


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("errors")
    (d / "events.csv").write_text("# T=10\n# U=1\ntime,mark\n0.5,1\n2.5,1\n")
    (d / "late.csv").write_text("# T=10\n# U=1\ntime,mark\n0.5,1\n2.5,1\n9,1\n")
    (d / "dup.csv").write_text("# T=10\n# U=1\ntime,mark\n0.5,1\n0.5,1\n")
    (d / "empty.csv").write_text("# T=10\n# U=1\ntime,mark\n")
    (d / "bad_t.csv").write_text("# T=abc\n# U=1\ntime,mark\n0.5,1\n")
    (d / "bad_u.csv").write_text("# T=10\n# U=x\ntime,mark\n0.5,1\n")
    (d / "keyless.json").write_text("{}\n")
    (d / "nan_curves.csv").write_text("# A=1\n# U=1\ns,g_11\n0,0.5\n0.5,x\n")
    (d / "short_curves.csv").write_text("# A=1\n# U=1\ns,g_11\n0,0.5\n0.5\n")
    (d / "unsorted_curves.csv").write_text(
        "# A=1\n# U=1\ns,g_11\n0,0.5\n0.75,0.2\n0.25,0.4\n1,0\n")
    (d / "bare_curves.csv").write_text("# A=1\n# U=1\ns,g_11\n")
    (d / "bad_u_curves.csv").write_text("# A=1\n# U=x\ns,g_11\n0,0.5\n")
    (d / "wide_curves.csv").write_text("# A=2\n# U=1\ns,g_11\n0,0.5\n1,0.25\n2,0\n")
    # declares A=5, but its grid ends at the model's A=1
    (d / "short_grid_curves.csv").write_text("# A=5\n# U=1\ns,g_11\n0,0.5\n0.5,0.25\n1,0\n")
    (d / "run.toml").write_text("featurs = 16\n")
    (d / "frac_seed.toml").write_text("seed = 1.5\n")
    (d / "text_seed.toml").write_text('seed = "x"\n')
    (d / "text_window.toml").write_text('window = "wide"\n')
    (d / "unquoted.toml").write_text("window = wide\n")
    (d / "unterminated.toml").write_text('events = "unterminated#cut\n')
    (d / "array.toml").write_text("features = [16]\n")
    (d / "latin1.toml").write_bytes('out = "caf\u00e9.json"\n'.encode("latin-1"))
    (d / "high_mark.csv").write_text("# T=10\n# U=1\ntime,mark\n0.5,2\n")
    (d / "negative_time.csv").write_text("# T=10\n# U=1\ntime,mark\n-0.5,1\n")
    (d / "nan_t.csv").write_text("# T=nan\n# U=1\ntime,mark\n0.5,1\n")
    (d / "negative_t.csv").write_text("# T=-1\n# U=1\ntime,mark\n0.5,1\n")
    (d / "nan_time.csv").write_text("# T=10\ntime,mark\n1.0,1\nnan,2\n3.0,1\n")
    (d / "no_header.csv").write_text("# T=10\n# U=1\n")
    (d / "wrong_header.csv").write_text("# T=10\ntime,dim\n0.5,1\n")
    (d / "three_fields.csv").write_text("# T=10\ntime,mark\n0.5,1\n2.5,1,1\n")
    (d / "decreasing.csv").write_text("# T=10\ntime,mark\n2.5,1\n0.5,1\n")
    (d / "long_curves.csv").write_text("# A=1\n# U=1\ns,g_11\n0,0.5\n0.5,0.25,1\n1,0\n")
    (d / "fractional_mark.csv").write_text("# T=10\n# U=2\ntime,mark\n0.5,1\n2.5,1.5\n")
    (d / "nan_mark.csv").write_text("# T=10\ntime,mark\n0.5,2\n2.5,nan\n")
    (d / "two_pair_curves.csv").write_text("# A=1\n# U=1\ns,g_11,g_12\n0,0.5,0.5\n1,0,0\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fit", "--events", str(d / "events.csv"), "--features", "2",
                         "--window", "1", "--out", str(d / "model.json")]) == 0
    (d / "list_model.json").write_text("[]\n")
    # model.json (M = 2) with one value changed
    fitted = (d / "model.json").read_text()
    for name, (*path, last), value in (
            ("number_basis", ("basis_ref",), 5),
            ("null_t", ("T",), None),
            ("list_gamma", ("gamma",), [1]),
            ("null_m", ("M",), None),
            ("wrong_m", ("M",), 4),
            ("inf_omega", ("basis_ref", "omega", 0), float("inf")),
            ("non_pair_theta", ("basis_ref", "theta", 1), 0.0),
            ("unequal_omega", ("basis_ref", "omega", 1), 1.5),
            ("nan_mu", ("mu_hat", 0), float("nan")),
            ("nan_coeff", ("coeff", 0, 1), float("nan"))):
        doc = json.loads(fitted)
        functools.reduce(operator.getitem, path, doc)[last] = value
        (d / f"{name}.json").write_text(json.dumps(doc))
    return d


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_error_exit_code_and_message(case, error_inputs, capsys, monkeypatch):
    monkeypatch.delenv("HAWKES_RKHS_SEED", raising=False)
    argv, code, message, *env = CLI_ERRORS[case]
    for name, value in (env[0] if env else {}).items():
        monkeypatch.setenv(name, value)
    d = str(error_inputs)
    capsys.readouterr()
    assert cli.main([arg.format(d=d) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: " + message.format(d=d) + "\n"


def test_bench_rejects_a_single_horizon(capsys):
    assert cli.main(["bench", "--horizons", "250", "--features", "8"]) == 1
    assert capsys.readouterr().err == "error: a slope needs at least two horizons, got 1\n"


def test_console_script_runs_cli_main():
    # tier-1 runs the package with python -m; an installed hawkes-rkhs command
    # runs the [project.scripts] target instead, which must hand its arguments
    # to cli.main and return its exit code
    import importlib
    import tomllib

    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, attr = project["project"]["scripts"]["hawkes-rkhs"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with mock.patch.dict(os.environ), mock.patch.object(cli, "main", return_value=7) as main:
        assert entry(["fit"]) == 7
    main.assert_called_once_with(["fit"])


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_refractory_draw_files_match_benchmark_digests(tmp_path):
    # the digests perfbench/references.json records for the simulate-refractory
    # workload (seed 175, T=2000): the benchmark checks every run against them
    events, curves = tmp_path / "events.csv", tmp_path / "curves.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--scenario", "refractory", "--t-end", "2000.0",
                         "--seed", "175", "--out", str(events),
                         "--curves-out", str(curves)]) == 0
    assert _sha256(events) == "e38357d9bc596a0f83b74898068eea44cf78c0061e589f87b037f6c8e58b6a4c"
    assert _sha256(curves) == "cf83279b2d6ca0c868bab7f5ff3cac647f6b7f961de5a0e326d87fe0a3323f92"


# SHA-256 of every file a small simulate -> fit -> evaluate run writes, as the
# code wrote them before the CSV writers shared one function; the fitted files
# were re-recorded when the event sums moved onto the Gram's u = 0 lag row (a
# change of at most 2.5e-14 relative), when each Gram block pair came to be
# formed once (at most 9.3e-16 of a file's largest value), and when the Gram
# moved onto the pair basis's M/2 frequencies (model.json, the nine pair_g*.csv,
# report.json and report_file.json, by at most 4.9e-16 of a file's largest
# value; a coefficient by 4.4e-14, 5.4e-14 of the largest), and assume IEEE
# float64 arithmetic with numpy's own BLAS
PIPELINE_DIGESTS = {
    "ev.csv": "63800c39de7543d6aa3b73786d9059f72b3abcf5a05f011070f6cb44b7aad672",
    "ev_curves.csv": "d2a4b642f571d9ddea76fc1e261d13d90b39627ae6e1ff76503d4e197e32b2c2",
    "model.json": "688c35b501dc5f6a4d9ab95e927ebd496c9b953e7637771c047f3c37e94b83b1",
    "pair_g11.csv": "75388276e3f62cea71b1f07dbef068875f21a4bb7f804d3e075ad2eb62a7a0c4",
    "pair_g12.csv": "d591c9a6ed545b1275c3b3711c1ad700ceccf6d7a17193da56b72bfa63b908c7",
    "pair_g13.csv": "e6d5ccca0686611a82a45ab6118289859dee8d3965aa734882c69a576daae66c",
    "pair_g21.csv": "e245724e21e4342da0b5af5a1c9b29087af7b94a39f9ad2042af4f53daaa866b",
    "pair_g22.csv": "ae4bef9ee8ad77ea3b349ecd483d79cc494f6dc18fb4cca26345650b5279de69",
    "pair_g23.csv": "83a56dcc23140bb48656f919918437a71757f57fecad129a6129e4c4dc46bc15",
    "pair_g31.csv": "0117580de8405e64671fa47367d8cb3da6ca17867ee2a87e5e8a1833692a57c9",
    "pair_g32.csv": "e2944459a735b3a68c2448f5def091459c982d34f4afec2c54a38b9e5229e6eb",
    "pair_g33.csv": "4824a0a147ee17df7601c3d8fd03d738066fa98215fcbf6bad75b51938330339",
    "report.json": "19248e3f52efbcf5b93b7bfe2bad38dd0ae570d33dd528c9c731511c5e96712d",
    "report_file.json": "ed659bedd77186d6eb3ce1a20ef98760a7d242e709cae24d43e43dcd6ff3ae12",
}


def test_pipeline_files_match_recorded_digests(tmp_path):
    d = str(tmp_path)
    for argv in (
        ["simulate", "--scenario", "mutually-exciting", "--t-end", "200", "--seed", "1",
         "--out", f"{d}/ev.csv"],
        ["fit", "--events", f"{d}/ev.csv", "--features", "8", "--seed", "2",
         "--out", f"{d}/model.json"],
        ["evaluate", "--model", f"{d}/model.json", "--scenario", "mutually-exciting",
         "--out", f"{d}/report.json", "--curves-out", f"{d}/pair"],
        ["evaluate", "--model", f"{d}/model.json", "--truth-curves", f"{d}/ev_curves.csv",
         "--out", f"{d}/report_file.json"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == PIPELINE_DIGESTS

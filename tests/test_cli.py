import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hawkes_rkhs.cli import build_parser
from hawkes_rkhs.events import read_events_csv


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("HAWKES_RKHS_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hawkes_rkhs", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    events = root / "events.csv"
    out = run_cli("simulate", "--scenario", "mutually-exciting",
                  "--t-end", "400", "--seed", "1", "--out", str(events))
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
    assert "duplicate event time at line 5" in out.stderr


def test_fit_programming_error_propagates(tmp_path, monkeypatch):
    # only expected numerical failures become "error: ..." and exit code 1
    from hawkes_rkhs import cli

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
    assert "delta^2=" in lines[0] and "refit cpu=" in lines[0]
    assert lines[-1].startswith("T=400  ")
    assert ("baseline=0.006" in lines[-1]) == (scenario == "refractory")


def test_reproduce_rejects_bad_options():
    assert run_cli("reproduce", "--scenario", "poisson").returncode == 2
    out = run_cli("reproduce", "--scenario", "mutually-exciting", "--baseline", "0.1")
    assert out.returncode == 2 and "refractory" in out.stderr

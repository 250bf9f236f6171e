"""Self-tests of the benchmark, run on the tiny workload sizes."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hawkes_rkhs
import run
import tracing
import workloads
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# layer metrics each workload must fill in, so that a call the wrappers miss
# shows up as a failed test
LAYERS_SEEN = {
    "draw-mutex": ("simulation.simulate.calls", "features.build_basis.calls",
                   "estimator.build_xi.calls", "estimator.fit.calls",
                   "estimator.phi_tilde.calls", "evaluation.cells",
                   "evaluation.ls_contrast.calls", "evaluation.ise.s"),
    "fit-ms-units": ("simulation.simulate.calls", "features.build_basis.calls",
                     "features.window_table.s", "estimator.build_xi.calls",
                     "estimator.fit.calls", "estimator.solve.s", "estimator.pairs"),
    "fit-wide-basis": ("simulation.simulate.calls", "features.build_basis.calls",
                       "estimator.build_xi.calls", "estimator.fit.calls",
                       "estimator.solve.s", "estimator.condition"),
    "simulate-refractory": ("simulation.simulate.calls", "simulation.accept_ratio",
                            "events.write_csv.s", "events.csv_bytes",
                            "cli.write_curves.s", "cli.simulate.self_s"),
}


def _run_cli(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_file_names_the_metrics_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    per_layer = dict(tracing.LAYER_METRICS, **run.RUN_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = _run_cli("--workload", workload, "--size", "tiny", "--seconds", "0.2",
                    "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        for name in LAYERS_SEEN[workload]:
            assert result["metrics"][name]["value"] > 0, name


def _attributes(package):
    return {(id(owner), attr): owner.__dict__.get(attr)
            for _, owners, attr, _ in tracing.targets(package) for owner in owners}


def test_wrappers_leave_no_wrapped_attribute_behind():
    before = _attributes(hawkes_rkhs)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer, hawkes_rkhs):
            inside = _attributes(hawkes_rkhs)
            assert all(inside[key] is not value for key, value in before.items()
                       if value is not None)
            assert hawkes_rkhs.evaluation.build_xi is hawkes_rkhs.estimator.build_xi
            raise RuntimeError("restore on error too")
    assert _attributes(hawkes_rkhs) == before
    with tracing.capture(hawkes_rkhs.evaluation, "grid_search"):
        pass
    assert _attributes(hawkes_rkhs) == before


def test_traced_run_restores_the_package():
    before = _attributes(hawkes_rkhs)
    result, record = run.run_workload("draw-mutex", 1, 0.0, trace=1, size="tiny")
    assert result["correct"]
    assert _attributes(hawkes_rkhs) == before
    assert record["spans"] and all(0.9 < c <= 1.0 for c in record["span_coverage"])


def test_host_clock_samples_inside_and_restores_the_signal():
    import signal
    import time

    import hostclock
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(interval=0.01) as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert clock.samples >= 5 and 0.0 < clock.unit_s() < clock.kernel_s
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refractory_inputs_cycle_through_the_pool(tmp_path):
    wl = workloads.WORKLOADS["simulate-refractory"]
    ref = run.load_references(wl.name, "tiny")
    pool = ref["pool"]
    st = wl.setup(wl.sizes["tiny"], 4, ref, tmp_path)
    seen = []
    for _ in range(len(pool) + 1):
        summary = wl.summarize(st, wl.iterate(st))
        assert wl.check(st, summary, ref) == []
        seen.append(summary["input"])
    assert seen == [pool[(4 + k) % len(pool)] for k in range(len(pool) + 1)]


def _wrong(name):
    ref = json.loads(json.dumps(run.load_references(name, "tiny")))
    if name == "draw-mutex":
        ref["delta_sq"] *= 1.001
    elif name == "fit-ms-units":
        ref["n_events"] += 1
    elif name == "fit-wide-basis":
        ref["mu_hat"][0] += 1e-4
    else:
        ref["events_sha256"] = {k: "0" * 64 for k in ref["events_sha256"]}
    return ref


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_wrong_reference_fails_the_run(workload):
    result, record = run.run_workload(workload, 1, 0.0, trace=0, size="tiny",
                                      ref=_wrong(workload))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["failures"]


def test_unit_check_fails_when_the_fits_disagree(monkeypatch):
    # the ms and natural-unit fits agree to rounding, not bit for bit
    monkeypatch.setattr(workloads, "REL_TOL", 0.0)
    result, record = run.run_workload("fit-ms-units", 1, 0.0, trace=0, size="tiny")
    assert not result["correct"]
    assert any("kernels in ms" in f for f in record["failures"])


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "draw-mutex",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_pair_counts_match_brute_force():
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 40.0, 60))
    A, lo, hi = 5.0, 12.0, 31.0
    lag = times[:, None] - times[None, :]
    assert tracing.window_pairs(times, A) == int(np.sum((lag > 0) & (lag < A)))
    a = np.maximum(times[:, None], lo)
    b = np.minimum(times[None, :] + A, hi)
    kept = (lag >= 0) & (lag < A) & (a < b)
    assert tracing.integrated_pairs(times, A, lo, hi) == int(kept.sum())

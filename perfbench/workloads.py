"""The benchmark workloads.

Each workload makes its inputs in ``setup`` (from the seed), runs one timed
unit of work in ``iterate``, and reduces the output to plain values in
``summarize``, outside the timed region.  ``check`` compares a summary with
the references recorded in ``references.json``; it returns the failed checks
as messages, so a failure is printed and counted, never skipped.

The three mutually-exciting workloads use the draw with seed 20 whatever the
benchmark seed: cost and ISE vary about 4x between draws at T=2000, so a run
on another draw would not compare with the recorded references or with
runs on other seeds.  The refractory workload cycles through a pool of
simulation seeds, starting at the one the benchmark seed picks, so that every
run of more than a few iterations does about the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

# Wrapped functions are called through their module, so that the traced
# run sees these calls too.
from hawkes_rkhs import cli, estimator, evaluation, features, simulation
from hawkes_rkhs.estimator import FitConfig, FittedModel, g_curve
from hawkes_rkhs.events import EventSequence
from hawkes_rkhs.features import FeatureBasis, KernelSpec
from hawkes_rkhs.simulation import mutually_exciting_scenario, read_curves_csv

from tracing import capture, window_pairs

MUTEX_SEED = 20
# Relative tolerances of the checks.  The fits are deterministic with BLAS on
# one thread; the slack admits a reordered but equivalent Gram assembly.
REL_TOL = 1e-6


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def projections(coeff: np.ndarray, k: int = 8) -> np.ndarray:
    """coeff @ R for a fixed deterministic (MU, k) matrix R of cosines, so a
    few numbers stand for the whole coefficient array in the references."""
    rows = np.arange(1, coeff.shape[1] + 1)[:, None]
    R = np.cos(0.7 * rows * np.arange(1, k + 1)[None, :])
    return coeff @ R


def _close(value, ref, scale=None) -> bool:
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        return False
    scale = np.max(np.abs(ref)) if scale is None else scale
    return bool(np.max(np.abs(value - ref), initial=0.0) <= REL_TOL * scale)


class DrawMutex:
    name = "draw-mutex"
    sizes = {
        "full": {"T": 2000.0, "M": 100, "gammas": (0.1, 0.5, 1.0),
                 "betas": (0.5, 1.0, 1.5), "split": 0.8},
        "tiny": {"T": 300.0, "M": 10, "gammas": (0.5, 1.0),
                 "betas": (0.5, 1.0), "split": 0.8},
    }

    def setup(self, params, seed, ref, workdir):
        return {"params": params, "spec": mutually_exciting_scenario(),
                "grid": evaluation.GridSpec(params["gammas"], params["betas"],
                                            params["split"])}

    def iterate(self, st):
        p = st["params"]
        with capture(evaluation, "grid_search") as searches:
            report, model, events = evaluation.fit_scenario_draw(
                st["spec"], p["T"], MUTEX_SEED, st["grid"], M=p["M"], workers=1)
        return report, model, events, searches[-1][1]

    def summarize(self, st, out):
        report, model, events, cells = out
        return {
            "chosen": [report.gamma, report.beta],
            "n_events": len(events),
            "delta_sq": report.delta_sq,
            "cell_errors": [c.error for c in cells if c.error is not None],
            "digest": array_digest(model.mu_hat, model.coeff),
            "sizes": {"N": len(events), "P": window_pairs(events.times, st["spec"].A),
                      "MU": model.coeff.shape[1]},
        }

    def check(self, st, summary, ref):
        failures = [f"grid cell error: {e}" for e in summary["cell_errors"]]
        if summary["chosen"] != ref["chosen"]:
            failures.append(f"chosen (gamma, beta) {summary['chosen']} != {ref['chosen']}")
        if summary["n_events"] != ref["n_events"]:
            failures.append(f"N={summary['n_events']} != {ref['n_events']}")
        if not _close(summary["delta_sq"], ref["delta_sq"]):
            failures.append(f"delta_sq {summary['delta_sq']!r} != {ref['delta_sq']!r}")
        return failures


def _in_natural_units(model: FittedModel, c: float) -> FittedModel:
    """The same kernels with time divided by c: g(s) = c g_c(c s)."""
    b = model.basis
    basis = FeatureBasis(omega=b.omega * c, theta=b.theta, family=b.family,
                         beta=b.beta * c, seed=b.seed)
    config = FitConfig(gamma=model.config.gamma * c, A=model.config.A / c, basis=basis)
    return FittedModel(mu_hat=model.mu_hat * c, coeff=model.coeff * c, basis=basis,
                       config=config, T=model.T / c, U=model.U)


class FitMsUnits:
    name = "fit-ms-units"
    sizes = {
        "full": {"T": 300.0, "M": 100, "gamma": 1.0, "beta": 1.0, "scale": 1000.0},
        "tiny": {"T": 100.0, "M": 10, "gamma": 1.0, "beta": 1.0, "scale": 1000.0},
    }

    def setup(self, params, seed, ref, workdir):
        spec = mutually_exciting_scenario()
        c = params["scale"]
        events = simulation.simulate(spec, params["T"], MUTEX_SEED).events
        scaled = EventSequence(events.times * c, events.marks, events.T * c, events.U)
        basis = features.build_basis(KernelSpec(beta=params["beta"]), params["M"],
                                     MUTEX_SEED)
        natural = estimator.fit(events, FitConfig(gamma=params["gamma"], A=spec.A,
                                                  basis=basis))
        lags = np.linspace(0.0, spec.A, 101)
        curves = [[g_curve(natural, i + 1, j + 1, lags) for j in range(spec.U)]
                  for i in range(spec.U)]
        return {"params": params, "spec": spec, "events": scaled, "lags": lags,
                "natural_mu": natural.mu_hat, "natural_curves": np.asarray(curves)}

    def iterate(self, st):
        p, c = st["params"], st["params"]["scale"]
        basis = features.build_basis(KernelSpec(beta=p["beta"] / c), p["M"], MUTEX_SEED)
        config = FitConfig(gamma=p["gamma"] / c, A=st["spec"].A * c, basis=basis)
        return estimator.fit(st["events"], config)

    def summarize(self, st, model):
        c, U = st["params"]["scale"], model.U
        curves = [[c * g_curve(model, i + 1, j + 1, st["lags"] * c) for j in range(U)]
                  for i in range(U)]
        ref_curves = st["natural_curves"]
        return {
            "curve_error": float(np.max(np.abs(np.asarray(curves) - ref_curves))),
            "curve_scale": float(np.max(np.abs(ref_curves))),
            "mu_error": float(np.max(np.abs(model.mu_hat * c - st["natural_mu"]))),
            "mu_scale": float(np.max(np.abs(st["natural_mu"]))),
            "delta_sq": evaluation.ise(st["spec"], _in_natural_units(model, c)).delta_sq,
            "n_events": len(st["events"]),
            "digest": array_digest(model.mu_hat, model.coeff),
            "sizes": {"N": len(st["events"]),
                      "P": window_pairs(st["events"].times, st["spec"].A * c),
                      "MU": model.coeff.shape[1]},
        }

    def check(self, st, summary, ref):
        failures = []
        if not summary["curve_error"] <= REL_TOL * summary["curve_scale"]:
            failures.append(f"kernels in ms differ from natural units by "
                            f"{summary['curve_error']:.3e}")
        if not summary["mu_error"] <= REL_TOL * summary["mu_scale"]:
            failures.append(f"baselines in ms differ from natural units by "
                            f"{summary['mu_error']:.3e}")
        if summary["n_events"] != ref["n_events"]:
            failures.append(f"N={summary['n_events']} != {ref['n_events']}")
        return failures


class FitWideBasis:
    name = "fit-wide-basis"
    sizes = {
        "full": {"T": 200.0, "M": 512, "gamma": 1.0, "beta": 1.0},
        "tiny": {"T": 100.0, "M": 32, "gamma": 1.0, "beta": 1.0},
    }

    def setup(self, params, seed, ref, workdir):
        spec = mutually_exciting_scenario()
        return {"params": params, "spec": spec,
                "events": simulation.simulate(spec, params["T"], MUTEX_SEED).events}

    def iterate(self, st):
        p = st["params"]
        basis = features.build_basis(KernelSpec(beta=p["beta"]), p["M"], MUTEX_SEED)
        config = FitConfig(gamma=p["gamma"], A=st["spec"].A, basis=basis)
        return estimator.fit(st["events"], config)

    def summarize(self, st, model):
        events = st["events"]
        return {
            "mu_hat": model.mu_hat.tolist(),
            "coeff_projections": projections(model.coeff).tolist(),
            "coeff_norm": float(np.linalg.norm(model.coeff)),
            "delta_sq": evaluation.ise(st["spec"], model).delta_sq,
            "n_events": len(events),
            "digest": array_digest(model.mu_hat, model.coeff),
            "sizes": {"N": len(events), "P": window_pairs(events.times, st["spec"].A),
                      "MU": model.coeff.shape[1]},
        }

    def check(self, st, summary, ref):
        failures = []
        if summary["n_events"] != ref["n_events"]:
            failures.append(f"N={summary['n_events']} != {ref['n_events']}")
        if not _close(summary["mu_hat"], ref["mu_hat"]):
            failures.append(f"mu_hat {summary['mu_hat']} != {ref['mu_hat']}")
        if not _close(summary["coeff_norm"], ref["coeff_norm"]):
            failures.append(f"|coeff| {summary['coeff_norm']!r} != {ref['coeff_norm']!r}")
        if not _close(summary["coeff_projections"], ref["coeff_projections"],
                      scale=ref["coeff_norm"]):
            failures.append("coeff projections differ from the reference")
        return failures


class SimulateRefractory:
    name = "simulate-refractory"
    sizes = {"full": {"T": 2000.0}, "tiny": {"T": 100.0}}

    def setup(self, params, seed, ref, workdir):
        pool = ref["pool"]
        workdir.mkdir(parents=True, exist_ok=True)
        return {"params": params, "pool": pool, "next": seed % len(pool),
                "sim_seed": None,
                "events_path": workdir / "refractory_events.csv",
                "curves_path": workdir / "refractory_curves.csv"}

    def iterate(self, st):
        st["sim_seed"] = st["pool"][st["next"]]
        st["next"] = (st["next"] + 1) % len(st["pool"])
        argv = ["simulate", "--scenario", "refractory",
                "--t-end", repr(st["params"]["T"]), "--seed", str(st["sim_seed"]),
                "--out", str(st["events_path"]), "--curves-out", str(st["curves_path"])]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def summarize(self, st, rc):
        rows = st["events_path"].read_text().splitlines()
        s, curves, U = read_curves_csv(st["curves_path"])
        # ISE of the all-zero kernel estimate against the truth read back from
        # the written curves file: nothing is fitted here, so this is the
        # scale fitted ISEs are read against, and it moves if the file does
        zero_ise = sum(simpson(curves[i, j] ** 2, x=s) for i in range(U) for j in range(U))
        n_events = sum(1 for r in rows if r and not r.startswith("#")) - 1
        return {
            "input": st["sim_seed"],
            "rc": rc,
            "n_events": n_events,
            "events_sha256": sha256_file(st["events_path"]),
            "curves_sha256": sha256_file(st["curves_path"]),
            "delta_sq": float(zero_ise),
            "sizes": {"N": n_events, "P": None, "MU": None},
        }

    def check(self, st, summary, ref):
        failures = []
        if summary["rc"] != 0:
            failures.append(f"hawkes-rkhs simulate exited with {summary['rc']}")
        expected = ref["events_sha256"][str(summary["input"])]
        if summary["events_sha256"] != expected:
            failures.append(f"events file of seed {summary['input']} differs from "
                            f"the recorded digest {expected[:12]}")
        if summary["curves_sha256"] != ref["curves_sha256"]:
            failures.append("curves file differs from the recorded digest")
        return failures


WORKLOADS = {w.name: w for w in (DrawMutex(), FitMsUnits(), FitWideBasis(),
                                 SimulateRefractory())}

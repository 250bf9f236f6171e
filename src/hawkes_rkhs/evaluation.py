"""Scoring, hyperparameter search, and runtime benchmarks.

The least-squares contrast of a fitted model over a time window has a closed
form, ``Design.contrast``, through the same statistics the estimator solves, so
validation scoring needs no quadrature.  Integrated squared error against a
ground-truth scenario uses composite Simpson quadrature on the lag window.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .estimator import Design, FitConfig, FitError, FittedModel, build_xi, fit
from .events import EventSequence
from .features import KernelSpec, build_basis, feature_matrix
from .simulation import ScenarioSpec, simulate, true_curves


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid and train/validation split fraction."""

    gamma_grid: tuple
    beta_grid: tuple
    split_fraction: float = 0.8

    def __post_init__(self):
        gammas = tuple(float(g) for g in self.gamma_grid)
        betas = tuple(float(b) for b in self.beta_grid)
        if not gammas or not betas:
            raise ValueError("hyperparameter grids must be nonempty")
        bad = [v for v in gammas + betas if not 0 < v < np.inf]
        if bad:
            raise ValueError(f"grid values must be positive and finite, got {bad[0]}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        object.__setattr__(self, "gamma_grid", gammas)
        object.__setattr__(self, "beta_grid", betas)


@dataclass
class EvalReport:
    """Container for scores of one model or one grid cell."""

    gamma: float | None = None
    beta: float | None = None
    ls_loss: float | None = None
    delta_sq: float | None = None
    per_pair: np.ndarray | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        """The scores that are set; ``per_pair`` as nested lists."""
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in vars(self).items() if value is not None}


def ise(truth: ScenarioSpec, model: FittedModel, n_nodes: int = 2001) -> EvalReport:
    """Integrated squared error between true and fitted triggering kernels,

        delta^2 = sum_ij int_0^A (g_ij(s) - ghat_ij(s))^2 ds,

    by composite Simpson quadrature on ``n_nodes`` points (forced odd).
    """
    if truth.U != model.U:
        raise ValueError(f"dimension mismatch: truth U={truth.U}, model U={model.U}")
    if n_nodes % 2 == 0:
        n_nodes += 1
    s = np.linspace(0.0, truth.A, n_nodes)
    return ise_on_grid(s, true_curves(truth, s), model)


def ise_on_grid(s: np.ndarray, truth_curves: np.ndarray, model: FittedModel) -> EvalReport:
    """Integrated squared error against tabulated truth curves on a given lag
    grid (Simpson on that grid); one feature matrix on the grid serves all
    U^2 kernels.  The grid must run from 0 to the model's A, to a relative
    1e-12, as the fitted kernels past A are extrapolation."""
    U, M, A = truth_curves.shape[0], model.basis.M, model.config.A
    if U != model.U:
        raise ValueError(f"dimension mismatch: curves U={U}, model U={model.U}")
    if s[0] != 0.0 or abs(s[-1] - A) > 1e-12 * A:
        raise ValueError(f"window mismatch: lag grid [{s[0]}, {s[-1]}], model A={A}")
    fitted = model.coeff.reshape(U, U, M) @ feature_matrix(model.basis, s).T
    diff = truth_curves - fitted
    per_pair = simpson(diff * diff, x=s, axis=-1)
    return EvalReport(gamma=model.config.gamma, beta=model.basis.beta,
                      delta_sq=float(per_pair.sum()), per_pair=per_pair)


def _map(fn, jobs, workers: int):
    """``fn(*job)`` per job, in job order: over min(``workers``, len(jobs))
    processes started by the platform's default method or, when that is 1 or
    less, serially and lazily, so that a result the caller drops is freed."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return (fn(*job) for job in jobs)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _search_beta(events: EventSequence, gammas, beta: float, M: int, A: float,
                 seed: int, t_split: float):
    """Score every gamma for one beta: a training design on [0, t_split] and a
    validation design on [t_split, T] serve all gammas, at one factorization
    of the training system per gamma.  Returns one report per gamma and the
    design over [0, T], the sum of the two."""
    basis = build_basis(KernelSpec(beta=beta), M, seed)
    train = Design(events, basis, A, 0.0, t_split)
    valid = Design(events, basis, A, t_split, events.T)
    reports = []
    for gamma in gammas:
        report = EvalReport(gamma=gamma, beta=beta)
        try:
            model = train.solve(gamma)
            report.ls_loss = valid.contrast(model.mu_hat, model.coeff)
        except FitError as exc:  # numerical failure; any other error propagates
            report.error = f"{type(exc).__name__}: {exc}"
        reports.append(report)
    return reports, train + valid


def grid_search(events: EventSequence, grid: GridSpec, M: int, A: float,
                seed: int, workers: int = 1, designs: dict | None = None):
    """Validation-split hyperparameter selection.

    Each (gamma, beta) cell fits on the events in [0, split * T] with horizon
    split * T, and scores the least-squares contrast on [split * T, T] with
    full history.  Both designs are built once per beta and shared by its
    gammas; ``workers`` > 1 spreads the betas over processes, one per beta at
    most.  Returns (best, cells) with cells ordered gamma-major; ties prefer
    larger gamma, then larger beta.  Cells whose solve raises FitError carry
    its message and are skipped in the argmin, and RuntimeError means every
    cell did; a window without events, or a training one shorter than A,
    raises ValueError.  A ``designs`` dict receives, keyed by beta, the
    design over [0, T]: the sum of that beta's two, so a refit on the whole
    horizon builds no Gram.
    """
    t_split = grid.split_fraction * events.T
    if len(events) == 0 or events.times.max() <= t_split:
        raise ValueError(
            f"validation window empty: no events after t={t_split:.6g}")
    jobs = [(events, grid.gamma_grid, beta, M, A, seed, t_split) for beta in grid.beta_grid]
    per_beta = _map(_search_beta, jobs, workers)
    by_beta = []
    for beta, (cells, whole) in zip(grid.beta_grid, per_beta):
        by_beta.append(cells)
        if designs is not None:
            designs[beta] = whole
    reports = [report for by_gamma in zip(*by_beta) for report in by_gamma]
    scored = [r for r in reports if r.error is None]
    if not scored:
        raise RuntimeError(
            "every grid cell failed; first error: " + reports[0].error)
    best = min(scored, key=lambda r: (r.ls_loss, -r.gamma, -r.beta))
    return best, reports


def fit_scenario_draw(scenario: ScenarioSpec, T: float, seed: int, grid: GridSpec,
                      M: int = 100, workers: int = 1):
    """Simulate one draw, grid-search hyperparameters (``workers`` as in
    ``grid_search``), refit on the full horizon with the chosen cell, and
    score against the truth.  Returns (report, model, events).

    The model is ``Design.solve`` of the chosen beta's [0, T] design from the
    grid search at the chosen gamma, which is ``fit`` on [0, T] up to the
    rounding of the sum; its ``stats`` are the solve's alone."""
    result = simulate(scenario, T, seed)
    designs = {}
    best, _ = grid_search(result.events, grid, M, scenario.A, seed, workers=workers,
                          designs=designs)
    model = designs[best.beta].solve(best.gamma)
    report = ise(scenario, model)
    report.ls_loss = best.ls_loss
    return report, model, result.events


def _timed_draw(scenario: ScenarioSpec, T: float, seed: int, grid: GridSpec, M: int):
    t0 = time.perf_counter()
    return *fit_scenario_draw(scenario, T, seed, grid, M=M), time.perf_counter() - t0


def fit_scenario_draws(scenario: ScenarioSpec, T: float, seeds, grid: GridSpec,
                       M: int = 100, workers: int = 1) -> list:
    """``fit_scenario_draw`` for each seed, the draws spread over
    min(``workers``, len(seeds)) processes, each draw's grid search on one.
    Returns (report, model, events, wall_s) per seed in seed order, wall_s the
    draw's wall-clock time in its process.  The workers start by the
    platform's default method; where that is spawn or forkserver they import
    the caller's main module, so there a script calling this with ``workers``
    > 1 runs its calls under ``if __name__ == "__main__":``."""
    return list(_map(_timed_draw, [(scenario, T, seed, grid, M) for seed in seeds], workers))


def bench_scaling(scenario: ScenarioSpec, horizons, M: int, reps: int = 1, seed: int = 0):
    """Wall time of each fit phase versus horizon, fitting at gamma = beta = 1.

    Returns (rows, slopes): one row per horizon with event count and phase
    times (min over ``reps``), plus the fitted log-log slope of the Gram
    build time against the event count, which needs two horizons or more.
    """
    horizons = [float(T) for T in horizons]
    if len(horizons) < 2:
        raise ValueError(f"a slope needs at least two horizons, got {len(horizons)}")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be increasing")
    basis = build_basis(KernelSpec(beta=1.0), M, seed)
    rows = []
    for T in horizons:
        events = simulate(scenario, T, seed).events
        config = FitConfig(gamma=1.0, A=scenario.A, basis=basis)
        stats = min((fit(events, config).stats for _ in range(max(1, reps))),
                    key=lambda st: st["total_s"])
        rows.append({"T": T, "n_events": len(events),
                     **{key: stats[key] for key in ("xi_build_s", "solve_s", "total_s")}})
    counts = np.array([r["n_events"] for r in rows], dtype=float)
    builds = np.array([r["xi_build_s"] for r in rows])
    slope = float(np.polyfit(np.log(counts), np.log(builds), 1)[0])
    return rows, {"xi_build_vs_events": slope}


def bench_factorization(events: EventSequence, m_values, reps: int = 3):
    """Cholesky factorization time versus feature count on a fixed event set.

    It times scipy's float64 ``cho_factor`` with its finiteness check and
    copy: the factorization of the float64 route (narrow and declined
    systems), not ``estimator._cholesky``'s in-place call on its own copy,
    nor the low-rank factor that ``estimator._RidgeSolver`` forms for wide
    systems, in fits and equivalent kernels alike.
    The system is gamma = 1 over a beta = 1, seed-0 basis.  Returns (rows,
    slopes) with the log-log slope of factorization time against M, which
    needs two M values or more; the expected exponent is 3 (cubic solve cost).
    """
    from scipy.linalg import cho_factor

    if len(m_values) < 2:
        raise ValueError(f"a slope needs at least two feature counts, got {len(m_values)}")
    rows = []
    for M in m_values:
        basis = build_basis(KernelSpec(beta=1.0), int(M), 0)
        xi = build_xi(events, basis, min(5.0, events.T))[0]
        Z = xi + np.eye(xi.shape[0])
        best = np.inf
        for _ in range(max(1, reps)):
            t0 = time.perf_counter()
            cho_factor(Z, lower=True)
            best = min(best, time.perf_counter() - t0)
        rows.append({"M": int(M), "size": Z.shape[0], "factorize_s": best})
    ms = np.array([r["M"] for r in rows], dtype=float)
    ts = np.array([r["factorize_s"] for r in rows])
    slope = float(np.polyfit(np.log(ms), np.log(ts), 1)[0])
    return rows, {"factorize_vs_M": slope}


__all__ = [
    "GridSpec",
    "EvalReport",
    "ise",
    "ise_on_grid",
    "grid_search",
    "fit_scenario_draw",
    "fit_scenario_draws",
    "bench_scaling",
    "bench_factorization",
]

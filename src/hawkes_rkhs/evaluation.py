"""Scoring, hyperparameter search, and runtime benchmarks.

The least-squares contrast of a fitted model over a time window has a closed
form through the same feature-map integrals used by the estimator, so
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
        if any(g <= 0 for g in gammas) or any(b <= 0 for b in betas):
            raise ValueError("grid values must be positive")
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
        doc: dict = {}
        if self.gamma is not None:
            doc["gamma"] = self.gamma
        if self.beta is not None:
            doc["beta"] = self.beta
        if self.ls_loss is not None:
            doc["ls_loss"] = self.ls_loss
        if self.delta_sq is not None:
            doc["delta_sq"] = self.delta_sq
        if self.per_pair is not None:
            doc["per_pair"] = self.per_pair.tolist()
        if self.error is not None:
            doc["error"] = self.error
        return doc


def ls_contrast(mu: np.ndarray, coeff: np.ndarray, basis, events: EventSequence,
                t0: float, t1: float, A: float) -> float:
    """Least-squares contrast of (mu, coeff) over the window [t0, t1]:

        sum_i [ int_t0^t1 lambda_i(t)^2 dt - 2 sum_{events of i in window} lambda_i(t_n) ]

    The window holds the events with t0 <= t_n < t1; intensities always see
    the full history, so events before t0 still excite inside the window.
    """
    if t0 < 0 or t1 > events.T or t0 > t1:
        raise ValueError(f"window [{t0}, {t1}] must lie inside [0, {events.T}]")
    return Design(events, basis, A, t0, t1).contrast(mu, coeff)


def ise(truth: ScenarioSpec, model: FittedModel, A: float | None = None,
        n_nodes: int = 2001) -> EvalReport:
    """Integrated squared error between true and fitted triggering kernels,

        delta^2 = sum_ij int_0^A (g_ij(s) - ghat_ij(s))^2 ds,

    by composite Simpson quadrature on ``n_nodes`` points (forced odd).
    """
    if truth.U != model.U:
        raise ValueError(f"dimension mismatch: truth U={truth.U}, model U={model.U}")
    if A is None:
        A = truth.A
    if abs(model.config.A - A) > 1e-12:
        raise ValueError(f"window mismatch: scoring A={A}, model A={model.config.A}")
    if n_nodes % 2 == 0:
        n_nodes += 1
    s = np.linspace(0.0, A, n_nodes)
    return ise_on_grid(s, true_curves(truth, s), model)


def ise_on_grid(s: np.ndarray, truth_curves: np.ndarray, model: FittedModel) -> EvalReport:
    """Integrated squared error against tabulated truth curves on a given lag
    grid (Simpson on that grid); one feature matrix on the grid serves all
    U^2 kernels."""
    U, M = truth_curves.shape[0], model.basis.M
    if U != model.U:
        raise ValueError(f"dimension mismatch: curves U={U}, model U={model.U}")
    fitted = model.coeff.reshape(U, U, M) @ feature_matrix(model.basis, s).T
    diff = truth_curves - fitted
    per_pair = simpson(diff * diff, x=s, axis=-1)
    return EvalReport(gamma=model.config.gamma, beta=model.basis.beta,
                      delta_sq=float(per_pair.sum()), per_pair=per_pair)


# numerical failures a grid cell reports instead of raising; any other
# exception is a programming error and propagates out of grid_search
_CELL_FAILURES = (FitError, ValueError, np.linalg.LinAlgError)


def _search_beta(events: EventSequence, gammas, beta: float, M: int, A: float,
                 seed: int, t_split: float) -> list:
    """Score every gamma for one beta: a training design on [0, t_split] and a
    validation design on [t_split, T] serve all gammas, at one Cholesky
    factorization per gamma.  Returns one report per gamma."""
    basis = build_basis(KernelSpec(beta=beta), M, seed)
    train = Design(events, basis, A, 0.0, t_split)
    valid = Design(events, basis, A, t_split, events.T)
    reports = []
    for gamma in gammas:
        report = EvalReport(gamma=gamma, beta=beta)
        try:
            mu_hat, coeff, _ = train.solve(gamma)
            report.ls_loss = valid.contrast(mu_hat, coeff)
        except _CELL_FAILURES as exc:
            report.error = f"{type(exc).__name__}: {exc}"
        reports.append(report)
    return reports


def grid_search(events: EventSequence, grid: GridSpec, M: int, A: float,
                seed: int, workers: int = 1):
    """Validation-split hyperparameter selection.

    Each (gamma, beta) cell fits on the events in [0, split * T] with horizon
    split * T, and scores the least-squares contrast on [split * T, T] with
    full history.  Both designs are built once per beta and shared by its
    gammas; ``workers`` > 1 spreads the betas over processes.  Returns
    (best, cells) with cells ordered gamma-major; ties prefer larger gamma,
    then larger beta.  Cells whose fit fails numerically carry an error
    message and are skipped in the argmin.
    """
    t_split = grid.split_fraction * events.T
    if len(events) == 0 or events.times.max() <= t_split:
        raise ValueError(
            f"validation window empty: no events after t={t_split:.6g}")
    jobs = [(events, grid.gamma_grid, beta, M, A, seed, t_split)
            for beta in grid.beta_grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_beta = list(pool.map(_search_beta, *zip(*jobs)))
    else:
        per_beta = [_search_beta(*job) for job in jobs]
    reports = [report for by_gamma in zip(*per_beta) for report in by_gamma]
    scored = [r for r in reports if r.error is None]
    if not scored:
        raise RuntimeError(
            "every grid cell failed; first error: " + reports[0].error)
    best = min(scored, key=lambda r: (r.ls_loss, -r.gamma, -r.beta))
    return best, reports


def fit_scenario_draw(scenario: ScenarioSpec, T: float, seed: int, grid: GridSpec,
                      M: int = 100, workers: int = 1):
    """Simulate one draw, grid-search hyperparameters, refit on the full
    horizon with the chosen cell, and score against the truth.  Returns
    (report, model, events)."""
    result = simulate(scenario, T, seed)
    best, _ = grid_search(result.events, grid, M, scenario.A, seed, workers=workers)
    basis = build_basis(KernelSpec(beta=best.beta), M, seed)
    model = fit(result.events, FitConfig(gamma=best.gamma, A=scenario.A, basis=basis))
    report = ise(scenario, model)
    report.ls_loss = best.ls_loss
    return report, model, result.events


def bench_scaling(scenario: ScenarioSpec, horizons, M: int, reps: int = 1,
                  seed: int = 0, gamma: float = 1.0, beta: float = 1.0):
    """Wall time of each fit phase versus horizon.

    Returns (rows, slopes): one row per horizon with event count and phase
    times (min over ``reps``), plus the fitted log-log slope of the Gram
    build time against the event count.
    """
    horizons = [float(T) for T in horizons]
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be increasing")
    basis = build_basis(KernelSpec(beta=beta), M, seed)
    rows = []
    for T in horizons:
        events = simulate(scenario, T, seed).events
        config = FitConfig(gamma=gamma, A=scenario.A, basis=basis)
        stats = None
        for _ in range(max(1, reps)):
            model = fit(events, config)
            if stats is None or model.stats["total_s"] < stats["total_s"]:
                stats = model.stats
        rows.append({
            "T": T,
            "n_events": len(events),
            "xi_build_s": stats["xi_build_s"],
            "solve_s": stats["solve_s"],
            "total_s": stats["total_s"],
        })
    counts = np.array([r["n_events"] for r in rows], dtype=float)
    builds = np.array([r["xi_build_s"] for r in rows])
    slope = float(np.polyfit(np.log(counts), np.log(builds), 1)[0])
    return rows, {"xi_build_vs_events": slope}


def bench_factorization(events: EventSequence, m_values, reps: int = 3,
                        gamma: float = 1.0, beta: float = 1.0, seed: int = 0):
    """Cholesky factorization time versus feature count on a fixed event set.

    Returns (rows, slopes) with the log-log slope of factorization time
    against M; the expected exponent is 3 (cubic solve cost).
    """
    from scipy.linalg import cho_factor

    rows = []
    for M in m_values:
        basis = build_basis(KernelSpec(beta=beta), int(M), seed)
        xi = build_xi(events, basis, min(5.0, events.T))
        Z = xi.values + np.eye(xi.values.shape[0]) / gamma
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
    "ls_contrast",
    "ise",
    "ise_on_grid",
    "grid_search",
    "fit_scenario_draw",
    "bench_scaling",
    "bench_factorization",
]

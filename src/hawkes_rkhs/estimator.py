"""Closed-form penalized least-squares estimator for linear Hawkes processes.

Each triggering kernel g_ij is represented as phi(s)^T b_ij in a Fourier
feature basis.  Minimizing the least-squares contrast plus a ridge penalty
(1/gamma) sum ||b_ij||^2 reduces, per output dimension i, to one symmetric
positive-definite linear system in the MU-dimensional stacked coefficient
vector.  The system matrix (1/gamma) I + Xi is shared across dimensions, so
a single Cholesky factorization serves all U + 1 right-hand sides, and the
baseline estimates mu_i follow in closed form from the same solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg import lapack as _lapack

from .events import EventSequence
from .features import (
    FeatureBasis,
    WindowIntegralTable,
    feature_matrix,
    phi,
    sinc_u,
)


class FitError(RuntimeError):
    """Raised when the normal equations cannot be solved reliably."""


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of a fit: ridge strength gamma, support window A,
    feature basis, and whether predicted intensities are clipped at zero."""

    gamma: float
    A: float
    basis: FeatureBasis
    clip_intensity: bool = False

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.A > 0:
            raise ValueError(f"support window A must be positive, got {self.A}")


@dataclass(frozen=True)
class XiMatrix:
    """Dense symmetric MU x MU Gram integral of the windowed feature sum,
    organized as U x U blocks of M x M submatrices."""

    values: np.ndarray
    M: int
    U: int

    def block(self, i: int, j: int) -> np.ndarray:
        """(i, j) block, 1-based dimensions."""
        M = self.M
        return self.values[(i - 1) * M:i * M, (j - 1) * M:j * M]


def phi_tilde(events: EventSequence, basis: FeatureBasis, A: float, s: float) -> np.ndarray:
    """Stacked windowed feature sum at time s: block i is the sum of
    phi(s - t_n) over events of dimension i with 0 < s - t_n <= A."""
    times, marks = events.times, events.marks
    lo = np.searchsorted(times, s - A, side="left")
    hi = np.searchsorted(times, s, side="left")
    out = np.zeros((events.U, basis.M))
    if hi > lo:
        rows = feature_matrix(basis, s - times[lo:hi])
        np.add.at(out, marks[lo:hi] - 1, rows)
    return out.ravel()


def _pairs_lag_in_window(times: np.ndarray, A: float):
    """Ordered event pairs (n, n') with n' < n and 0 < t_n - t_n' <= A.

    Returns (idx_n, idx_np), grouped by n in increasing order and by n'
    within each group.
    """
    starts = np.searchsorted(times, times - A, side="left")
    counts = np.arange(times.size) - starts
    idx_n = np.repeat(np.arange(times.size), counts)
    first = np.cumsum(counts) - counts
    idx_np = np.arange(idx_n.size) - np.repeat(first - starts, counts)
    return idx_n, idx_np


def _sincos_features(basis: FeatureBasis, shifts: np.ndarray):
    """cos and sin of (omega_m x + theta_m) for an array of x, shape (P, M).

    Only the first M/2 frequencies need trig calls: the -pi/2 phase of the
    duplicated half turns cos into sin and sin into -cos.
    """
    half = basis.M // 2
    ang = np.multiply.outer(shifts, basis.omega[:half])
    c = np.cos(ang)
    s = np.sin(ang)
    return np.concatenate([c, s], axis=1), np.concatenate([s, -c], axis=1)


# below this |omega_m +- omega_n| threshold the divided-difference form of the
# pair integral loses accuracy once summed over many pairs; those few entries
# are recomputed with the product (sinc) form instead
_NEAR_RESONANT = 0.05


def _gram_part(acc, basis, denom, small, sign, t_n, t_np, a, b,
               CB, SB, CB2, SB2, CA, SA, CA2, SA2):
    """Accumulate sum_p [sin(B +- B') - sin(A +- A')] / (omega_m +- omega_n).

    The pair sum factors into four (M, P) x (P, M) matrix products; entries
    with a near-resonant denominator are overwritten with the numerically
    stable per-entry product form.
    """
    G1 = SB.T @ CB2
    G3 = SA.T @ CA2
    if sign > 0:
        num = (G1 - G3) + (CB.T @ SB2 - CA.T @ SA2)
    else:
        num = (G1 - G3) - (CB.T @ SB2 - CA.T @ SA2)
    part = num / denom
    if small is not None:
        mid = 0.5 * (a + b)
        h = 0.5 * (b - a)
        length = b - a
        omega, theta = basis.omega, basis.theta
        for m, n in small:
            arg = omega[m] * (mid - t_n) + sign * omega[n] * (mid - t_np) \
                + theta[m] + sign * theta[n]
            x = h * (omega[m] + sign * omega[n])
            part[m, n] = np.sum(length * np.cos(arg) * sinc_u(x))
    acc += part


def _gram(events: EventSequence, basis: FeatureBasis, A: float,
          lo: float, hi: float) -> np.ndarray:
    """int_lo^hi phi_tilde(t) phi_tilde(t)^T dt as a dense (MU, MU) array.

    Pair (n, n') contributes int_a^b phi(t-t_n) phi(t-t_n')^T dt with
    a = max(t_n, lo) and b = min(A + t_n', hi) for t_n' <= t_n (a pair at lag
    exactly A has a = b and drops out); each unordered pair is integrated once
    into its (mark_n, mark_n') block and mirrored into the transposed block,
    so the result is symmetric and deterministic.
    """
    times, marks = events.times, events.marks
    M, U = basis.M, events.U

    idx_n, idx_np = _pairs_lag_in_window(times, A)
    all_n = np.concatenate([np.arange(times.size), idx_n])
    all_np = np.concatenate([np.arange(times.size), idx_np])
    t_n = times[all_n]
    t_np = times[all_np]
    a = np.maximum(t_n, lo)
    b = np.minimum(np.minimum(t_np + A, t_n + A), hi)
    keep = a < b
    all_n, all_np, t_n, t_np, a, b = (
        x[keep] for x in (all_n, all_np, t_n, t_np, a, b))
    is_self = all_n == all_np
    bi = marks[all_n] - 1
    bj = marks[all_np] - 1

    omega_plus = basis.omega[:, None] + basis.omega[None, :]
    omega_minus = basis.omega[:, None] - basis.omega[None, :]
    small_plus = np.abs(omega_plus) < _NEAR_RESONANT
    small_minus = np.abs(omega_minus) < _NEAR_RESONANT
    den_plus = np.where(small_plus, 1.0, omega_plus)
    den_minus = np.where(small_minus, 1.0, omega_minus)
    idx_plus = np.argwhere(small_plus) if small_plus.any() else None
    idx_minus = np.argwhere(small_minus) if small_minus.any() else None

    # cross[i, j]: ordered-pair contributions; self_acc[i]: same-event pairs
    cross = np.zeros((U, U, M, M))
    self_acc = np.zeros((U, M, M))
    chunk = max(64, min(16384, 8_000_000 // max(M * M, 1)))

    def accumulate(target, rows, same_event):
        for start in range(0, rows.size, chunk):
            r = rows[start:start + chunk]
            tn, tp, aa, bb = t_n[r], t_np[r], a[r], b[r]
            CB, SB = _sincos_features(basis, bb - tn)
            CA, SA = _sincos_features(basis, aa - tn)
            if same_event:
                CB2, SB2, CA2, SA2 = CB, SB, CA, SA
            else:
                CB2, SB2 = _sincos_features(basis, bb - tp)
                CA2, SA2 = _sincos_features(basis, aa - tp)
            args = (tn, tp, aa, bb, CB, SB, CB2, SB2, CA, SA, CA2, SA2)
            _gram_part(target, basis, den_plus, idx_plus, +1, *args)
            _gram_part(target, basis, den_minus, idx_minus, -1, *args)

    for i in range(U):
        accumulate(self_acc[i], np.flatnonzero(is_self & (bi == i)), True)
        for j in range(U):
            accumulate(cross[i, j],
                       np.flatnonzero(~is_self & (bi == i) & (bj == j)), False)

    blocks = np.empty((U, U, M, M))
    for i in range(U):
        for j in range(U):
            blocks[i, j] = cross[i, j] + cross[j, i].T
        blocks[i, i] += self_acc[i]
    out = blocks.transpose(0, 2, 1, 3).reshape(M * U, M * U)
    out /= M
    # make symmetry exact down to the last bit
    out += out.T.copy()
    out *= 0.5
    return out


def build_xi(events: EventSequence, basis: FeatureBasis, A: float,
             lo: float = 0.0, hi: float | None = None) -> XiMatrix:
    """Assemble the symmetric positive semi-definite block matrix Xi.

    With the default bounds this is the Gram integral of phi_tilde over
    [0, T]; restricting (lo, hi) yields the window-limited Gram used for
    validation scoring.
    """
    if hi is None:
        hi = events.T
    return XiMatrix(_gram(events, basis, A, lo, hi), basis.M, events.U)


def _event_feature_sums(events: EventSequence, basis: FeatureBasis, A: float,
                        lo: float, hi: float) -> np.ndarray:
    """S[i] = sum of phi_tilde(t_n) over events n of dimension i with
    lo <= t_n < hi, shape (U, MU)."""
    times, marks = events.times, events.marks
    M, U = basis.M, events.U
    acc = np.zeros((U, U, M))
    idx_n, idx_np = _pairs_lag_in_window(times, A)
    inside = (times[idx_n] >= lo) & (times[idx_n] < hi)
    idx_n, idx_np = idx_n[inside], idx_np[inside]
    rows = feature_matrix(basis, times[idx_n] - times[idx_np])
    bi = marks[idx_n] - 1
    bj = marks[idx_np] - 1
    for i in range(U):
        rows_i = bi == i
        for j in range(U):
            group = rows_i & (bj == j)
            if np.any(group):
                acc[i, j] += rows[group].sum(axis=0)
    return acc.reshape(U, U * M)


def _solve_spd(Z: np.ndarray, rhs: np.ndarray, gamma: float):
    """Cholesky solve of Z x = rhs with a condition estimate; raises FitError
    naming gamma when Z is not numerically positive definite."""
    anorm = np.abs(Z).sum(axis=0).max()
    try:
        factor = cho_factor(Z, lower=True)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            f"(1/gamma) I + Xi is not positive definite (gamma={gamma}, "
            f"1-norm={anorm:.3e}); the system is numerically singular") from exc
    rcond, _ = _lapack.dpocon(factor[0], anorm, uplo="L")
    cond = np.inf if rcond == 0 else 1.0 / rcond
    return cho_solve(factor, rhs), factor, cond


class Design:
    """Data statistics of the least-squares contrast over a window [lo, hi].

    Intensities see the full event history, so events before lo still excite
    inside the window.  With phi_tilde the stacked windowed feature sum:

    - ``xi``: the Gram integral of phi_tilde phi_tilde^T over [lo, hi];
    - ``window_vec``: the integral of phi_tilde over [lo, hi];
    - ``event_sums[i]``: the sum of phi_tilde(t_n) over the events of
      dimension i with lo <= t_n < hi, and ``counts[i]`` their number;
    - ``length``: hi - lo.

    Every statistic is additive in the window: the designs over [0, s] and
    [s, T] sum to the design over [0, T].  The ridge strength enters only
    through ``solve_system``, so one design serves every gamma.
    """

    def __init__(self, events: EventSequence, basis: FeatureBasis, A: float,
                 lo: float = 0.0, hi: float | None = None):
        if not A > 0:
            raise ValueError(f"support window A must be positive, got {A}")
        if hi is None:
            hi = events.T
        self.A = A
        self.length = hi - lo
        table = WindowIntegralTable(basis, events.times, hi, A, lo=lo)
        window_vec = np.zeros((events.U, basis.M))
        np.add.at(window_vec, events.marks - 1, table.vectors)
        self.window_vec = window_vec.ravel()
        inside = (events.times >= lo) & (events.times < hi)
        self.counts = np.bincount(events.marks[inside] - 1,
                                  minlength=events.U).astype(float)
        self.event_sums = _event_feature_sums(events, basis, A, lo, hi)
        self.xi = build_xi(events, basis, A, lo, hi)

    def solve_system(self, gamma: float, rhs: np.ndarray):
        """Solve ((1/gamma) I + Xi) x = rhs; returns (x, Cholesky factor,
        condition estimate)."""
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        Z = self.xi.values + np.eye(self.xi.values.shape[0]) / gamma
        return _solve_spd(Z, rhs, gamma)

    def solve(self, gamma: float):
        """Baselines and kernel coefficients minimizing the penalized contrast
        over the window; returns (mu_hat, coeff, stats).

        Factorizes (1/gamma) I + Xi once and solves for the U + 1 right-hand
        sides (the window vector and the U event sums).  Baselines are

            mu_i = (|N_i| - I^T b_i) / (length - I^T b_0),

        and the kernel coefficients are c_i = b_i - mu_i b_0.  The denominator
        is strictly inside (0, length) in exact arithmetic; a nonpositive value
        indicates numerical breakdown and raises FitError.
        """
        if not self.counts.any():
            raise FitError("cannot fit an empty event sequence")
        if self.A > self.length:
            raise ValueError(
                f"support window A={self.A} exceeds the horizon T={self.length}")
        t0 = time.perf_counter()
        rhs = np.column_stack([self.window_vec, self.event_sums.T])
        solved, _, cond = self.solve_system(gamma, rhs)
        stats = {"solve_s": time.perf_counter() - t0, "condition_estimate": cond}

        b0 = solved[:, 0]
        b_dims = solved[:, 1:]
        denom = self.length - self.window_vec @ b0
        stats["mu_denominator"] = denom
        if denom <= 0:
            raise FitError(
                f"degenerate design: baseline denominator length - I^T b0 = {denom:.3e} <= 0 "
                f"(gamma={gamma}, condition estimate {cond:.3e})")
        mu_hat = (self.counts - self.window_vec @ b_dims) / denom
        coeff = (b_dims - np.outer(b0, mu_hat)).T
        return mu_hat, coeff, stats

    def contrast(self, mu: np.ndarray, coeff: np.ndarray) -> float:
        """Least-squares contrast of (mu, coeff) over the window,

            sum_i [ int_lo^hi lambda_i(t)^2 dt - 2 sum_{events of i in window} lambda_i(t_n) ],

        as a quadratic form in the design's statistics."""
        mu = np.asarray(mu, dtype=float)
        coeff = np.asarray(coeff, dtype=float)
        quadratic = (self.length * mu * mu + 2.0 * mu * (coeff @ self.window_vec)
                     + np.sum((coeff @ self.xi.values) * coeff, axis=1))
        linear = self.counts @ mu + np.sum(coeff * self.event_sums)
        return float(np.sum(quadratic) - 2.0 * linear)


@dataclass(frozen=True)
class FittedModel:
    """Fitted baselines and stacked triggering-kernel coefficients.

    ``coeff[i]`` is the MU-vector c_i with g_ij(s) = phi(s)^T c_i[(j-1)M:jM];
    ``mu_hat`` may be negative (no clamping, so the optimality conditions hold
    exactly); ``stats`` carries solver diagnostics and phase wall times.
    """

    mu_hat: np.ndarray
    coeff: np.ndarray
    basis: FeatureBasis
    config: FitConfig
    T: float
    U: int
    stats: dict = field(default_factory=dict)

    @property
    def mu_hat_clipped(self) -> np.ndarray:
        return np.maximum(self.mu_hat, 0.0)

    def coeff_block(self, i: int, j: int) -> np.ndarray:
        M = self.basis.M
        return self.coeff[i - 1, (j - 1) * M:j * M]

    def to_dict(self) -> dict:
        return {
            "U": self.U,
            "M": self.basis.M,
            "T": self.T,
            "A": self.config.A,
            "gamma": self.config.gamma,
            "basis_ref": self.basis.to_dict(),
            "mu_hat": self.mu_hat.tolist(),
            "coeff": self.coeff.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedModel":
        basis = FeatureBasis.from_dict(doc["basis_ref"])
        config = FitConfig(gamma=float(doc["gamma"]), A=float(doc["A"]), basis=basis)
        model = cls(
            mu_hat=np.asarray(doc["mu_hat"], dtype=float),
            coeff=np.asarray(doc["coeff"], dtype=float),
            basis=basis,
            config=config,
            T=float(doc["T"]),
            U=int(doc["U"]),
        )
        if model.coeff.shape != (model.U, basis.M * model.U):
            raise ValueError("coefficient array shape inconsistent with U and M")
        return model


def fit(events: EventSequence, config: FitConfig) -> FittedModel:
    """Fit baselines and triggering kernels by penalized least squares on the
    design over [0, T]; see ``Design.solve`` for the closed form."""
    t0 = time.perf_counter()
    design = Design(events, config.basis, config.A)
    stats = {"xi_build_s": time.perf_counter() - t0}
    mu_hat, coeff, solve_stats = design.solve(config.gamma)
    stats.update(solve_stats)
    stats["total_s"] = time.perf_counter() - t0
    return FittedModel(mu_hat=mu_hat, coeff=coeff, basis=config.basis, config=config,
                       T=events.T, U=events.U, stats=stats)


def evaluate_g(model: FittedModel, i: int, j: int, s: float) -> float:
    """Estimated triggering kernel g_ij at lag s (1-based dimensions).

    Values outside [0, A] are extrapolation; reporting restricts to [0, A].
    """
    return float(phi(model.basis, s) @ model.coeff_block(i, j))


def g_curve(model: FittedModel, i: int, j: int, s) -> np.ndarray:
    """Vectorized ``evaluate_g`` over an array of lags."""
    return feature_matrix(model.basis, s) @ model.coeff_block(i, j)


def intensity(model: FittedModel, events: EventSequence, i: int, t: float) -> float:
    """Predicted intensity of dimension i at time t given the event history:
    mu_i plus the windowed kernel sum, clipped at zero when the fit config
    requests it."""
    times, marks = events.times, events.marks
    lo = np.searchsorted(times, t - model.config.A, side="left")
    hi = np.searchsorted(times, t, side="left")
    value = model.mu_hat[i - 1]
    if hi > lo:
        rows = feature_matrix(model.basis, t - times[lo:hi])
        M = model.basis.M
        blocks = (marks[lo:hi] - 1) * M
        cols = blocks[:, None] + np.arange(M)
        value += float(np.sum(rows * model.coeff[i - 1][cols]))
    if model.config.clip_intensity:
        value = max(value, 0.0)
    return float(value)


class EquivalentKernel:
    """Transformed kernels h_j(s, s') in which the fitted triggering kernels
    expand with unit coefficients.

    h_j(s, s') = phi(s)^T [((1/gamma) I + Xi)^{-1} phi_tilde(s')]_(block j).
    The factorization is done once at construction; evaluations are solves
    against phi_tilde right-hand sides.
    """

    def __init__(self, events: EventSequence, basis: FeatureBasis,
                 gamma: float, A: float):
        self.events = events
        self.basis = basis
        self.gamma = gamma
        self.A = A
        design = Design(events, basis, A)
        self.window_vec = design.window_vec
        self._window_solution, self._factor, self.condition = design.solve_system(
            gamma, self.window_vec)

    def coefficients(self, s_prime: float) -> np.ndarray:
        """Solution vector ((1/gamma) I + Xi)^{-1} phi_tilde(s')."""
        return cho_solve(
            self._factor, phi_tilde(self.events, self.basis, self.A, s_prime))

    def h(self, j: int, s: float, s_prime: float) -> float:
        c = self.coefficients(s_prime)
        M = self.basis.M
        return float(phi(self.basis, s) @ c[(j - 1) * M:j * M])

    def h_first_grid(self, j: int, s_values, s_prime: float) -> np.ndarray:
        """h_j(s, s') over an array of first arguments for one fixed s'."""
        c = self.coefficients(s_prime)
        M = self.basis.M
        return feature_matrix(self.basis, s_values) @ c[(j - 1) * M:j * M]

    def integral_second(self, j: int, s: float) -> float:
        """Closed form of int_0^T h_j(s, t) dt."""
        M = self.basis.M
        return float(phi(self.basis, s) @ self._window_solution[(j - 1) * M:j * M])


__all__ = [
    "FitError",
    "FitConfig",
    "XiMatrix",
    "Design",
    "FittedModel",
    "phi_tilde",
    "build_xi",
    "fit",
    "evaluate_g",
    "g_curve",
    "intensity",
    "EquivalentKernel",
]

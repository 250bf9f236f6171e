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
    _outer_batch,
    feature_matrix,
    phi,
)


class FitError(RuntimeError):
    """Raised when the normal equations cannot be solved reliably."""


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of a fit: ridge strength gamma, support window A and
    feature basis."""

    gamma: float
    A: float
    basis: FeatureBasis

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.A > 0:
            raise ValueError(f"support window A must be positive, got {self.A}")


@dataclass(frozen=True)
class XiMatrix:
    """Dense symmetric MU x MU Gram integral of the windowed feature sum,
    organized as U x U blocks of M x M submatrices.

    ``event_sums[i]`` is the sum of phi_tilde(t_n) over the events of
    dimension i in the same window, shape (U, MU): the pass over the pairs
    that builds the Gram gives it at the cost of one more weighted sum."""

    values: np.ndarray
    M: int
    U: int
    event_sums: np.ndarray | None = None

    def block(self, i: int, j: int) -> np.ndarray:
        """(i, j) block, 1-based dimensions."""
        M = self.M
        return self.values[(i - 1) * M:i * M, (j - 1) * M:j * M]


def _support_start(times: np.ndarray, s, A: float):
    """Index of the first event with s - t_n <= A as computed, for each s.

    s - A rounds, so a search on it alone can take in an event whose lag
    s - t_n is an ulp above A; such starts are moved past that event.
    """
    start = np.searchsorted(times, s - A, side="left")
    last = max(times.size - 1, 0)
    while times.size:
        past = (start <= last) & (s - times[np.minimum(start, last)] > A)
        if not np.any(past):
            break
        start = start + past
    return start


def phi_tilde(events: EventSequence, basis: FeatureBasis, A: float, s: float) -> np.ndarray:
    """Stacked windowed feature sum at time s: block i is the sum of
    phi(s - t_n) over events of dimension i with 0 < s - t_n <= A."""
    times, marks = events.times, events.marks
    lo = _support_start(times, s, A)
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
    starts = _support_start(times, times, A)
    counts = np.arange(times.size) - starts
    idx_n = np.repeat(np.arange(times.size), counts)
    first = np.cumsum(counts) - counts
    idx_np = np.arange(idx_n.size) - np.repeat(first - starts, counts)
    return idx_n, idx_np


# terms kept of the near-resonant Taylor series: with |y| < 1 the first term
# dropped is below 1/21! ~ 2e-20 of the sum's scale
_SERIES_TERMS = 20
# elements per array of a chunk of pairs (1 MB): pairs x distinct frequencies
# x (re, im) in the lag pass, pairs x M^2 in the boundary closed form
_CHUNK = 1 << 17


def _resonance(basis: FeatureBasis, A: float):
    """Split the (m, k) entries of a Gram block by y = (omega_m +- omega_k) A.

    Returns R+ + R- and R+ - R-, where R+-[m, k] = 1 / (omega_m +- omega_k)
    except where |y| < 1, there 0, and for each sign the (m, k, y) of those
    near-resonant entries: they take the Taylor series in y instead.  The
    criterion is dimensionless, so it does not depend on the time unit.
    """
    omega = basis.omega
    recips, series = [], []
    for sign in (1.0, -1.0):
        x = omega[:, None] + sign * omega[None, :]
        near = np.abs(x) * A < 1.0
        recips.append(np.divide(1.0, x, out=np.zeros_like(x), where=~near))
        m, k = np.nonzero(near)
        series.append((m, k, x[m, k] * A))
    r_plus, r_minus = recips
    return r_plus + r_minus, r_plus - r_minus, series


def _lag_sums(phasors: np.ndarray, first: np.ndarray, second: np.ndarray,
              ell: np.ndarray, weight: np.ndarray, summed: np.ndarray) -> np.ndarray:
    """Weighted sums of the pair phasors phasors[first_p] conj(phasors[second_p])
    over pairs p, shape (J + 2, F).

    Row 0 weighs pair p by weight_p, row j in 1..J by weight_p ell_p^j, and
    the last row by summed_p.  Each chunk gathers its phasors, at most
    ``_CHUNK`` reals per array, and takes all rows from one real GEMM on
    their interleaved real and imaginary parts.
    """
    J = _SERIES_TERMS
    out = np.zeros((J + 2, 2 * phasors.shape[1]))
    step = max(1, _CHUNK // out.shape[1])
    gathered = np.empty((2, min(step, first.size), phasors.shape[1]), dtype=complex)
    for start in range(0, first.size, step):
        part = slice(start, start + step)
        W = np.empty((J + 2, first[part].size))
        W[0] = weight[part]
        W[1] = ell[part]
        for j in range(2, J + 1):
            np.multiply(W[j - 1], W[1], out=W[j])
        W[1:J + 1] *= W[0]
        W[J + 1] = summed[part]
        Z, Q = gathered[:, :W.shape[1]]
        np.take(phasors, first[part], axis=0, out=Z, mode="clip")
        np.take(phasors, second[part], axis=0, out=Q, mode="clip")
        Z *= np.conjugate(Q, out=Q)
        out += W @ Z.view(float)
    return out.view(complex)


def _gram(events: EventSequence, basis: FeatureBasis, A: float,
          lo: float, hi: float):
    """Gram integral of phi_tilde over [lo, hi], shape (MU, MU), and the event
    sums of ``Design`` over lo <= t_n < hi, shape (U, MU), from one pass.

    Pair (n, n'), t_n' <= t_n, adds int_a^b phi(t - t_n) phi(t - t_n')^T dt,
    a = max(t_n, lo), b = min(t_n' + A, hi), to its (mark_n, mark_n') block,
    which enters together with its transpose.  For an interior pair
    (t_n >= lo, t_n' + A <= hi), with lag D = t_n - t_n' and L = A - D, that is
    int_0^L phi(u) phi(u + D)^T du, and over the interior pairs of a block

        (1/M) [ (Im(E_m F_k) - Im(e^{i theta_m} G_k)) / (omega_m + omega_k)
              + (Im(E_m conj F_k) - Im(e^{i theta_m} conj G_k)) / (omega_m - omega_k) ]

    with G_k = sum_p exp(i(omega_k D_p + theta_k)), E_m = sum_p exp(i(omega_m
    L_p + theta_m)) (conj G turned by F) and F_k = exp(i(omega_k A + theta_k)).
    Entries with |y| < 1, y = (omega_m +- omega_k) A, take the series
    A Re[e^{i theta_m} sum_j (iy)^j / (j+1)! H_k^(j)] (conj H for -) with
    H_k^(j) = sum_p (L_p/A)^(j+1) exp(i(omega_k D_p + theta_k)).  Pairs cut by
    the horizon or the window take ``_outer_batch``.  The event sums are the
    lag sums over the pairs with lo <= t_n < hi.

    The lag exponentials come from per-event phasors: time is cut into
    segments whose length is a power of two of at least 2A, and
    exp(i omega D_p) = P[n] conj(Q[n']), with P[n] = exp(i omega (t_n - o))
    for the origin o of t_n's segment and Q[n'] the same for t_n', taken
    against that origin too (its own segment's, or the next one's when t_n'
    lies in the segment before; a lag <= A spans at most one boundary).  The
    offsets from the origins are exact, so the phases are as accurate as the
    lags themselves, whatever the time origin.  A build costs O(N M)
    exponentials, on the distinct frequencies only, O(P M) multiply-adds and
    O(M^2) arithmetic.
    """
    times, marks = events.times, events.marks
    M, U, J = basis.M, events.U, _SERIES_TERMS
    idx_n, idx_np = _pairs_lag_in_window(times, A)
    n = np.concatenate([np.arange(times.size), idx_n])
    n2 = np.concatenate([np.arange(times.size), idx_np])
    t_n, t_np = times[n], times[n2]
    a = np.maximum(t_n, lo)
    b = np.minimum(t_np + A, hi)
    overlap = a < b
    interior = overlap & (t_n >= lo) & (t_np + A <= hi)
    boundary = overlap & ~interior
    summed = (t_n >= lo) & (t_n < hi) & (n != n2)
    # a same-event pair enters its diagonal block once, and every block is
    # added together with its transpose
    weight = np.where(n == n2, 0.5, 1.0)
    block = (marks[n] - 1) * U + (marks[n2] - 1)

    freq, inverse = np.unique(basis.omega, return_inverse=True)
    # segments of a power-of-two length >= 2A: t / span, its floor and the
    # offset t - seg span are exact, and a lag <= A crosses at most one
    # boundary; rows :N against each event's own origin, rows N: the next one
    span = 2.0 ** np.ceil(np.log2(2.0 * A))
    seg = np.floor(times / span)
    phasors = np.empty((2 * times.size, freq.size), dtype=complex)
    own = phasors[:times.size]
    np.multiply.outer(times - seg * span, freq, out=own.real)
    np.sin(own.real, out=own.imag)
    np.cos(own.real, out=own.real)
    np.multiply(own, np.exp(-1j * freq * span), out=phasors[times.size:])
    second = n2 + times.size * (seg[n2] < seg[n])
    turn = np.exp(1j * basis.theta)
    F = np.exp(1j * (basis.omega * A + basis.theta))
    inv_fact = 1.0 / np.cumprod(np.arange(1.0, J + 1.0))
    r_sum, r_diff, series = _resonance(basis, A)

    out = np.zeros((U * M, U * M))
    event_sums = np.zeros((U, U, M))
    outer = np.multiply.outer
    chunk = max(1, _CHUNK // (M * M))
    for i in range(U):
        for j in range(U):
            in_block = block == i * U + j
            rows = np.flatnonzero(in_block & (interior | summed))
            lag = t_n[rows] - t_np[rows]
            sums = _lag_sums(phasors, n[rows], second[rows], (A - lag) / A,
                             np.where(interior[rows], weight[rows], 0.0), summed[rows])
            sums = sums[:, inverse]
            event_sums[i, j] = basis.scale * (turn * sums[J + 1]).real
            G = turn * sums[0]
            E = F * np.conj(sums[0])
            X = (outer(E.imag, F.real) - outer(turn.imag, G.real)) * r_sum
            X += (outer(E.real, F.imag) - outer(turn.real, G.imag)) * r_diff
            H = turn * sums[1:J + 1] * inv_fact[:, None]
            for (m, k, y), moments in zip(series, (H, np.conj(H))):
                acc = moments[J - 1, k]
                for order in range(J - 2, -1, -1):
                    acc = moments[order, k] + 1j * y * acc
                X[m, k] += A * (turn[m] * acc).real
            X /= M
            rows = np.flatnonzero(in_block & boundary)
            for start in range(0, rows.size, chunk):
                r = rows[start:start + chunk]
                X += np.tensordot(weight[r], _outer_batch(
                    basis, t_n[r], t_np[r], a[r], b[r]), axes=1)
            # each entry of out and its mirror sum the same two terms, so out
            # is symmetric to the last bit
            out[i * M:(i + 1) * M, j * M:(j + 1) * M] += X
            out[j * M:(j + 1) * M, i * M:(i + 1) * M] += X.T
    return out, event_sums.reshape(U, U * M)


def build_xi(events: EventSequence, basis: FeatureBasis, A: float,
             lo: float = 0.0, hi: float | None = None) -> XiMatrix:
    """Assemble the symmetric positive semi-definite block matrix Xi.

    With the default bounds this is the Gram integral of phi_tilde over
    [0, T]; restricting (lo, hi) yields the window-limited Gram used for
    validation scoring.  The event sums over the same window come from the
    same pass over the pairs.
    """
    if hi is None:
        hi = events.T
    values, event_sums = _gram(events, basis, A, lo, hi)
    return XiMatrix(values, basis.M, events.U, event_sums)


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
        self.xi = build_xi(events, basis, A, lo, hi)
        self.event_sums = self.xi.event_sums

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
        if model.mu_hat.shape != (model.U,):
            raise ValueError(f"mu_hat has shape {model.mu_hat.shape}, expected ({model.U},)")
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
    """Predicted intensity of dimension i at time t given the event history,
    mu_i + c_i^T phi_tilde(t); it is not clipped at zero."""
    window_sum = phi_tilde(events, model.basis, model.config.A, t)
    return float(model.mu_hat[i - 1] + model.coeff[i - 1] @ window_sum)


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

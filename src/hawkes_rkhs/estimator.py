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
    integral_phi_range,
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


def _pairs_lag_in_window(starts: np.ndarray, a: int):
    """Ordered event pairs (n, n') with n' <= n and t_n - t_n' <= A for the
    events n = a, a + 1, ..., given their ``_support_start`` indices.

    Returns (idx_n, idx_np), grouped by n in increasing order and by n'
    within each group, so that (n, n) ends each group.
    """
    n = np.arange(a, a + starts.size)
    counts = n + 1 - starts
    idx_n = np.repeat(n, counts)
    first = np.cumsum(counts) - counts
    idx_np = np.arange(idx_n.size) - np.repeat(first - starts, counts)
    return idx_n, idx_np


# the switch to the near-resonant series and its term count J, one pair: an
# entry with |y| >= _CUTOFF takes the closed form, whose 1/y loses ~eps/_CUTOFF
# ~ 2e-15 to cancellation, and one below it J terms, the first dropped under
# _CUTOFF^J/(J+1)! ~ 2.5e-18 of the sum's scale
_CUTOFF, _SERIES_TERMS = 0.1, 10
# elements per array of a chunk of pair entries (1 MB): entries x distinct
# frequencies x (re, im) in the lag pass, entries x M in the edge terms
_CHUNK = 1 << 17
# reals a range of events may hold in ``build_xi`` (32 MB), whatever the event count
_RANGE = 1 << 22


def _resonance(basis: FeatureBasis, A: float):
    """Split the (m, k) entries of a Gram block by y = (omega_m +- omega_k) A.

    Returns R+ + R-, R+-[m, k] = 1 / (M (omega_m +- omega_k)) but 0 where
    |y| < _CUTOFF, and for each sign the (m, k, y) of those near-resonant
    entries, which take the Taylor series in y.  R+ - R- is the transpose of
    R+ + R- to the bit.  The criterion is dimensionless, so it does not
    depend on the time unit.
    """
    r_sum, series = np.zeros((basis.M, basis.M)), []
    for sign in (1.0, -1.0):
        x = np.add.outer(basis.omega, sign * basis.omega)
        near = np.abs(x) * A < _CUTOFF
        m, k = np.nonzero(near)
        series.append((m, k, x[m, k] * A))
        x *= basis.M
        x[near] = np.inf
        r_sum += np.divide(1.0, x, out=x)
    return r_sum, series


def _lag_sums(phasors: np.ndarray, first: np.ndarray, second: np.ndarray,
              ell: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Weighted sums of the pair phasors phasors[first_p] conj(phasors[second_p])
    over pairs p, shape (J + 1, F).

    Row j in 0..J weighs pair p by weight_p ell_p^j.  Each chunk gathers its
    phasors, at most ``_CHUNK`` reals per array, and takes all rows from one
    real GEMM on their interleaved real and imaginary parts.
    """
    J = _SERIES_TERMS
    out = np.zeros((J + 1, 2 * phasors.shape[1]))
    step = max(1, _CHUNK // out.shape[1])
    gathered = np.empty((2, min(step, first.size), phasors.shape[1]), dtype=complex)
    for start in range(0, first.size, step):
        part = slice(start, start + step)
        W = np.empty((J + 1, first[part].size))
        W[0] = weight[part]
        W[1] = ell[part]
        for j in range(2, J + 1):
            np.multiply(W[j - 1], W[1], out=W[j])
        W[1:] *= W[0]
        Z, Q = gathered[:, :W.shape[1]]
        np.take(phasors, first[part], axis=0, out=Z, mode="clip")
        np.take(phasors, second[part], axis=0, out=Q, mode="clip")
        Z *= np.conjugate(Q, out=Q)
        out += W @ Z.view(float)
    return out.view(complex)


def _finish_gram(lags, cuts, halves, basis: FeatureBasis, A: float, U: int, inverse):
    """Gram and event sums of ``build_xi`` from its per-block lag sums (over
    the distinct frequencies, which ``inverse`` maps to the basis) and cut
    entries.  Block b's event sums are its u = 0 lag sum less halves[b], the
    weight of its self pairs; the Gram takes the low-rank form: X_b for each
    block b = (i, j), the series of all blocks' near-resonant entries at once
    by Horner's rule, then block (i, j) X_ij + X_ji^T, formed in place in the
    (U, M, U, M) layout and copied to its mirror, so it is exactly symmetric.
    """
    M, J = basis.M, _SERIES_TERMS
    turn = np.exp(1j * basis.theta)
    F = np.exp(1j * (basis.omega * A + basis.theta))
    r_sum, series = _resonance(basis, A)
    r_diff = np.ascontiguousarray(r_sum.T)
    out = np.empty((U, M, U, M))
    S, S_t = np.empty((2, M, M))
    moments = np.empty((U * U, J, M), dtype=complex)
    event_sums = np.empty((U * U, M))
    step = max(1, _CHUNK // M)
    for b in range(U * U):
        sums_in, sums = lags[[b, U * U + b]][:, :, inverse]
        sums += sums_in
        event_sums[b] = basis.scale * (turn * (sums[0] - halves[b])).real
        moments[b] = turn * sums[1:] / np.cumprod(np.arange(1.0, J + 1.0))[:, None]
        E, G = F * np.conj(sums_in[0]), turn * sums[0]
        np.matmul(np.array([E.imag, -turn.imag]).T, np.array([F.real, G.real]), out=S)
        np.matmul(np.array([E.real, -turn.real]).T, np.array([F.imag, G.imag]), out=S_t)
        du, dv, w = np.concatenate(cuts[b], axis=1)
        for start in range(0, w.size, step):
            part = slice(start, start + step)
            alpha = np.multiply.outer(du[part], basis.omega) + basis.theta
            beta = np.multiply.outer(dv[part], basis.omega) + basis.theta
            S += (w[part, None] * np.sin(alpha)).T @ np.cos(beta)
            S_t += (w[part, None] * np.cos(alpha)).T @ np.sin(beta)
        X = np.multiply(S, r_sum, out=out[b // U, :, b % U])
        X += np.multiply(S_t, r_diff, out=S_t)
    blocks = np.arange(U * U)[:, None]
    for (m, k, y), H in zip(series, (moments, np.conj(moments))):
        acc = H[:, -1, k]
        for order in range(J - 2, -1, -1):
            acc = H[:, order, k] + 1j * y * acc
        out[blocks // U, m, blocks % U, k] += (A / M) * (turn[m] * acc).real
    # X_ij + X_ji^T in place (numpy copies an overlapping operand first), then mirrored
    for i in range(U):
        for j in range(i, U):
            out[i, :, j] += out[j, :, i].T
            out[j, :, i] = out[i, :, j].T
    return out.reshape(U * M, U * M), event_sums.reshape(U, U * M)


def build_xi(events: EventSequence, basis: FeatureBasis, A: float,
             lo: float = 0.0, hi: float | None = None):
    """Gram integral Xi of phi_tilde over [lo, hi] (by default [0, T]), shape
    (MU, MU), and the event sums of ``Design`` over lo <= t_n < hi, shape
    (U, MU), from one pass.  Raises ValueError unless A > 0 and
    0 <= lo <= hi <= T.

    Pair (n, n'), t_n' <= t_n, adds int_a^b phi(t - t_n) phi(t - t_n')^T dt,
    a = max(t_n, lo), b = min(t_n' + A, hi), to its (mark_n, mark_n') block,
    which enters together with its transpose.  With lag D = t_n - t_n' that is
    J(L_hi) - J(L_lo), J(L) = int_0^L phi(u) phi(u + D)^T du, L_hi = b - t_n,
    L_lo = a - t_n.  The end u = L of J, at time c = t_n + L, is
    sin(alpha_m + beta_k) R+ + sin(alpha_m - beta_k) R- with alpha =
    omega (c - t_n) + theta, beta = omega (c - t_n') + theta and R+- =
    1 / (M (omega_m +- omega_k)); that is the row (a, c) = (e^{i alpha},
    e^{i beta}) of Im(a_m) Re(c_k) (R+ + R-) + Re(a_m) Im(c_k) (R+ - R-).  Over
    the pairs of a block, u = 0 sums to the row (-e^{i theta}, G) with G_k =
    sum_p exp(i(omega_k D_p + theta_k)), c = t_n' + A to (E, F) with E_m =
    sum_p exp(i(omega_m (A - D_p) + theta_m)) and F_k = exp(i(omega_k A +
    theta_k)), and a window edge c in {lo, hi} gives a row (w e^{i alpha},
    e^{i beta}) per pair of weight w cut there.  So a block X_b is (R+ + R-) o
    sum_r Im(a_r) Re(c_r)^T + (R+ - R-) o sum_r Re(a_r) Im(c_r)^T over its rows
    r: two GEMMs and two Hadamard products.  Entries with |y| < _CUTOFF, y =
    (omega_m +- omega_k) A, take instead the series (A/M) Re[e^{i theta_m}
    sum_{j<J} (iy)^j / (j+1)! H_k^(j)] (conj H for -) for J(L) as a whole,
    J = _SERIES_TERMS, with H_k^(j) = sum_p (L_p/A)^(j+1) exp(i(omega_k D_p +
    theta_k)).  So every pair with lo <= t_n < hi enters the lag sums at L_hi,
    and an early one, t_n < lo < min(t_n' + A, hi), at L_hi and again at L_lo
    with its weight negated: their u = 0 terms cancel, and the event sums are
    the u = 0 row less the self pairs.

    The lag exponentials come from per-event phasors: time is cut into
    segments whose length is a power of two of at least 2A, and
    exp(i omega D_p) = P[n] conj(Q[n']), with P[n] = exp(i omega (t_n - o))
    for the origin o of t_n's segment and Q[n'] the same for t_n', taken
    against that origin too (its own segment's, or the next one's when t_n'
    lies in the segment before; a lag <= A spans at most one boundary).  The
    offsets from the origins are exact, so the phases are as accurate as the
    lags themselves, whatever the time origin.

    Only the N_w events in [lo - 2A, hi) take part (a pair that meets the window
    starts after lo - A; one more A covers rounding), walked in ranges of
    consecutive events of about ``_RANGE`` reals each: 2M per phasor row and
    about 16 per pair entry.  Lag sums and cut entries gather per block, and
    ``_finish_gram`` forms the M^2 terms after the last range.  A build
    costs O(N_w M) exponentials, O(P_w M) multiply-adds for the P_w pairs of
    those events, O(P_cut M) sines and cosines and O(P_cut M^2) GEMM work for
    the P_cut pairs cut by the window, and O(U^2 M^2) arithmetic, in
    O(_RANGE + N_w + P_cut + U^2 M^2) memory whatever N is.
    """
    if not A > 0:
        raise ValueError(f"support window A must be positive, got {A}")
    if hi is None:
        hi = events.T
    if not 0.0 <= lo <= hi <= events.T:
        raise ValueError(f"window [{lo}, {hi}] must lie inside [0, {events.T}]")
    times, marks = events.times, events.marks
    M, U, J = basis.M, events.U, _SERIES_TERMS
    freq, inverse = np.unique(basis.omega, return_inverse=True)
    # segments of a power-of-two length >= 2A: t / span, its floor and the
    # offset t - seg span are exact, and a lag <= A crosses at most one boundary
    span = 2.0 ** np.ceil(np.log2(2.0 * A))
    first, inside, last = np.searchsorted(times, [lo - 2.0 * A, lo, hi])
    starts = _support_start(times, times[first:last], A)
    # reals held by the events before each; a range ends where this passes a multiple of _RANGE
    cost = np.cumsum(np.concatenate([[0], 2 * M + 16 * (np.arange(first, last) + 1 - starts)]))
    ends = np.unique(np.r_[np.searchsorted(cost, np.arange(0, cost[-1], _RANGE)), last - first])
    # per block: lag sums of uncut entries, then of cut ones, kept as (c - t_n, c - t_n', w)
    lags = np.zeros((2 * U * U, J + 1, freq.size), dtype=complex)
    cuts = [[np.empty((3, 0))] for _ in range(U * U)]
    for a, b in zip(ends[:-1], ends[1:]):
        base = starts[a]  # partners are monotone: the range's first reaches furthest
        n, n2 = _pairs_lag_in_window(starts[a:b], first + a)
        t_n, t_np = times[n], times[n2]
        early = (t_n < lo) & (np.minimum(t_np + A, hi) > lo)
        block = (marks[n] - 1) * U + marks[n2] - 1
        # one entry per pair with lo <= t_n or early, at L_hi, and a ``lower``
        # one per early pair, at L_lo; sorted by block, the entries whose upper
        # end is a window edge (hi, or lo for a lower one) after all the others
        again = np.flatnonzero(early)
        rows = np.concatenate([np.flatnonzero(early | (t_n >= lo)), again])
        lower = np.arange(rows.size) >= rows.size - again.size
        key = block[rows] + U * U * (lower | (t_np[rows] + A > hi))
        by_block = np.argsort(key.astype(np.min_scalar_type(2 * U * U)), kind="stable")
        bounds = np.searchsorted(key[by_block], np.arange(2 * U * U + 1))
        rows, lower, tail = rows[by_block], lower[by_block], bounds[U * U]
        n, n2, t_n, t_np = n[rows] - base, n2[rows] - base, t_n[rows], t_np[rows]
        edge = np.where(lower, lo, hi)
        # L = A - D, not t_n' + A - t_n, keeps the series exact in the time origin
        ell = np.concatenate([A - (t_n[:tail] - t_np[:tail]), edge[tail:] - t_n[tail:]]) / A
        # a same-event pair enters its diagonal block once, and every block is
        # added together with its transpose
        weight = np.where(n == n2, 0.5, 1.0) * np.where(lower, -1.0, 1.0)
        # rows :R against each event's own segment origin, rows R: the next one
        local = times[base:first + b]
        seg = np.floor(local / span)
        phasors = np.empty((2 * local.size, freq.size), dtype=complex)
        own = phasors[:local.size]
        np.multiply.outer(local - seg * span, freq, out=own.real)
        np.sin(own.real, out=own.imag)
        np.cos(own.real, out=own.real)
        np.multiply(own, np.exp(-1j * freq * span), out=phasors[local.size:])
        second = n2 + local.size * (seg[n2] < seg[n])
        for k in range(2 * U * U):
            r = slice(*bounds[k:k + 2])
            lags[k] += _lag_sums(phasors, n[r], second[r], ell[r], weight[r])
            if k >= U * U:
                cuts[k - U * U].append(np.stack([edge[r] - t_n[r], edge[r] - t_np[r], weight[r]]))

    # a self pair, lag 0, enters block (i, i) at weight 1/2 for each mark-i event in [lo, hi)
    halves = np.diag(np.bincount(marks[inside:last] - 1, minlength=U) / 2.0).ravel()
    return _finish_gram(lags, cuts, halves, basis, A, U, inverse)


def _check_fittable(has_events: bool, A: float, length: float):
    """Raise FitError for a window without events, ValueError for A beyond it."""
    if not has_events:
        raise FitError("cannot fit an empty event sequence")
    if A > length:
        raise ValueError(f"support window A={A} exceeds the horizon T={length}")


def _solve_spd(Z: np.ndarray, rhs: np.ndarray, gamma: float):
    """Cholesky solve of Z x = rhs with a condition estimate, factoring the
    symmetric Z in place; raises FitError naming gamma when Z is not finite or
    not numerically positive definite."""
    anorm = np.abs(Z).sum(axis=0).max()
    if not np.isfinite(anorm):
        raise FitError(f"(1/gamma) I + Xi is not finite (gamma={gamma}, 1-norm={anorm})")
    try:
        # Z.T is Z in the Fortran order that LAPACK factors without a copy
        factor = cho_factor(Z.T, lower=True, overwrite_a=True, check_finite=False)
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
        # first, so that build_xi checks A and the window
        self.xi, self.event_sums = build_xi(events, basis, A, lo, hi)
        hi = events.T if hi is None else hi
        self.A = A
        self.length = hi - lo
        # an event that the table would not clip (lo - t <= 0, hi - t >= A) adds int_0^A phi
        reach = slice(*np.searchsorted(events.times, [lo - 2.0 * A, hi]))
        times, marks = events.times[reach], events.marks[reach] - 1
        full = (lo - times <= 0.0) & (hi - times >= A)
        table = WindowIntegralTable(basis, times[~full], hi, A, lo=lo)
        window_vec = np.multiply.outer(np.bincount(marks[full], minlength=events.U),
                                       integral_phi_range(basis, 0.0, A))
        np.add.at(window_vec, marks[~full], table.vectors)
        self.window_vec = window_vec.ravel()
        self.counts = np.bincount(marks[times >= lo], minlength=events.U).astype(float)

    def solve_system(self, gamma: float, rhs: np.ndarray):
        """Solve ((1/gamma) I + Xi) x = rhs; returns (x, Cholesky factor,
        condition estimate)."""
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        Z = self.xi.copy()
        Z.flat[::Z.shape[0] + 1] += 1.0 / gamma
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
        _check_fittable(self.counts.any(), self.A, self.length)
        t0 = time.perf_counter()
        rhs = np.column_stack([self.window_vec, self.event_sums.T])
        solved, _, cond = self.solve_system(gamma, rhs)
        stats = {"solve_s": time.perf_counter() - t0, "condition_estimate": cond}
        b0, b_dims = solved[:, 0], solved[:, 1:]
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
                     + np.sum((coeff @ self.xi) * coeff, axis=1))
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
    _check_fittable(len(events) > 0, config.A, events.T)
    t0 = time.perf_counter()
    design = Design(events, config.basis, config.A)
    stats = {"xi_build_s": time.perf_counter() - t0}
    mu_hat, coeff, solve_stats = design.solve(config.gamma)
    stats.update(solve_stats)
    stats["total_s"] = time.perf_counter() - t0
    return FittedModel(mu_hat=mu_hat, coeff=coeff, basis=config.basis, config=config,
                       T=events.T, U=events.U, stats=stats)


def g_curve(model: FittedModel, i: int, j: int, s) -> np.ndarray:
    """Estimated triggering kernel g_ij (1-based dimensions) at a lag or on an
    array of lags.  Values outside [0, A] are extrapolation; reporting
    restricts to [0, A]."""
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

    def h(self, j: int, s, s_prime: float) -> np.ndarray:
        """h_j(s, s') at a lag s or on an array of lags, for one fixed s'."""
        c = self.coefficients(s_prime)
        M = self.basis.M
        return feature_matrix(self.basis, s) @ c[(j - 1) * M:j * M]

    def integral_second(self, j: int, s: float) -> float:
        """Closed form of int_0^T h_j(s, t) dt."""
        M = self.basis.M
        return float(feature_matrix(self.basis, s) @ self._window_solution[(j - 1) * M:j * M])


__all__ = [
    "FitError",
    "FitConfig",
    "Design",
    "FittedModel",
    "phi_tilde",
    "build_xi",
    "fit",
    "g_curve",
    "intensity",
    "EquivalentKernel",
]

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
# elements per array of a chunk of pair entries in ``_lag_sums`` (1 MB):
# entries x distinct frequencies x (re, im)
_CHUNK = 1 << 17
# reals a range of events may hold in ``build_xi`` (32 MB), whatever the event count
_RANGE = 1 << 22


def _resonance(basis: FeatureBasis, A: float):
    """Split the (m, k) entries of a Gram block by y = (omega_m +- omega_k) A.

    Returns R = R+ + R-, R+-[m, k] = 1 / (M (omega_m +- omega_k)) but 0 where
    |y| < _CUTOFF, and for each sign the (m, k, y) of those near-resonant
    entries in row-major order, found in windows of the sorted frequencies;
    they take the Taylor series in y.  R+ - R- is R^T.  The criterion is
    dimensionless, so it does not depend on the time unit.
    """
    omega, M, order = basis.omega, basis.M, np.argsort(basis.omega)
    r_sum = np.empty((M, M))
    with np.errstate(divide="ignore", invalid="ignore"):  # R as one fraction; near entries below
        for i in range(0, M, 64):  # blocks of rows, whose temporaries stay in cache
            rows = omega[i:i + 64, None]
            np.divide((2.0 / M) * rows, (rows + omega) * (rows - omega), out=r_sum[i:i + 64])
    series, reach = [], 2.0 * _CUTOFF / A  # a window past every near entry
    for sign in (1.0, -1.0):
        lo, hi = np.searchsorted(omega[order], -sign * omega + [[-reach], [reach]])
        m = np.repeat(np.arange(M), hi - lo)
        k = order[np.arange(m.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]
        near = np.abs(omega[m] + sign * omega[k]) * A < _CUTOFF
        m, k = np.divmod(np.sort(m[near] * M + k[near]), M)
        series.append((m, k, (omega[m] + sign * omega[k]) * A))
        x = omega[m] - sign * omega[k]  # the other sign's term stays, or 0 where it is near too
        r_sum[m, k] = np.divide(1.0, M * x, out=np.zeros_like(x), where=np.abs(x) * A >= _CUTOFF)
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


def _finish_gram(uncut, sums, edge_rows, halves, basis: FeatureBasis, A: float, U: int):
    """Gram and event sums of ``build_xi`` from its per-block lag sums over
    the pairs that end at t_n' + A (uncut) and over all pairs (sums), and its
    edge rows (a, c).  Block b's event sums are its u = 0 lag sum less
    halves[b], the weight of its self pairs.  With X_b = R o S_b + R^T o S~_b
    + series_b as in ``build_xi``, Gram block i <= j is R o P + R^T o Q plus
    series, P = S_ij + S~_ji^T and Q = S~_ij + S_ji^T each from one GEMM over
    the rows of X_ij (u = 0, c = t_n' + A, then the edges') and, a and c
    swapped, of X_ji.  On the diagonal Q = P^T and the block is Y + Y^T, Y =
    R o P + series; the rest are mirrored, so the Gram is exactly symmetric.
    """
    M, J = basis.M, _SERIES_TERMS
    turn = np.exp(1j * basis.theta)
    F = np.exp(1j * (basis.omega * A + basis.theta))
    r_sum, series = _resonance(basis, A)
    moments = np.empty((U * U, J, M), dtype=complex)
    event_sums = np.empty((U * U, M))
    sides = []  # per block, (Im a, Re c, Re a, Im c) over its rows, each contiguous
    for b in range(U * U):
        event_sums[b] = basis.scale * (turn * (sums[b, 0] - halves[b])).real
        moments[b] = turn * sums[b, 1:] / np.cumprod(np.arange(1.0, J + 1.0))[:, None]
        # c = t_n' + A takes the uncut pairs alone, u = 0 every pair
        ends = [[F * np.conj(uncut[b, 0]), -turn], [F, turn * sums[b, 0]]]
        a, c = np.concatenate([ends, *edge_rows[b]], axis=1)
        sides.append(np.stack([a.imag, c.real, a.real, c.imag]))
    near = []
    for (m, k, y), conj in zip(series, (np.asarray, np.conj)):
        H, iy, acc = conj(moments[:, :, k]), 1j * y, 0.0
        for order in range(J - 1, -1, -1):
            acc = iy * acc + H[:, order]
        near.append((m, k, (A / M) * (turn[m] * acc).real))
    r_t = np.ascontiguousarray(r_sum.T)
    out, (P, Q) = np.empty((U, M, U, M)), np.empty((2, M, M))
    for i in range(U):
        for j in range(i, U):
            ij, ji = i * U + j, j * U + i
            # the rows of X_ij, then those of X_ji: a and c swapped reverse its sides
            left_p, right_p, left_q, right_q = np.concatenate([sides[ij], sides[ji][::-1]], axis=1)
            Y = np.multiply(r_sum, np.matmul(left_p.T, right_p, out=P),
                            out=P if i == j else out[i, :, j])
            if i < j:
                Y += np.multiply(r_t, np.matmul(left_q.T, right_q, out=Q), out=Q)
            for m, k, value in near:
                Y[m, k] += value[ij]
                if i < j:
                    Y[k, m] += value[ji]
            for t in range(0, M, 64):  # by tiles: rows of M x M blocks share cache sets
                out[j, :, i][:, t:t + 64] = Y[t:t + 64].T
            if i == j:
                out[i, :, i] += Y
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
    sum_p exp(i(omega_k D_p + theta_k)), and c = t_n' + A to (E, F) with E_m =
    sum_p exp(i(omega_m (A - D_p) + theta_m)) and F_k = exp(i(omega_k A +
    theta_k)).  At a window edge c in {lo, hi}, with b_n = exp(i omega (c -
    t_n)), a pair cut there has the row (e^{i theta} b_n, sign e^{i theta}
    b_n'), sign +1 at hi and -1 at lo.  As rounding is monotone and the edges
    are floats, the pairs n' <= n of edge events are exactly those cut at hi
    (events with t + A > hi, none when lo = hi) and the early ones (t < lo <
    min(t + A, hi)).  Block (i, j) thus takes a row (e^{i theta} b_n, e^{i
    theta} S_n[j]) per mark-i edge event n, S_n[j] the running sum of sign
    b_n' over the mark-j edge events n' <= n, n' = n at weight 1/2.  A block
    X_b is (R+ + R-) o sum_r Im(a_r) Re(c_r)^T + (R+ - R-) o sum_r Re(a_r)
    Im(c_r)^T over its rows r, with S_b and S~_b its two sums.  Entries with
    |y| < _CUTOFF, y = (omega_m +- omega_k) A, take instead the series (A/M)
    Re[e^{i theta_m} sum_{j<J} (iy)^j / (j+1)! H_k^(j)] (conj H for -) for
    J(L) as a whole, J = _SERIES_TERMS, with H_k^(j) = sum_p (L_p/A)^(j+1)
    exp(i(omega_k D_p + theta_k)), at an edge sum_n ((c - t_n)/A)^(j+1)
    conj(b_n) S_n[j].  The pair pass takes the pairs that end at t_n' + A <=
    hi, at L = A - D; the edges add those cut at hi and every early pair
    again, with its weight negated: their u = 0 terms cancel, and the event
    sums are the u = 0 row less the self pairs.

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
    about 16 per pair entry.  Lag sums gather per block, and ``_finish_gram``
    forms the M^2 terms after the last range, with the edge rows.  A build
    costs O(N_w M) exponentials, O(P_w M) multiply-adds for the P_w pairs of
    those events, O(E U M) exponentials and O(U E M^2) GEMM work for the E
    events within A of an edge, and O(U^2 M^2) arithmetic, in
    O(_RANGE + N_w + E U M + U^2 M^2) memory whatever N is.
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
    lags = np.zeros((U * U, J + 1, freq.size), dtype=complex)
    for a, b in zip(ends[:-1], ends[1:]):
        base = starts[a]  # partners are monotone: the range's first reaches furthest
        n, n2 = _pairs_lag_in_window(starts[a:b], first + a)
        t_n, t_np = times[n], times[n2]
        # the pairs that end at t_n' + A <= hi, sorted by block; the edge terms add the rest
        keep = np.flatnonzero(((t_n >= lo) | (t_np + A > lo)) & (t_np + A <= hi))
        block = (marks[n] - 1) * U + marks[n2] - 1
        rows = keep[np.argsort(block[keep].astype(np.min_scalar_type(U * U)), kind="stable")]
        bounds = np.searchsorted(block[rows], np.arange(U * U + 1))
        n, n2, t_n, t_np = n[rows] - base, n2[rows] - base, t_n[rows], t_np[rows]
        # L = A - D, not t_n' + A - t_n, keeps the series exact in the time origin
        ell = (A - (t_n - t_np)) / A
        # a same-event pair enters its diagonal block once, and every block is
        # added together with its transpose
        weight = np.where(n == n2, 0.5, 1.0)
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
        for k in range(U * U):
            r = slice(*bounds[k:k + 2])
            lags[k] += _lag_sums(phasors, n[r], second[r], ell[r], weight[r])

    t_w, mark_w = times[first:last], marks[first:last] - 1
    edge_rows = [[] for _ in range(U * U)]
    edge_sums = np.zeros((U * U, J + 1, M), dtype=complex)
    for c, sign, at in ((hi, 1.0, (t_w + A > hi) & (lo < hi)),
                        (lo, -1.0, (t_w < lo) & (np.minimum(t_w + A, hi) > lo))):
        lag, mark = c - t_w[at], mark_w[at]
        phases = np.exp(1j * (np.multiply.outer(lag, basis.omega) + basis.theta))  # e^{i alpha}
        steps = (mark[:, None] == np.arange(U))[:, :, None] * (sign * phases)[:, None]
        running = np.cumsum(steps, axis=0) - 0.5 * steps  # e^{i theta} S_n[j]
        powers = np.vander(lag / A, J + 1, increasing=True).T
        for i in np.unique(mark):  # none for an edge without events
            sel = mark == i
            for j in range(U):
                edge_rows[i * U + j].append(np.stack([phases[sel], running[sel, j]]))
                edge_sums[i * U + j] += powers[:, sel] @ (np.conj(phases[sel]) * running[sel, j])
    # a self pair, lag 0, enters block (i, i) at weight 1/2 for each mark-i event in [lo, hi)
    halves = np.diag(np.bincount(marks[inside:last] - 1, minlength=U) / 2.0).ravel()
    lags = lags[:, :, inverse]
    return _finish_gram(lags, lags + edge_sums, edge_rows, halves, basis, A, U)


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
    # Z.T: Z in the Fortran order LAPACK reads without a copy; NaN and inf carry into the norm
    anorm = _lapack.dlange("1", Z.T)
    if not np.isfinite(anorm):
        raise FitError(f"(1/gamma) I + Xi is not finite (gamma={gamma}, 1-norm={anorm})")
    try:
        factor = cho_factor(Z.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            f"(1/gamma) I + Xi is not positive definite (gamma={gamma}, "
            f"1-norm={anorm:.3e}); the system is numerically singular") from exc
    rcond, _ = _lapack.dpocon(factor[0], anorm, uplo="L")
    cond = np.inf if rcond == 0 else 1.0 / rcond
    return cho_solve(factor, np.asarray_chkfinite(rhs), check_finite=False), factor, cond


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
        rhs = np.asarray_chkfinite(phi_tilde(self.events, self.basis, self.A, s_prime))
        return cho_solve(self._factor, rhs, check_finite=False)

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

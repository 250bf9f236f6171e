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

import copy
import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack as _lapack

from .events import EventSequence
from .features import FeatureBasis, feature_matrix, integral_phi_range


class FitError(RuntimeError):
    """Raised when the normal equations cannot be solved reliably; unusable
    input raises ValueError instead."""


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of a fit: ridge strength gamma, support window A and
    feature basis; raises ValueError unless both numbers are positive and finite."""

    gamma: float
    A: float
    basis: FeatureBasis

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.A < np.inf:
            raise ValueError(f"support window A must be positive and finite, got {self.A}")


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
# entries x frequencies x (re, im)
_CHUNK = 1 << 17
# reals a range of events may hold in ``build_xi`` (32 MB), whatever the event count
_RANGE = 1 << 22


def _resonance(basis: FeatureBasis, A: float):
    """Split the F x F table over the basis's F = M/2 frequencies by y =
    (omega_f +- omega_g) A.

    Returns (T, T^T), T = R+ + R-, R+-[f, g] = 1 / (M (omega_f +- omega_g)) but
    0 where |y| < _CUTOFF, both C-contiguous; R+ - R- is T^T.  Then for each
    sign the (f, g, y) of those near-resonant entries in row-major order, found
    in windows of the sorted frequencies, which take the Taylor series in y.
    The criterion is dimensionless, so it does not depend on the time unit.
    Then (order, lead): the frequencies in the lag pass's order, first the
    ``lead`` ones whose lag rows 2..J a near entry with y != 0 reads.
    """
    M, omega = basis.M, basis.omega[:basis.M // 2]
    F, order = omega.size, np.argsort(omega)
    column = omega[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # T as one fraction; near entries below
        table = np.divide((2.0 / M) * column, (column + omega) * (column - omega))
    series, reach = [], 2.0 * _CUTOFF / A  # a window past every near entry
    for sign in (1.0, -1.0):
        lo, hi = np.searchsorted(omega[order], -sign * omega + [[-reach], [reach]])
        f = np.repeat(np.arange(F), hi - lo)
        g = order[np.arange(f.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]
        near = np.abs(omega[f] + sign * omega[g]) * A < _CUTOFF
        f, g = np.divmod(np.sort(f[near] * F + g[near]), F)
        series.append((f, g, (omega[f] + sign * omega[g]) * A))
        x = omega[f] - sign * omega[g]  # the other sign's term stays, or 0 where it is near too
        table[f, g] = np.divide(1.0, M * x, out=np.zeros_like(x), where=np.abs(x) * A >= _CUTOFF)
    live = np.bincount(np.concatenate([g[y != 0] for _, g, y in series]), minlength=F) > 0
    return (table, table.T.copy()), series, np.argsort(~live, kind="stable"), live.sum()


def _lag_sums(phasors, first, second, ell, weight, bounds, lead: int) -> np.ndarray:
    """Weighted sums of the pair phasors phasors[first_p] conj(phasors[second_p])
    over the pairs bounds[b] <= p < bounds[b + 1] of each block b, shape (B, J + 1, F):
    row j weighs pair p by weight_p ell_p^j, rows 2..J only at the first ``lead``
    frequencies (0 past them).  Each chunk gathers its phasors once, at most
    ``_CHUNK`` reals per array, for real GEMMs on their interleaved parts."""
    out = np.zeros((bounds.size - 1, _SERIES_TERMS + 1, 2 * phasors.shape[1]))
    step = max(1, _CHUNK // out.shape[2])
    gathered = np.empty((2, min(step, first.size), phasors.shape[1]), dtype=complex)
    for start in range(0, first.size, step):
        part = slice(start, start + step)
        W = np.empty((out.shape[1] if lead else 2, first[part].size))
        W[0], W[1] = weight[part], ell[part]
        for j in range(2, W.shape[0]):
            np.multiply(W[j - 1], W[1], out=W[j])
        W[1:] *= W[0]
        Z, Q = gathered[:, :W.shape[1]]
        np.take(phasors, first[part], axis=0, out=Z, mode="clip")
        np.take(phasors, second[part], axis=0, out=Q, mode="clip")
        Z *= np.conjugate(Q, out=Q)
        cuts = np.minimum(np.maximum(bounds - start, 0), W.shape[1])  # each block's slice of it
        for b in np.flatnonzero(cuts[1:] > cuts[:-1]):
            rows, Y = W[:, cuts[b]:cuts[b + 1]], Z[cuts[b]:cuts[b + 1]].view(float)
            out[b, :2] += rows[:2] @ Y
            if lead:
                out[b, 2:, :2 * lead] += rows[2:] @ Y[:, :2 * lead]
    return out.view(complex)


def _finish_gram(uncut, sums, edges, halves, resonance, basis: FeatureBasis, A, U):
    """Gram and event sums of ``build_xi`` from its per-block lag sums over the
    pairs that end at t_n' + A (uncut) and over all pairs (sums), each edge's
    marks and F-vector rows (a, c), and ``_resonance`` split.  Block b's event
    sums are its u = 0 lag sum less halves[b], the weight of its self pairs, on
    the cos (1) and sin (-i) features.  With X_b = R o S_b + R^T o S~_b +
    series_b as in ``build_xi``, Gram block i <= j is R o P + R^T o Q plus
    series, P = S_ij + S~_ji^T and Q = S~_ij + S_ji^T over the rows of X_ij
    and, a and c swapped, of X_ji.  As a sin feature's row is -i times its cos
    twin's, P = [Im a, -Re a]^T [Re c, Im c] is one GEMM, on whose (cos, sin)
    quadrants R is T, R^T is T^T and Q[p, q] = -+P[1 - p, 1 - q] (- for p = q).
    On the diagonal Q = P^T and the block is Y + Y^T, with Y = R o P + series;
    the rest are mirrored, so the Gram is exactly symmetric.  A near entry (f,
    g) runs Horner's rule on the lag sums at g, (j + 1)! folded into the steps
    as iy / (j + 1), to a value v that enters its quadrants as [[Re v, Im v],
    [Im v, -Re v]] for + and [[Re v, -Im v], [Im v, Re v]] for -.
    """
    ((table, table_t), series), M, F, J = resonance, basis.M, basis.M // 2, _SERIES_TERMS
    event_sums = basis.scale * ((sums[:, 0] - halves[:, None])[:, None] * [[1], [-1j]]).real
    near = []
    for (f, g, y), sign, conj in zip(series, (1.0, -1.0), (np.asarray, np.conj)):
        live = np.flatnonzero(y)  # y = 0 reads moment 0 alone
        acc, moments, iy = conj(sums[:, 1, g]), conj(np.take(sums, g[live], 2)), 1j * y[live]
        tail = moments[:, J]
        for row in range(J - 1, 1, -1):  # Horner's rule, row r the moment of (iy)^(r-1) / r!
            tail = moments[:, row] + (iy / (row + 1)) * tail
        acc[:, live] += (iy / 2) * tail
        v = (A / M) * acc
        near.append((np.concatenate([f, f, f + F, f + F]), np.concatenate([g, g + F, g, g + F]),
                     np.concatenate([v.real, sign * v.imag, v.imag, -sign * v.real], axis=1)))
    out, P, spare = np.empty((U, M, U, M)), np.empty((M, M)), np.empty((F, F))
    # every block's end rows (a, c); made before the M x M arrays, they cost 2 MB more peak RSS
    ends = np.empty((U * U, 2, 2, F), dtype=complex)
    ends[:, 1, 0], ends[:, 0, 1], ends[:, 1, 1] = np.exp(1j * basis.omega[:F] * A), -1.0, sums[:, 0]
    ends[:, 0, 0] = ends[:, 1, 0] * np.conj(uncut[:, 0])
    mark, rows = (np.concatenate(e) for e in zip(*edges))
    split = np.cumsum(np.bincount(mark, minlength=U))[:-1]
    # by mark: rows[i][j] holds the edge rows (a, c) of block (i, j)
    rows = np.split(rows[np.argsort(mark, kind="stable")].transpose(1, 2, 0, 3), split, axis=2)
    for i in range(U):
        for j in range(i, U):
            ij, ji = i * U + j, j * U + i
            # the rows of X_ij, then those of X_ji with a and c swapped
            a, c = np.concatenate([ends[ij], rows[i][j], ends[ji, ::-1], rows[j][i, ::-1]], axis=1)
            left, right = np.concatenate([a.imag, -a.real], 1), np.concatenate([c.real, c.imag], 1)
            quads = np.matmul(left.T, right, out=P).reshape(2, F, 2, F)
            Y = P if i == j else out[i, :, j]
            np.multiply(table[:, None], quads, out=Y.reshape(2, F, 2, F))
            for p, q in np.ndindex(2, 2) if i < j else ():
                mirror = np.multiply(table_t, quads[1 - p, :, 1 - q], out=spare)
                corner = Y[p * F:(p + 1) * F, q * F:(q + 1) * F]
                (np.subtract if p == q else np.add)(corner, mirror, out=corner)
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
    """Every statistic of ``Design`` over [lo, hi] (by default [0, T]) from one
    pass, in its order: the Gram integral Xi of phi_tilde, shape (MU, MU), the
    window vector int phi_tilde, shape (MU,), the event sums over lo <= t_n <
    hi, shape (U, MU), and the per-mark counts of those events, shape (U,).
    Raises ValueError unless 0 < A < inf and 0 <= lo <= hi <= T.

    Pair (n, n'), t_n' <= t_n, adds int_a^b phi(t - t_n) phi(t - t_n')^T dt,
    a = max(t_n, lo), b = min(t_n' + A, hi), to its (mark_n, mark_n') block,
    which enters together with its transpose.  With lag D = t_n - t_n' that is
    J(L_hi) - J(L_lo), J(L) = int_0^L phi(u) phi(u + D)^T du, L_hi = b - t_n,
    L_lo = a - t_n.  The end u = L of J, at time c = t_n + L, is
    sin(alpha_m + beta_k) R+ + sin(alpha_m - beta_k) R- with alpha =
    omega (c - t_n) + theta, beta = omega (c - t_n') + theta and R+- =
    1 / (M (omega_m +- omega_k)); that is Im(a_m) Re(c_k) (R+ + R-) + Re(a_m)
    Im(c_k) (R+ - R-) for the row (a, c) = (e^{i alpha}, e^{i beta}), which on
    the sin features (theta = -pi/2) is -i times its part on the cos ones
    (theta = 0): the rows below are those parts, over the F = M/2 frequencies.
    Over the pairs of a block, u = 0 sums to the row (-1, G) with G_f = sum_p
    exp(i omega_f D_p), and c = t_n' + A to (E, F) with E_f = sum_p exp(i
    omega_f (A - D_p)) and F_f = exp(i omega_f A).  At a window edge c in {lo,
    hi}, with b_n = exp(i omega (c - t_n)), a pair cut there has the row (b_n,
    sign b_n'), sign +1 at hi and -1 at lo.  As rounding is monotone and the
    edges are floats, the pairs n' <= n of edge events are exactly those cut at
    hi (events with t + A > hi, none when lo = hi) and the early ones (t < lo <
    min(t + A, hi)).  Block (i, j) thus takes a row (b_n, S_n[j]) per mark-i
    edge event n, S_n[j] the running sum of sign b_n' over the mark-j edge
    events n' <= n, n' = n at weight 1/2.  A block X_b is (R+ + R-) o sum_r
    Im(a_r) Re(c_r)^T + (R+ - R-) o sum_r Re(a_r) Im(c_r)^T over its rows r,
    with S_b and S~_b its two sums.  Entries with |y| < _CUTOFF,
    y = (omega_m +- omega_k) A, take instead the series (A/M) Re[e^{i theta_m}
    e^{+-i theta_k} sum_{j<J} (iy)^j / (j+1)! H_k^(j)] (conj H for -) for J(L)
    as a whole, J = _SERIES_TERMS, with H_k^(j) = sum_p (L_p/A)^(j+1)
    exp(i omega_k D_p), at an edge sum_n ((c - t_n)/A)^(j+1) conj(b_n) S_n[j].
    The pair pass takes the pairs that end at t_n' + A <= hi, at L = A - D; the
    edges add those cut at hi and every early pair again, with its weight
    negated: their u = 0 terms cancel, and the event sums are the u = 0 row
    less the self pairs.  The same edge events give the window vector: block i
    is counts_i int_0^A phi less sign int_{c - t_n}^A phi for each mark-i edge
    event n, so every window decision reads one comparison of t + A with an
    edge.

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
    about 16 per pair entry, with one gather per ``_CHUNK`` for all blocks.  Lag
    rows 0 and 1 cover all F frequencies, rows 2..J only the F_s that a near
    entry with y != 0 reads; ``_finish_gram`` forms the M^2 terms after the
    last range, with the edge rows.  A build costs O(N_w M) exponentials,
    O(P_w (2 F + (J - 1) F_s)) multiply-adds for the P_w pairs of those events,
    O(E F) exponentials and O(U E (M^2 + U J F)) GEMM work for the E events
    within A of an edge, one pass per edge for all marks, and O(U^2 M^2)
    arithmetic, in O(_RANGE + N_w + E U F + U^2 M^2) memory whatever N is.
    """
    if not 0 < A < np.inf:
        raise ValueError(f"support window A must be positive and finite, got {A}")
    if hi is None:
        hi = events.T
    if not 0.0 <= lo <= hi <= events.T:
        raise ValueError(f"window [{lo}, {hi}] must lie inside [0, {events.T}]")
    times, marks = events.times, events.marks
    M, F, U, J = basis.M, basis.M // 2, events.U, _SERIES_TERMS
    *resonance, order, lead = _resonance(basis, A)
    freq = basis.omega[order]  # the lag pass's frequencies, ``lead`` first
    # segments of a power-of-two length >= 2A: t / span, its floor and the
    # offset t - seg span are exact, and a lag <= A crosses at most one boundary
    span = 2.0 ** np.ceil(np.log2(2.0 * A))
    first, inside, last = np.searchsorted(times, [lo - 2.0 * A, lo, hi])
    starts = _support_start(times, times[first:last], A)
    # reals held by the events before each; a range ends where this passes a multiple of _RANGE
    cost = np.cumsum(np.concatenate([[0], 2 * M + 16 * (np.arange(first, last) + 1 - starts)]))
    ends = np.unique(np.r_[np.searchsorted(cost, np.arange(0, cost[-1], _RANGE)), last - first])
    lags = np.zeros((U * U, J + 1, F), dtype=complex)
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
        lags[:, :, order] += _lag_sums(phasors, n, second, ell, weight, bounds, lead)

    t_w, mark_w = times[first:last], marks[first:last] - 1
    counts = np.bincount(marks[inside:last] - 1, minlength=U).astype(float)
    # each event in [lo, hi) adds int_0^A phi; an edge takes off int_{c - t}^A phi per edge event
    window_vec = np.multiply.outer(counts, integral_phi_range(basis, 0.0, A))
    edge_sums = np.zeros((U, U, J + 1, F), dtype=complex)
    edges = [(mark_w[:0], np.empty((0, U, 2, F), dtype=complex))]  # an entry when none is cut
    for c, sign, at in ((hi, 1.0, (t_w + A > hi) & (lo < hi)),
                        (lo, -1.0, (t_w < lo) & (np.minimum(t_w + A, hi) > lo))):
        if not at.any():
            continue
        lag, mark = c - t_w[at], mark_w[at]
        hot = mark[:, None] == np.arange(U)  # (events, U)
        # per mark, its events' tails summed in event order; +0 in place of the other marks'
        tails = np.where(hot[:, :, None], sign * integral_phi_range(basis, lag, A)[:, None], 0.0)
        window_vec -= tails.sum(axis=0)
        phases = np.exp(1j * np.multiply.outer(lag, basis.omega[:F]))  # b_n
        steps = hot[:, :, None] * (sign * phases)[:, None]
        running = np.cumsum(steps, axis=0) - 0.5 * steps  # S_n[j]
        # row p of block (i, j) weighs its mark-i events by ((c - t_n) / A)^p; all blocks at once
        powers = hot.T[:, None] * np.vander(lag / A, J + 1, increasing=True).T
        edge_sums += powers[:, None] @ (np.conj(phases)[:, None] * running).transpose(1, 0, 2)
        # per event, its row (a, c) = (b_n, S_n[j]) of each block (mark, j)
        edges.append((mark, np.stack(np.broadcast_arrays(phases[:, None], running), axis=2)))
    # a self pair, lag 0, enters block (i, i) at weight 1/2 for each mark-i event in [lo, hi)
    xi, event_sums = _finish_gram(lags, lags + edge_sums.reshape(lags.shape), edges,
                                  np.diag(counts / 2.0).ravel(), resonance, basis, A, U)
    return xi, window_vec.ravel(), event_sums, counts


def _check_fittable(has_events: bool, A: float, length: float):
    """Raise ValueError for a window without events or with A beyond it."""
    if not has_events:
        raise ValueError("cannot fit an empty event sequence")
    if A > length:
        raise ValueError(f"support window A={A} exceeds the horizon T={length}")


_log = logging.getLogger(__name__)

# A condition estimate above this leaves fewer than 6 of float64's 16 significant
# digits of the solution trustworthy (relative error up to about cond * 1.1e-16).
ILL_CONDITIONED = 1e10
# The low-rank route runs on systems of order n = M*U >= LOWRANK_MIN_ORDER, below
# which float64 is as fast (CHANGES.md).  Xi integrates functions smooth over [0, A],
# so its numerical rank follows U beta A, not M.  Its pivoted Cholesky stops once
# gamma tr(Xi - L L^T) <= LOWRANK_TOL, a dimensionless bound on the error each
# refinement step leaves, and is declined at rank n // LOWRANK_RANK_DIVISOR: a
# declined system then wastes about a third of float64's factor (CHANGES.md).
# Refinement takes at most LOWRANK_MAX_STEPS steps to dsposv's test with the
# factor's ||P||_2 <= ||Z||_inf in place of ||Z||_inf, so no pass over Xi takes a norm.
LOWRANK_MIN_ORDER = 700
LOWRANK_TOL = 1e-6
LOWRANK_RANK_DIVISOR = 8
LOWRANK_MAX_STEPS = 10
# LAPACK's dlamch("Epsilon"), the unit roundoff of dsposv's stopping test
_EPS64 = np.finfo(np.float64).eps / 2


def _condition(rcond: float, gamma: float) -> float:
    """The condition estimate 1 / rcond of Z = (1/gamma) I + Xi; logs a
    warning when it passes ILL_CONDITIONED."""
    cond = np.inf if rcond == 0 else 1.0 / rcond
    if cond > ILL_CONDITIONED:
        _log.warning("ill-conditioned system at gamma=%g: condition estimate %.3e exceeds "
                     "%.0e, so fewer than 6 significant digits may be correct",
                     gamma, cond, ILL_CONDITIONED)
    return cond


def _cholesky(xi: np.ndarray, gamma: float):
    """Float64 Cholesky factor of Z = (1/gamma) I + xi, formed in a copy of xi;
    returns (c, condition estimate), c the lower factor as ``dpotrs`` takes it.
    Raises FitError naming gamma when Z is not finite or not numerically
    positive definite."""
    Z = xi.copy()
    Z.flat[::Z.shape[0] + 1] += 1.0 / gamma
    # Z.T: Z in the Fortran order LAPACK reads without a copy; NaN and inf carry into the norm
    anorm = _lapack.dlange("1", Z.T)
    if not np.isfinite(anorm):
        raise FitError(f"(1/gamma) I + Xi is not finite (gamma={gamma}, 1-norm={anorm})")
    c, info = _lapack.dpotrf(Z.T, lower=1, overwrite_a=1, clean=0)
    if info > 0:
        raise FitError(
            f"(1/gamma) I + Xi is not positive definite (gamma={gamma}, "
            f"1-norm={anorm:.3e}); the system is numerically singular")
    return c, _condition(_lapack.dpocon(c, anorm, uplo="L")[0], gamma)


def _residual(xi: np.ndarray, x: np.ndarray, rhs: np.ndarray, gamma: float) -> np.ndarray:
    """rhs - ((1/gamma) I + xi) x, in float64."""
    # xi is symmetric, and x^T xi reads it row by row, faster than xi x
    return rhs - (x.T @ xi).T - x * (1.0 / gamma)


def _solve_lowrank(xi: np.ndarray, rhs: np.ndarray, gamma: float):
    """Solve ((1/gamma) I + xi) x = rhs by float64 iterative refinement,
    preconditioned by P = (1/gamma) I + L L^T for a partial pivoted Cholesky
    factor L of xi (Harbrecht, Peters & Schneider, 2012): P^-1 v = gamma (v -
    L (I/gamma + L^T L)^-1 L^T v).  Refinement stops at ||r||_inf <= ||x||_inf
    ||P||_2 eps sqrt(n) for every right-hand side, ||P||_2 = kappa_2(P) / gamma;
    as ||P||_2 <= ||Z||_2 <= ||Z||_inf, that is at least as strict as LAPACK
    dsposv's test with ||Z||_inf, and it costs no pass over xi.  Returns (x,
    kappa_2(P) = 1 + gamma lambda_max(L^T L), steps, residual, rank), kappa_2(P)
    kappa_2(Z) to a relative LOWRANK_TOL; or None when the float64 route must
    run: xi's diagonal, a pivot row or a residual is not finite, the diagonal
    is negative, the rank reaches its cap, or refinement misses the test after
    LOWRANK_MAX_STEPS steps."""
    n = xi.shape[0]
    left = xi.diagonal().copy()  # the diagonal of xi - L L^T
    if not (np.isfinite(left).all() and (left >= 0).all()):
        return None
    L = np.empty((n // LOWRANK_RANK_DIVISOR, n))  # row k: column k of the factor
    rank = 0
    while gamma * left.sum() > LOWRANK_TOL:
        if rank == L.shape[0]:
            return None
        p = np.argmax(left)
        # xi is symmetric: its row p is column p, read contiguously
        row = np.subtract(xi[p], L[:rank, p] @ L[:rank], out=L[rank])
        if not np.isfinite(row).all():  # a NaN or inf of xi's row would enter the factor
            return None
        row /= np.sqrt(left[p])
        left = np.maximum(left - row * row, 0.0)
        left[p] = 0.0
        rank += 1
    # LAPACK takes no empty matrix: at rank 0, one zero row stands for the factor
    L = L[:rank] if rank else np.zeros((1, n))
    S = L @ L.T  # L^T L of the factor
    cond = 1.0 + gamma * np.linalg.eigvalsh(S)[-1]
    S.flat[::S.shape[0] + 1] += 1.0 / gamma
    c = _lapack.dpotrf(S, lower=1, overwrite_a=1, clean=0)[0]
    x, r, tol = np.zeros_like(rhs), rhs, cond / gamma * _EPS64 * np.sqrt(n)
    for step in range(LOWRANK_MAX_STEPS + 1):
        x += gamma * (r - L.T @ _lapack.dpotrs(c, L @ r, lower=1)[0])
        with np.errstate(invalid="ignore"):  # an inf of xi may meet a 0 inside the GEMM
            r = _residual(xi, x, rhs, gamma)
        if not np.isfinite(r).all():  # xi is not finite where no pivot row reads it
            return None
        if (np.abs(r).max(axis=0) <= np.abs(x).max(axis=0) * tol).all():
            return x, _condition(1.0 / cond, gamma), step, r, rank
    return None


def _solve_spd(xi: np.ndarray, rhs: np.ndarray, gamma: float):
    """Solve ((1/gamma) I + xi) x = rhs; returns (x, condition estimate, info).

    A system of order >= LOWRANK_MIN_ORDER is first tried by ``_solve_lowrank``,
    whose backward error is then at float64 level, so x agrees with the
    float64 route to about the condition times 1.1e-16.  Any other system,
    or one that route declines, takes the float64 ``_cholesky`` factor.
    ``info`` holds the ``solve_route`` ("lowrank" or "float64"), the
    ``rank`` of the factor (n on the float64 route), the ``refine_steps``
    and the ``relative_residual`` ||Z x - rhs|| / ||rhs||.  Raises FitError
    naming gamma when rhs is not finite, or as ``_cholesky`` does."""
    if not np.isfinite(rhs).all():
        raise FitError(f"right-hand side is not finite (gamma={gamma})")
    lowrank = _solve_lowrank(xi, rhs, gamma) if xi.shape[0] >= LOWRANK_MIN_ORDER else None
    if lowrank is None:
        c, cond = _cholesky(xi, gamma)
        x = _lapack.dpotrs(c, rhs, lower=1)[0]
        steps, residual, rank = 0, _residual(xi, x, rhs, gamma), xi.shape[0]
    else:
        x, cond, steps, residual, rank = lowrank
    return x, cond, {"solve_route": "float64" if lowrank is None else "lowrank",
                     "rank": rank, "refine_steps": steps,
                     "relative_residual": float(np.linalg.norm(residual) / np.linalg.norm(rhs))}


class Design:
    """Data statistics of the least-squares contrast over a window [lo, hi].

    Intensities see the full event history, so events before lo still excite
    inside the window.  With phi_tilde the stacked windowed feature sum:

    - ``xi``: the Gram integral of phi_tilde phi_tilde^T over [lo, hi];
    - ``window_vec``: the integral of phi_tilde over [lo, hi];
    - ``event_sums[i]``: the sum of phi_tilde(t_n) over the events of
      dimension i with lo <= t_n < hi, and ``counts[i]`` their number;
    - ``length``: hi - lo.

    The first four come from one ``build_xi`` pass, which alone decides what
    each window edge cuts.  Every statistic is additive in the window: the
    designs over [0, s] and [s, T] sum to the design over [0, T], and ``+``
    forms that sum.  The ridge strength enters only when a design is solved,
    so one design serves every gamma.
    """

    _ADDITIVE = ("xi", "window_vec", "event_sums", "counts", "length")

    def __init__(self, events: EventSequence, basis: FeatureBasis, A: float,
                 lo: float = 0.0, hi: float | None = None):
        # first, so that build_xi checks A and the window
        self.xi, self.window_vec, self.event_sums, self.counts = build_xi(
            events, basis, A, lo, hi)
        self.basis, self.A, self.lo, self.hi = basis, A, lo, events.T if hi is None else hi
        self.length = self.hi - lo

    def __add__(self, other: "Design") -> "Design":
        """The design of the same events over [self.lo, other.hi], each
        statistic the sum of the two.  Raises ValueError unless the designs
        share A, shapes and basis object, and self.hi == other.lo."""
        if not isinstance(other, Design):
            return NotImplemented
        # the basis by identity: a basis compares its arrays, so == raises
        if (other.A != self.A or other.basis is not self.basis or other.lo != self.hi
                or any(np.shape(getattr(self, key)) != np.shape(getattr(other, key))
                       for key in self._ADDITIVE)):
            raise ValueError("only designs with the same A, basis and shapes on adjacent windows "
                             f"add up: A={self.A}, {self.xi.shape} on [{self.lo}, {self.hi}] and "
                             f"A={other.A}, {other.xi.shape} on [{other.lo}, {other.hi}]")
        total = copy.copy(self)
        for key in self._ADDITIVE:
            setattr(total, key, getattr(self, key) + getattr(other, key))
        total.hi = other.hi
        return total

    def solve(self, gamma: float) -> "FittedModel":
        """The model minimizing the penalized contrast over the window, its
        horizon hi and its ``stats`` the solve's diagnostics.

        Solves (1/gamma) I + Xi for the U + 1 right-hand sides (the window
        vector and the U event sums) at once by ``_solve_spd``: a wide system
        by refinement on a low-rank factor of Xi, any other by a float64
        Cholesky factor; ``stats`` name the route, rank and steps.  Baselines are

            mu_i = (|N_i| - I^T b_i) / (length - I^T b_0),

        and the kernel coefficients are c_i = b_i - mu_i b_0.  The denominator
        is strictly inside (0, length) in exact arithmetic; a nonpositive value
        indicates numerical breakdown and raises FitError.  A window without
        events or shorter than A raises ValueError.
        """
        config = FitConfig(gamma=gamma, A=self.A, basis=self.basis)
        _check_fittable(self.counts.any(), self.A, self.length)
        t0 = time.perf_counter()
        rhs = np.column_stack([self.window_vec, self.event_sums.T])
        solved, cond, info = _solve_spd(self.xi, rhs, gamma)
        stats = {"solve_s": time.perf_counter() - t0, "condition_estimate": cond, **info}
        b0, b_dims = solved[:, 0], solved[:, 1:]
        denom = self.length - self.window_vec @ b0
        stats["mu_denominator"] = denom
        if denom <= 0:
            raise FitError(
                f"degenerate design: baseline denominator length - I^T b0 = {denom:.3e} <= 0 "
                f"(gamma={gamma}, condition estimate {cond:.3e})")
        mu_hat = (self.counts - self.window_vec @ b_dims) / denom
        coeff = (b_dims - np.outer(b0, mu_hat)).T
        return FittedModel(mu_hat=mu_hat, coeff=coeff, basis=self.basis, config=config,
                           T=self.hi, U=self.counts.size, stats=stats)

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
        if not (np.isfinite(model.mu_hat).all() and np.isfinite(model.coeff).all()):
            raise ValueError("mu_hat and coeff must be finite")
        return model


def fit(events: EventSequence, config: FitConfig) -> FittedModel:
    """Fit baselines and triggering kernels by penalized least squares on the
    design over [0, T]; see ``Design.solve`` for the closed form."""
    _check_fittable(len(events) > 0, config.A, events.T)
    t0 = time.perf_counter()
    design = Design(events, config.basis, config.A)
    xi_build_s = time.perf_counter() - t0
    model = design.solve(config.gamma)
    model.stats.update(xi_build_s=xi_build_s, total_s=time.perf_counter() - t0)
    return model


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
    The ``_cholesky`` factor is formed once at construction, in float64 at
    any order; evaluations are solves against phi_tilde right-hand sides.
    """

    def __init__(self, events: EventSequence, basis: FeatureBasis,
                 gamma: float, A: float):
        FitConfig(gamma=gamma, A=A, basis=basis)  # checks gamma and A
        self.events = events
        self.basis = basis
        self.gamma = gamma
        self.A = A
        design = Design(events, basis, A)
        self.window_vec = design.window_vec
        c, self.condition = _cholesky(design.xi, gamma)
        self._factor = (c, True)  # as cho_solve takes it
        self._window_solution = _lapack.dpotrs(c, self.window_vec, lower=1)[0]

    def coefficients(self, s_prime: float) -> np.ndarray:
        """Solution vector ((1/gamma) I + Xi)^{-1} phi_tilde(s')."""
        rhs = np.asarray_chkfinite(phi_tilde(self.events, self.basis, self.A, s_prime))
        return _lapack.dpotrs(self._factor[0], rhs, lower=1)[0]

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

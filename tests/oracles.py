"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and direct: adaptive quadrature per
component, per-event python loops, breakpoint-aware composite Gauss-Legendre
rules.  None of it shares code with the closed-form paths under test.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from hawkes_rkhs.events import EventSequence
from hawkes_rkhs.features import FeatureBasis
from hawkes_rkhs.simulation import IdentityLink, ScenarioSpec, SimResult


def quad_phi_component(basis: FeatureBasis, m: int, lo: float, hi: float,
                       shift: float = 0.0) -> float:
    """Adaptive quadrature of int_lo^hi phi_m(t - shift) dt."""
    f = lambda t: basis.scale * np.cos(basis.omega[m] * (t - shift) + basis.theta[m])
    val, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def quad_phi_vector(basis: FeatureBasis, lo: float, hi: float,
                    shift: float = 0.0) -> np.ndarray:
    return np.array([quad_phi_component(basis, m, lo, hi, shift)
                     for m in range(basis.M)])


def quad_phi_outer(basis: FeatureBasis, t_n: float, t_np: float,
                   a: float, b: float) -> np.ndarray:
    """Componentwise adaptive quadrature of int_a^b phi(t-t_n) phi(t-t_np)^T dt."""
    M = basis.M
    out = np.empty((M, M))
    amp = basis.scale ** 2
    for m in range(M):
        for n in range(M):
            f = lambda t: amp * np.cos(basis.omega[m] * (t - t_n) + basis.theta[m]) \
                * np.cos(basis.omega[n] * (t - t_np) + basis.theta[n])
            out[m, n], _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    return out


def phi_tilde_loop(events: EventSequence, basis: FeatureBasis, A: float,
                   s: float) -> np.ndarray:
    """Straightforward per-event summation of the windowed feature sum."""
    out = np.zeros((events.U, basis.M))
    for t, m in zip(events.times, events.marks):
        lag = s - t
        if 0.0 < lag <= A:
            out[m - 1] += basis.scale * np.cos(basis.omega * lag + basis.theta)
    return out.ravel()


def event_sums_loop(events: EventSequence, basis: FeatureBasis, A: float,
                    lo: float, hi: float) -> np.ndarray:
    """Per-mark sums of ``phi_tilde_loop`` at the events with lo <= t_n < hi,
    shape (U, UM)."""
    out = np.zeros((events.U, events.U * basis.M))
    for t, m in zip(events.times, events.marks):
        if lo <= t < hi:
            out[m - 1] += phi_tilde_loop(events, basis, A, t)
    return out


def gram_breakpoints(events: EventSequence, A: float, lo: float, hi: float):
    """Discontinuity points of t -> phi_tilde(t) inside [lo, hi]."""
    pts = {lo, hi}
    for t in events.times:
        for p in (t, t + A):
            if lo < p < hi:
                pts.add(float(p))
    return sorted(pts)


def gauss_panels(breaks, order: int):
    """Gauss-Legendre nodes/weights tiled over the panels between breakpoints."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a < 1e-14:
            continue
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def quad_gram(events: EventSequence, basis: FeatureBasis, A: float,
              lo: float = 0.0, hi: float | None = None, order: int = 48) -> np.ndarray:
    """Breakpoint-aware quadrature of int_lo^hi phi_tilde phi_tilde^T dt."""
    if hi is None:
        hi = events.T
    nodes, weights = gauss_panels(gram_breakpoints(events, A, lo, hi), order)
    MU = events.U * basis.M
    out = np.zeros((MU, MU))
    for t, w in zip(nodes, weights):
        v = phi_tilde_loop(events, basis, A, t)
        out += w * np.outer(v, v)
    return out


def quad_gram_converged(events, basis, A, lo=0.0, hi=None, rel_tol=1e-9):
    """Refine the panel order until two successive rules agree."""
    coarse = quad_gram(events, basis, A, lo, hi, order=40)
    fine = quad_gram(events, basis, A, lo, hi, order=64)
    scale = np.linalg.norm(fine) or 1.0
    assert np.linalg.norm(fine - coarse) / scale < rel_tol, \
        "gram quadrature did not converge"
    return fine


def intensity_loop(model, events: EventSequence, i: int, t: float) -> float:
    """Naive double-loop predicted intensity."""
    from hawkes_rkhs.estimator import g_curve

    val = model.mu_hat[i - 1]
    for t_n, m in zip(events.times, events.marks):
        lag = t - t_n
        if 0.0 < lag <= model.config.A:
            val += g_curve(model, i, m, lag)
    return float(val)


def kkt_solve(events: EventSequence, basis: FeatureBasis, gamma: float, A: float):
    """Joint dense minimizer of the exact penalized quadratic objective.

    Assembles the full symmetric system over all (c_i, mu_i) blocks --
    [[Z, I], [I^T, T]] per dimension -- and solves it with a general LU
    factorization, independent of the estimator's Cholesky route.
    Returns (mu, coeff, gradient_supnorm_at_solution, rhs_norm).
    """
    from hawkes_rkhs.estimator import build_xi
    from hawkes_rkhs.features import WindowIntegralTable

    U, M = events.U, basis.M
    MU = U * M
    table = WindowIntegralTable(basis, events.times, events.T, A)
    window_vec = np.zeros(MU)
    for n, m in enumerate(events.marks):
        window_vec[(m - 1) * M:m * M] += table.vectors[n]
    sums = event_sums_loop(events, basis, A, 0.0, events.T)
    Z = build_xi(events, basis, A)[0] + np.eye(MU) / gamma

    dim = U * (MU + 1)
    K = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for i in range(U):
        o = i * (MU + 1)
        K[o:o + MU, o:o + MU] = Z
        K[o:o + MU, o + MU] = window_vec
        K[o + MU, o:o + MU] = window_vec
        K[o + MU, o + MU] = events.T
        rhs[o:o + MU] = sums[i]
        rhs[o + MU] = events.counts[i]
    sol = np.linalg.solve(K, rhs)
    coeff = np.vstack([sol[i * (MU + 1):i * (MU + 1) + MU] for i in range(U)])
    mu = np.array([sol[i * (MU + 1) + MU] for i in range(U)])
    grad = K @ sol - rhs
    return mu, coeff, float(np.abs(grad).max()), float(np.linalg.norm(rhs))


def objective_gradient(events, basis, gamma, A, mu, coeff):
    """Analytic gradient (up to the common factor 2) of the exact penalized
    quadratic objective at (mu, coeff)."""
    from hawkes_rkhs.estimator import build_xi
    from hawkes_rkhs.features import WindowIntegralTable

    U, M = events.U, basis.M
    table = WindowIntegralTable(basis, events.times, events.T, A)
    window_vec = np.zeros(U * M)
    for n, m in enumerate(events.marks):
        window_vec[(m - 1) * M:m * M] += table.vectors[n]
    sums = event_sums_loop(events, basis, A, 0.0, events.T)
    Z = build_xi(events, basis, A)[0] + np.eye(U * M) / gamma
    grad_c = coeff @ Z + np.outer(mu, window_vec) - sums
    grad_mu = coeff @ window_vec + events.T * np.asarray(mu) - events.counts
    return float(max(np.abs(grad_c).max(), np.abs(grad_mu).max()))


def random_instance(rng, U=2, n_events=12, T=10.0, M=8, beta=1.0, seed=None):
    """Random small event sequence plus basis for oracle comparisons."""
    from hawkes_rkhs.features import KernelSpec, build_basis

    times = np.sort(rng.uniform(0.0, T * 0.98, n_events))
    times = np.unique(times)
    marks = rng.integers(1, U + 1, times.size)
    marks[:U] = np.arange(1, U + 1)  # every dimension sees at least one event
    events = EventSequence(times, marks, T, U)
    basis = build_basis(KernelSpec(beta=beta), M,
                        int(rng.integers(0, 2**31)) if seed is None else seed)
    return events, basis


def simulate_loop(spec: ScenarioSpec, T: float, seed: int,
                  max_events: int = 2_000_000) -> SimResult:
    """The thinning simulator as one scan over the whole history list per
    proposal: the reference that ``simulation.simulate`` must match to the
    last bit (same draws, events, intensities and proposal count)."""
    if not T > 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    env0 = np.array([[float(spec.kernels[i][j].envelope(0.0))
                      for j in range(spec.U)] for i in range(spec.U)])
    if not np.all(np.isfinite(env0)):
        raise ValueError("cannot establish a thinning bound: envelope is unbounded at lag 0")

    rng = np.random.default_rng(seed)
    mu = np.asarray(spec.mu, dtype=float)
    identity = isinstance(spec.link, IdentityLink)
    times: list[float] = []
    marks: list[int] = []
    accepted_intensity: list[float] = []
    window = spec.support_lag
    t = 0.0
    first_active = 0
    n_proposals = 0

    def linear_parts(now: float, use_envelope: bool) -> np.ndarray:
        values = mu.copy()
        if first_active < len(times):
            lags = now - np.asarray(times[first_active:])
            lag_marks = np.asarray(marks[first_active:])
            for j in range(spec.U):
                lags_j = lags[lag_marks == j + 1]
                if lags_j.size == 0:
                    continue
                for i in range(spec.U):
                    k = spec.kernels[i][j]
                    contrib = k.envelope(lags_j) if use_envelope else k.fn(lags_j)
                    values[i] += float(np.sum(contrib))
        return values

    while True:
        bound = float(np.sum(spec.link(linear_parts(t, use_envelope=True))))
        if bound <= 0.0:
            break
        t += rng.exponential(1.0 / bound)
        n_proposals += 1
        if t >= T:
            break
        while first_active < len(times) and t - times[first_active] > window:
            first_active += 1
        lam = np.asarray(spec.link(linear_parts(t, use_envelope=False)), dtype=float)
        if identity and lam.min() < 0:
            raise RuntimeError(
                f"negative intensity {lam.min():.3e} at t={t:.6g} under the identity link")
        total = float(lam.sum())
        if rng.random() * bound <= total:
            mark = 1 + int(np.searchsorted(np.cumsum(lam), rng.random() * total))
            mark = min(mark, spec.U)
            times.append(t)
            marks.append(mark)
            accepted_intensity.append(float(lam[mark - 1]))
            if len(times) > max_events:
                raise RuntimeError(
                    f"simulation aborted: more than {max_events} events by t={t:.6g} "
                    f"(runaway supercritical process; raise max_events to override)")

    events = EventSequence(np.asarray(times), np.asarray(marks, dtype=int), T, spec.U)
    return SimResult(events=events, intensities=np.asarray(accepted_intensity),
                     n_proposals=n_proposals)

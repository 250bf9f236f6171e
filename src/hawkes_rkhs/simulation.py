"""Exact simulation of linear and softplus-link multivariate Hawkes processes.

Sampling uses Ogata-style thinning.  Each triggering kernel carries an
``envelope``: a nonnegative, nonincreasing function env(s) >= max_{u in [s, inf)}
g(u).  Summing envelopes over the active history bounds every future intensity
until the next accepted event, so exponential proposals at the bound rate plus
rejection give exact samples for both link functions (the softplus link is
monotone, so the bound passes through it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .events import EventSequence, meta_value, read_table, write_table


@dataclass(frozen=True)
class IdentityLink:
    def __call__(self, x):
        return x


@dataclass(frozen=True)
class SoftplusLink:
    """Smooth nonnegative link log(1 + exp(w x)) / w."""

    w: float = 100.0

    def __post_init__(self):
        if not self.w > 0:
            raise ValueError(f"softplus sharpness w must be positive, got {self.w}")

    def __call__(self, x):
        return np.logaddexp(0.0, self.w * np.asarray(x, dtype=float)) / self.w


@dataclass(frozen=True)
class TriggerKernel:
    """A triggering kernel g(s) and its thinning envelope, from one formula.

    ``values`` maps a 1-d float array of lags (the simulator passes one mark's
    live history at a time) to ``(g(s), envelope(s))``, two arrays of its
    shape.  It must be deterministic and elementwise: a lag's values may not
    depend on the other lags in the call or on its length, since the simulator
    evaluates lag 0 once per draw and reuses that column for every accepted
    event.  The envelope must be nonincreasing, nonnegative, and dominate g on
    [s, inf): envelope(s) >= g(u) for all u >= s.  A scenario goes to worker
    processes only if ``values`` pickles: a module-level function or a
    ``partial`` of one, not a lambda or closure.
    """

    values: Callable[[np.ndarray], tuple]
    label: str = ""

    def fn(self, s) -> np.ndarray:
        return self.values(s)[0]

    def envelope(self, s) -> np.ndarray:
        return self.values(s)[1]


def _zero(s):
    z = np.zeros_like(np.asarray(s, dtype=float))
    return z, z


# g = 0; the simulator does not evaluate it
_ZERO = TriggerKernel(_zero, "0")


def zero_kernel() -> TriggerKernel:
    return _ZERO


def _exp_decay(c, rate, s):
    g = np.exp(-rate * np.asarray(s, dtype=float))
    g *= c
    return g, g


def exp_decay(c: float, rate: float) -> TriggerKernel:
    """g(s) = c exp(-rate s); decreasing, so it is its own envelope."""
    return TriggerKernel(partial(_exp_decay, c, rate), f"{c}*exp(-{rate}s)")


def _pow_two_decay(c, rate, s):
    g = np.exp2(-rate * np.asarray(s, dtype=float))
    g *= c
    return g, g


def pow_two_decay(c: float, rate: float) -> TriggerKernel:
    """g(s) = c 2^(-rate s)."""
    return TriggerKernel(partial(_pow_two_decay, c, rate), f"{c}*2^(-{rate}s)")


def _gaussian_bump(c, center, sharpness, s):
    s = np.asarray(s, dtype=float)
    g = c * np.exp(-sharpness * (s - center) ** 2)
    envelope = np.array(g)
    np.putmask(envelope, s <= center, c)
    return g, envelope


def gaussian_bump(c: float, center: float, sharpness: float) -> TriggerKernel:
    """g(s) = c exp(-sharpness (s - center)^2); envelope is flat at c before
    the peak and follows g after it."""
    return TriggerKernel(partial(_gaussian_bump, c, center, sharpness),
                         f"{c}*exp(-{sharpness}(s-{center})^2)")


def _cosine_gated_decay(c, s):
    s = np.asarray(s, dtype=float)
    decay = np.exp(-s)
    return c * (1.0 + np.cos(np.pi * s)) * decay, 2.0 * c * decay


def cosine_gated_decay(c: float) -> TriggerKernel:
    """g(s) = c (1 + cos(pi s)) exp(-s), zero at odd integer lags; the
    modulation factor is at most 2, so 2c exp(-s) is a decreasing envelope."""
    return TriggerKernel(partial(_cosine_gated_decay, c), f"{c}*(1+cos(pi s))*exp(-s)")


def _refractory_pulse(decay, s):
    s = np.asarray(s, dtype=float)
    ramp, tail = s <= 0.5, np.exp(-decay * (s - 0.5))
    g, envelope = np.array(tail), np.array(tail)
    np.putmask(g, ramp, 8.0 * s * s - 1.0)
    np.putmask(envelope, ramp, 1.0)
    return g, envelope


def refractory_pulse(decay: float) -> TriggerKernel:
    """Self-inhibition ramp (8 s^2 - 1) for s <= 1/2 followed by exp(-decay (s - 1/2)).

    Continuous at s = 1/2 (both branches equal 1); the maximum over [s, inf)
    is 1 before the peak and the decaying branch after it.
    """
    return TriggerKernel(partial(_refractory_pulse, decay),
                         f"(8s^2-1)[s<=.5]+exp(-{decay}(s-.5))[s>.5]")


@dataclass(frozen=True)
class ScenarioSpec:
    """Ground truth for synthetic generation and squared-error scoring.

    ``kernels[i][j]`` drives the effect of dimension-(j+1) events on
    dimension i+1.  ``A`` is the lag window used for fitting and scoring;
    ``support_lag`` is the (longer) lag beyond which every kernel is
    numerically zero and the simulator stops scanning history.
    """

    U: int
    mu: tuple
    kernels: tuple
    link: IdentityLink | SoftplusLink
    A: float
    support_lag: float | None = None

    def __post_init__(self):
        mu = tuple(float(v) for v in self.mu)
        kernels = tuple(tuple(row) for row in self.kernels)
        if len(mu) != self.U or len(kernels) != self.U:
            raise ValueError("mu and kernels must have U entries")
        if any(len(row) != self.U for row in kernels):
            raise ValueError("kernels must be a U x U grid")
        # a NaN rate never reaches T, and a negative one under the identity link stops the draw
        if bad := [v for v in mu if not math.isfinite(v)]:
            raise ValueError(f"baseline mu must be finite, got {bad[0]}")
        if isinstance(self.link, IdentityLink) and min(mu, default=0.0) < 0:
            raise ValueError(f"the identity link needs a nonnegative baseline, got {min(mu)}")
        support = self.A if self.support_lag is None else self.support_lag
        if not support >= self.A:
            raise ValueError("support_lag must be at least A")
        grid = np.linspace(0.0, support, 2001)
        for k in sum(kernels, ()):
            g, e = (np.asarray(v, dtype=float) for v in k.values(grid))
            if not np.all(np.isfinite(e)) or not np.all(np.isfinite(g)):
                raise ValueError(f"kernel {k.label or k.values} is unbounded on [0, {support}]")
            if isinstance(self.link, IdentityLink) and g.min() < -1e-12:
                raise ValueError(f"identity-link scenario requires nonnegative kernels; "
                                 f"{k.label or k.values} dips to {g.min():.3e}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "support_lag", float(support))


@dataclass(frozen=True)
class SimResult:
    """Events plus per-event accepted intensity and the number of proposals."""

    events: EventSequence
    intensities: np.ndarray
    n_proposals: int


def mutually_exciting_scenario() -> ScenarioSpec:
    """Three mutually exciting dimensions with baseline 0.01 and a mix of
    exponential decays and Gaussian bumps; identity link, scoring window 5."""
    kernels = (
        (exp_decay(0.5, 1.0), gaussian_bump(0.5, 1.0, 10.0), gaussian_bump(0.5, 3.0, 20.0)),
        (pow_two_decay(0.5, 5.0), exp_decay(0.3, 0.5), gaussian_bump(0.5, 2.0, 20.0)),
        (gaussian_bump(0.2, 2.0, 3.0), cosine_gated_decay(0.25), exp_decay(0.5, 1.0)),
    )
    return ScenarioSpec(U=3, mu=(0.01, 0.01, 0.01), kernels=kernels,
                        link=IdentityLink(), A=5.0, support_lag=45.0)


# Baseline calibrated so the average event count at T=2000 lands near 2050
# for this scenario (measured 2092 +- 190 over 30 seeds); the sharp softplus
# floor adds roughly log(2)/w per dimension on top of the linear baseline, so
# the value is smaller than a linear-theory reading would suggest.
REFRACTORY_BASELINE = 0.006


def refractory_scenario(baseline: float = REFRACTORY_BASELINE) -> ScenarioSpec:
    """Three dimensions with short-lag self-inhibition and nonnegative
    cross-excitation, driven through a sharp softplus link (w = 100)."""
    kernels = (
        (refractory_pulse(2.5), gaussian_bump(0.6, 1.0, 10.0), gaussian_bump(0.8, 3.0, 20.0)),
        (pow_two_decay(0.6, 5.0), refractory_pulse(1.0), gaussian_bump(0.8, 2.0, 20.0)),
        (zero_kernel(), zero_kernel(), refractory_pulse(1.0)),
    )
    return ScenarioSpec(U=3, mu=(baseline,) * 3, kernels=kernels,
                        link=SoftplusLink(100.0), A=5.0, support_lag=22.0)


SCENARIOS = {
    "mutually-exciting": mutually_exciting_scenario,
    "refractory": refractory_scenario,
}


def simulate(spec: ScenarioSpec, T: float, seed: int,
             max_events: int = 2_000_000) -> SimResult:
    """Draw one realization on [0, T] by thinning.

    The proposal rate is the sum over dimensions of the linked envelope bound;
    it is refreshed at every proposal, so the acceptance ratio is exact.
    Aborts with a diagnostic when more than ``max_events`` events accumulate
    (runaway supercritical process).
    """
    if not 0 < T < np.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")

    rng = np.random.default_rng(seed)
    identity = isinstance(spec.link, IdentityLink)
    U = spec.U
    # per source mark j: its live history history[j], the event times within
    # support_lag of the last proposal, oldest first; its nonzero kernels
    # j -> i as (i, values); rows[j], the (2U, n) values of every g_ij, then of
    # every envelope_ij, over the lags to that history; and sums[j], their row
    # sums, whose envelope half bounds the next proposal once the accepted
    # mark's sums are renewed
    # equality, not identity: a spec unpickled in a worker holds a copy of _ZERO
    live = [[(i, spec.kernels[i][j].values) for i in range(U)
             if spec.kernels[i][j] != _ZERO] for j in range(U)]

    def kernel_rows(j: int, lags: np.ndarray) -> np.ndarray:
        out = np.zeros((2 * U, lags.size))
        if lags.size:
            for i, values in live[j]:
                out[i], out[U + i] = values(lags)
        return out

    # the column an accepted event of mark j adds to rows[j]: its lag is t - t = 0
    fresh = [kernel_rows(j, np.zeros(1)) for j in range(U)]
    rows = [np.zeros((2 * U, 0))] * U
    sums = [np.zeros(2 * U)] * U
    base = np.array(spec.mu * 2)
    history = [np.zeros(0)] * U
    times, marks, accepted_intensity = [], [], []
    window = spec.support_lag
    t, n_proposals = 0.0, 0

    def refresh(j: int) -> None:
        rows[j] = kernel_rows(j, t - history[j])
        sums[j] = np.add.reduce(rows[j], axis=1)

    def linear() -> np.ndarray:  # [intensities, bounds] before the link
        out = base + sums[0]
        for j in range(1, U):
            out += sums[j]
        return out

    parts = linear()
    while True:
        bound = float(np.add.reduce(spec.link(parts[U:])))
        if bound <= 0.0:
            break
        t += rng.exponential(1.0 / bound)
        n_proposals += 1
        if t >= T:
            break
        for j in range(U):
            h, k = history[j], 0
            while k < h.size and t - h[k] > window:
                k += 1
            history[j] = h[k:]
            refresh(j)
        parts = linear()
        lam = np.asarray(spec.link(parts[:U]), dtype=float)
        if identity and lam.min() < 0:
            raise RuntimeError(
                f"negative intensity {lam.min():.3e} at t={t:.6g} under the identity link")
        total = float(np.add.reduce(lam))
        if rng.random() * bound <= total:
            mark = min(1 + int(np.searchsorted(np.cumsum(lam), rng.random() * total)), U)
            times.append(t)
            marks.append(mark)
            accepted_intensity.append(float(lam[mark - 1]))
            j = mark - 1
            history[j] = np.concatenate((history[j], (t,)))
            if len(times) > max_events:
                raise RuntimeError(
                    f"simulation aborted: more than {max_events} events by t={t:.6g} "
                    f"(runaway supercritical process; raise max_events to override)")
            # the rows refresh(j) would build at this t, with no kernel call
            sums[j] = np.add.reduce(np.concatenate((rows[j], fresh[j]), axis=1), axis=1)
            parts = linear()

    events = EventSequence(np.asarray(times), np.asarray(marks, dtype=int), T, spec.U)
    return SimResult(events=events, intensities=np.asarray(accepted_intensity),
                     n_proposals=n_proposals)


def true_curves(spec: ScenarioSpec, s) -> np.ndarray:
    """Ground-truth kernel values on a lag grid, shape (U, U, len(s))."""
    s = np.asarray(s, dtype=float)
    out = np.empty((spec.U, spec.U, s.size))
    for i in range(spec.U):
        for j in range(spec.U):
            out[i, j] = spec.kernels[i][j].fn(s)
    return out


CURVE_POINTS = 500  # grid points of a ground-truth curve file


def write_curves_csv(path, spec: ScenarioSpec) -> None:
    """Ground-truth kernel curves on a ``CURVE_POINTS``-point grid over [0, A]
    under ``# A=``, ``# U=``; columns s, g_11, ..., g_UU (row-major pairs)."""
    s = np.linspace(0.0, spec.A, CURVE_POINTS)
    curves = true_curves(spec, s).reshape(spec.U * spec.U, CURVE_POINTS)
    header = ["s"] + [f"g_{i + 1}{j + 1}" for i in range(spec.U) for j in range(spec.U)]
    write_table(path, {"A": spec.A, "U": spec.U}, header,
                np.column_stack([s, curves.T]).tolist())


def read_curves_csv(path):
    """Parse a kernel-curve file; returns (s grid, curves (U, U, n), U).
    A row that is not one number per column, or a lag not above the one
    before it, raises ValueError naming its line, and a last lag off the
    declared ``# A=`` by more than 1e-12 A one naming the file."""
    meta, header, data, lines = read_table(path)
    if not lines:
        raise ValueError(f"{path}: no curve data")
    n_pairs = len(header) - 1
    U = meta_value(path, meta, "U", int, round(math.sqrt(n_pairs)))
    if U * U != n_pairs:
        raise ValueError(f"{path}: expected U^2 kernel columns, got {n_pairs}")
    steps = np.flatnonzero(~(np.diff(data[:, 0]) > 0))  # NaN lags too
    if steps.size:
        raise ValueError(f"{path}: non-increasing lag at line {lines[steps[0] + 1]}")
    A = meta_value(path, meta, "A", float, data[-1, 0])
    if not abs(data[-1, 0] - A) <= 1e-12 * A:
        raise ValueError(f"{path}: the lag grid ends at {data[-1, 0]}, not at '# A={A}'")
    return data[:, 0], data[:, 1:].T.reshape(U, U, len(lines)), U


__all__ = [
    "IdentityLink",
    "SoftplusLink",
    "TriggerKernel",
    "zero_kernel",
    "exp_decay",
    "pow_two_decay",
    "gaussian_bump",
    "cosine_gated_decay",
    "refractory_pulse",
    "ScenarioSpec",
    "SimResult",
    "mutually_exciting_scenario",
    "refractory_scenario",
    "REFRACTORY_BASELINE",
    "SCENARIOS",
    "simulate",
    "true_curves",
    "write_curves_csv",
    "read_curves_csv",
]

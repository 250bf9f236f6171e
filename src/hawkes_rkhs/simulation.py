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
from typing import Callable

import numpy as np

from .events import EventSequence


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
    """A triggering kernel g(s) together with a thinning envelope.

    ``fn`` and ``envelope`` each take a 1-d float array of lags (the
    simulator passes one mark's live history at a time), act elementwise and
    return an array of the same shape.  ``envelope(s)`` must be
    nonincreasing, nonnegative, and dominate g on [s, inf).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    envelope: Callable[[np.ndarray], np.ndarray]
    label: str = ""


def zero_kernel() -> TriggerKernel:
    return TriggerKernel(lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                         lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                         "0")


def exp_decay(c: float, rate: float) -> TriggerKernel:
    """g(s) = c exp(-rate s); decreasing, so it is its own envelope."""
    fn = lambda s: c * np.exp(-rate * np.asarray(s, dtype=float))
    return TriggerKernel(fn, fn, f"{c}*exp(-{rate}s)")


def pow_two_decay(c: float, rate: float) -> TriggerKernel:
    """g(s) = c 2^(-rate s)."""
    fn = lambda s: c * np.exp2(-rate * np.asarray(s, dtype=float))
    return TriggerKernel(fn, fn, f"{c}*2^(-{rate}s)")


def gaussian_bump(c: float, center: float, sharpness: float) -> TriggerKernel:
    """g(s) = c exp(-sharpness (s - center)^2); envelope is flat at c before
    the peak and follows g after it."""
    def fn(s):
        s = np.asarray(s, dtype=float)
        return c * np.exp(-sharpness * (s - center) ** 2)

    def env(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= center, c, fn(s))

    return TriggerKernel(fn, env, f"{c}*exp(-{sharpness}(s-{center})^2)")


def cosine_gated_decay(c: float) -> TriggerKernel:
    """g(s) = c (1 + cos(pi s)) exp(-s), zero at odd integer lags; the
    modulation factor is at most 2, so 2c exp(-s) is a decreasing envelope."""
    def fn(s):
        s = np.asarray(s, dtype=float)
        return c * (1.0 + np.cos(np.pi * s)) * np.exp(-s)

    env = lambda s: 2.0 * c * np.exp(-np.asarray(s, dtype=float))
    return TriggerKernel(fn, env, f"{c}*(1+cos(pi s))*exp(-s)")


def refractory_pulse(decay: float) -> TriggerKernel:
    """Self-inhibition ramp (8 s^2 - 1) for s <= 1/2 followed by exp(-decay (s - 1/2)).

    Continuous at s = 1/2 (both branches equal 1); the maximum over [s, inf)
    is 1 before the peak and the decaying branch after it.
    """
    def fn(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0.5, 8.0 * s * s - 1.0, np.exp(-decay * (s - 0.5)))

    def env(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0.5, 1.0, np.exp(-decay * (s - 0.5)))

    return TriggerKernel(fn, env, f"(8s^2-1)[s<=.5]+exp(-{decay}(s-.5))[s>.5]")


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
        support = self.A if self.support_lag is None else self.support_lag
        if not support >= self.A:
            raise ValueError("support_lag must be at least A")
        grid = np.linspace(0.0, support, 2001)
        for row in kernels:
            for k in row:
                e = np.asarray(k.envelope(grid), dtype=float)
                g = np.asarray(k.fn(grid), dtype=float)
                if not np.all(np.isfinite(e)) or not np.all(np.isfinite(g)):
                    raise ValueError(f"kernel {k.label or k.fn} is unbounded on [0, {support}]")
                if isinstance(self.link, IdentityLink) and g.min() < -1e-12:
                    raise ValueError(
                        f"identity-link scenario requires nonnegative kernels; "
                        f"{k.label or k.fn} dips to {g.min():.3e}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "support_lag", float(support))

    def kernel_values(self, i: int, j: int, s) -> np.ndarray:
        """True g_ij on an array of lags (1-based dimensions)."""
        return np.asarray(self.kernels[i - 1][j - 1].fn(s), dtype=float)


@dataclass(frozen=True)
class SimResult:
    """Events plus per-event accepted intensity and the seed that produced them."""

    events: EventSequence
    intensities: np.ndarray
    seed: int
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


_BUFFER = 256  # initial per-mark history capacity


def simulate(spec: ScenarioSpec, T: float, seed: int,
             max_events: int = 2_000_000) -> SimResult:
    """Draw one realization on [0, T] by thinning.

    The proposal rate is the sum over dimensions of the linked envelope bound;
    it is refreshed at every proposal, so the acceptance ratio is exact.
    Aborts with a diagnostic when more than ``max_events`` events accumulate
    (runaway supercritical process).
    """
    if not T > 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    env0 = np.array([[float(spec.kernels[i][j].envelope(0.0))
                      for j in range(spec.U)] for i in range(spec.U)])
    if not np.all(np.isfinite(env0)):
        raise ValueError("cannot establish a thinning bound: envelope is unbounded at lag 0")

    rng = np.random.default_rng(seed)
    identity = isinstance(spec.link, IdentityLink)
    U = spec.U
    # per source mark j: the kernels j -> i of every target i, and the live
    # history of mark j as bufs[j][lo[j]:hi[j]] in acceptance order, so each
    # kernel sums the same lags in the same order as one scan of all marks
    fns = [[spec.kernels[i][j].fn for i in range(U)] for j in range(U)]
    envs = [[spec.kernels[i][j].envelope for i in range(U)] for j in range(U)]
    bufs = [np.empty(_BUFFER) for _ in range(U)]
    lo, hi = [0] * U, [0] * U
    times: list[float] = []
    marks: list[int] = []
    accepted_intensity: list[float] = []
    window = spec.support_lag
    t = 0.0
    n_proposals = 0

    def linear_parts(now: float, table: list) -> np.ndarray:
        values = list(spec.mu)
        for j in range(U):
            if lo[j] < hi[j]:
                lags_j = now - bufs[j][lo[j]:hi[j]]
                for i, k in enumerate(table[j]):
                    values[i] += float(np.add.reduce(k(lags_j)))
        return np.array(values)

    while True:
        bound = float(np.sum(spec.link(linear_parts(t, envs))))
        if bound <= 0.0:
            break
        t += rng.exponential(1.0 / bound)
        n_proposals += 1
        if t >= T:
            break
        for j in range(U):
            while lo[j] < hi[j] and t - bufs[j][lo[j]] > window:
                lo[j] += 1
        lam = np.asarray(spec.link(linear_parts(t, fns)), dtype=float)
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
            j = mark - 1
            if hi[j] == bufs[j].size:  # full: move the live range to a new buffer
                n = hi[j] - lo[j]
                grown = np.empty(max(_BUFFER, 2 * n))
                grown[:n] = bufs[j][lo[j]:hi[j]]
                bufs[j], lo[j], hi[j] = grown, 0, n
            bufs[j][hi[j]] = t
            hi[j] += 1
            if len(times) > max_events:
                raise RuntimeError(
                    f"simulation aborted: more than {max_events} events by t={t:.6g} "
                    f"(runaway supercritical process; raise max_events to override)")

    events = EventSequence(np.asarray(times), np.asarray(marks, dtype=int), T, spec.U)
    return SimResult(events=events, intensities=np.asarray(accepted_intensity),
                     seed=seed, n_proposals=n_proposals)


def true_curves(spec: ScenarioSpec, s) -> np.ndarray:
    """Ground-truth kernel values on a lag grid, shape (U, U, len(s))."""
    s = np.asarray(s, dtype=float)
    out = np.empty((spec.U, spec.U, s.size))
    for i in range(spec.U):
        for j in range(spec.U):
            out[i, j] = spec.kernels[i][j].fn(s)
    return out


def write_curves_csv(path, spec: ScenarioSpec, n_points: int = 500) -> None:
    """Ground-truth kernel curves on an n-point grid over [0, A], columns
    s, g_11, ..., g_UU (row-major pair order)."""
    s = np.linspace(0.0, spec.A, n_points)
    curves = true_curves(spec, s)
    header = "s," + ",".join(
        f"g_{i + 1}{j + 1}" for i in range(spec.U) for j in range(spec.U))
    lines = [f"# A={spec.A:.17g}", f"# U={spec.U}", header]
    for k in range(n_points):
        vals = [f"{s[k]:.17g}"]
        vals += [f"{curves[i, j, k]:.17g}" for i in range(spec.U) for j in range(spec.U)]
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curves_csv(path):
    """Parse a kernel-curve file; returns (s grid, curves (U, U, n), U)."""
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k.strip()] = v.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(x) for x in line.split(",")])
    if header is None or not rows:
        raise ValueError(f"{path}: no curve data")
    data = np.asarray(rows)
    n_pairs = len(header) - 1
    U = int(meta.get("U", round(math.sqrt(n_pairs))))
    if U * U != n_pairs:
        raise ValueError(f"{path}: expected U^2 kernel columns, got {n_pairs}")
    s = data[:, 0]
    curves = data[:, 1:].T.reshape(U, U, s.size)
    return s, curves, U


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

"""Quasi-Monte-Carlo Fourier feature bases for shift-invariant kernels.

A basis of M features phi_m(s) = sqrt(2/M) cos(omega_m s + theta_m) is built
from F = M/2 frequencies sampled from the spectral density of the kernel, each
under phases 0 and -pi/2, so that the features come in (cos, sin) pairs, the
one layout ``FeatureBasis`` holds, and phi(s)^T phi(s') approximates k(s, s').
``integral_phi_range`` is the closed form of a window integral of phi that a
fit runs; ``estimator.build_xi`` forms the Gram's pair integrals in a lag-sum
form over the F frequencies.  ``WindowIntegralTable`` is the per-event oracle
of the window vector, kept for the benchmark's ``features.window_table`` span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel, k(s, s') = exp(-(beta |s - s'|)^2).  ``beta`` is the
    inverse length scale (1/time)."""

    beta: float = 1.0

    def __post_init__(self):
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    def value(self, s, s_prime):
        """Exact kernel value k(s, s')."""
        d = np.asarray(s, dtype=float) - np.asarray(s_prime, dtype=float)
        return np.exp(-((self.beta * d) ** 2))


@dataclass(frozen=True)
class FeatureBasis:
    """Immutable Fourier feature basis of (cos, sin) pairs.

    ``omega`` and ``theta`` have length M; for m >= F = M/2 the frequency
    repeats omega[m - F] and the phase is -pi/2 (sin partner of the cos
    feature), while theta[m] = 0 for m < F.  Any other layout, or a non-finite
    entry, raises ValueError; repeated and zero frequencies are allowed.
    ``family`` names the kernel in the basis document and must be "gaussian".
    """

    omega: np.ndarray
    theta: np.ndarray
    family: str = "gaussian"
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.family != "gaussian":
            raise ValueError(f"unknown kernel family {self.family!r}; only 'gaussian'")
        omega = np.asarray(self.omega, dtype=float).copy()
        theta = np.asarray(self.theta, dtype=float).copy()
        if omega.ndim != 1 or omega.shape != theta.shape:
            raise ValueError("omega and theta must be 1-d arrays of equal length")
        if omega.size < 2 or omega.size % 2:
            raise ValueError(f"feature count must be even and >= 2, got {omega.size}")
        F = omega.size // 2
        if not (np.isfinite(omega).all() and np.array_equal(omega[F:], omega[:F])
                and np.array_equal(theta, np.repeat([0.0, -0.5 * np.pi], F))):
            raise ValueError("not a (cos, sin) pair basis: omega must be finite and repeat its "
                             "first half, under phases 0 then -pi/2")
        omega.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "theta", theta)

    @property
    def M(self) -> int:
        return self.omega.size

    @property
    def scale(self) -> float:
        """Common feature amplitude sqrt(2/M)."""
        return np.sqrt(2.0 / self.M)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "beta": self.beta,
            "M": self.M,
            "seed": self.seed,
            "omega": self.omega.tolist(),
            "theta": self.theta.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureBasis":
        basis = cls(
            omega=np.asarray(doc["omega"], dtype=float),
            theta=np.asarray(doc["theta"], dtype=float),
            family=doc["family"],
            beta=float(doc["beta"]),
            seed=int(doc["seed"]),
        )
        if basis.M != int(doc["M"]):
            raise ValueError("inconsistent feature count in basis document")
        return basis


def build_basis(spec: KernelSpec, M: int, seed: int) -> FeatureBasis:
    """Construct a quasi-Monte-Carlo feature basis with M features.

    M/2 stratified points u_k = (k - U)/ (M/2), with a single uniform shift U
    drawn from ``seed``, are mapped through the inverse normal CDF scaled to
    the kernel's spectral density (std sqrt(2)*beta).
    The shift keeps every u_k strictly inside (0, 1), so no point maps to an
    infinite frequency.
    """
    if M < 2 or M % 2:
        raise ValueError(f"M must be an even integer >= 2, got {M}")
    n = M // 2
    rng = np.random.default_rng(seed)
    u = (np.arange(1, n + 1) - rng.random()) / n
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    half = ndtri(u) * (np.sqrt(2.0) * spec.beta)  # the spectral density's std
    return FeatureBasis(omega=np.tile(half, 2), theta=np.repeat([0.0, -0.5 * np.pi], n),
                        beta=spec.beta, seed=seed)


def sinc_u(x):
    """Unnormalized sinc, sin(x)/x, and its limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)


def feature_matrix(basis: FeatureBasis, s) -> np.ndarray:
    """Feature map phi_m(s) = sqrt(2/M) cos(omega_m s + theta_m) at a lag, shape
    (M,), or on an array of lags, one row phi(s_k) per lag."""
    s = np.asarray(s, dtype=float)
    return basis.scale * np.cos(np.multiply.outer(s, basis.omega) + basis.theta)


def integral_phi_range(basis: FeatureBasis, lo, hi) -> np.ndarray:
    """Closed form of int_lo^hi phi(u) du, broadcast over (lo, hi) arrays.

    Uses the product form (hi-lo) cos(omega (hi+lo)/2 + theta) sinc(omega (hi-lo)/2),
    which equals (sin(omega hi + theta) - sin(omega lo + theta)) / omega and is
    exact in the omega -> 0 limit.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    length = (hi - lo)[..., None]
    mid = ((hi + lo) * 0.5)[..., None]
    arg = basis.omega * mid + basis.theta
    return basis.scale * length * np.cos(arg) * sinc_u(basis.omega * length * 0.5)


class WindowIntegralTable:
    """Per-event window integrals of the feature map: the per-event oracle.

    ``vectors[n]`` holds the integral of phi(t - t_n) over the part of
    [lo, hi] where event n is active, int_{L_lo}^{L_hi} phi(u) du with
    L_lo = clip(lo - t_n, 0, A) and L_hi = max(L_lo, clip(hi - t_n, 0, A)).
    ``build_xi`` forms their sums from counts and edge events; tests compare the two.
    """

    def __init__(self, basis: FeatureBasis, times: np.ndarray, hi: float, A: float,
                 lo: float = 0.0):
        times = np.asarray(times, dtype=float)
        L_lo = np.clip(lo - times, 0.0, A)
        L_hi = np.maximum(L_lo, np.clip(hi - times, 0.0, A))
        self.vectors = integral_phi_range(basis, L_lo, L_hi)


__all__ = [
    "KernelSpec",
    "FeatureBasis",
    "build_basis",
    "sinc_u",
    "feature_matrix",
    "integral_phi_range",
    "WindowIntegralTable",
]

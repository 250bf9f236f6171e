import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hawkes_rkhs.estimator import (
    Design,
    EquivalentKernel,
    FitConfig,
    FitError,
    FittedModel,
    build_xi,
    evaluate_g,
    fit,
    g_curve,
    intensity,
    phi_tilde,
)
from hawkes_rkhs.events import EventSequence
from hawkes_rkhs.features import KernelSpec, WindowIntegralTable, build_basis, phi
from oracles import (
    event_sums_loop,
    intensity_loop,
    kkt_solve,
    objective_gradient,
    phi_tilde_loop,
    quad_gram,
    quad_gram_converged,
    quad_phi_outer,
    random_instance,
)


def small_instance(seed=3, U=2, n=12, T=10.0, M=8):
    rng = np.random.default_rng(seed)
    return random_instance(rng, U=U, n_events=n, T=T, M=M, seed=seed)


# --- event sequence validation -------------------------------------------------

def test_event_sequence_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        EventSequence(np.array([1.0, 1.0]), np.array([1, 2]), 10.0, 2)
    with pytest.raises(ValueError, match="increasing"):
        EventSequence(np.array([2.0, 1.0]), np.array([1, 1]), 10.0, 1)
    with pytest.raises(ValueError, match="horizon"):
        EventSequence(np.array([1.0, 10.0]), np.array([1, 1]), 10.0, 1)
    with pytest.raises(ValueError, match="mark"):
        EventSequence(np.array([1.0]), np.array([3]), 10.0, 2)
    with pytest.raises(ValueError, match="negative"):
        EventSequence(np.array([-1.0, 2.0]), np.array([1, 1]), 10.0, 1)


def test_event_sequence_counts_partition():
    ev = EventSequence(np.array([1.0, 2.0, 3.0]), np.array([2, 1, 2]), 5.0, 3)
    assert_allclose(ev.counts, [1.0, 2.0, 0.0])
    assert len(ev) == 3
    assert list(ev.dim_indices(2)) == [0, 2]


# --- phi_tilde ------------------------------------------------------------------

def test_phi_tilde_zero_before_events():
    ev, basis = small_instance()
    s = ev.times[0] - 0.5
    assert_allclose(phi_tilde(ev, basis, 3.0, s), 0.0)


def test_phi_tilde_single_event_blocks():
    basis = build_basis(KernelSpec(beta=1.0), 8, 1)
    ev = EventSequence(np.array([1.0]), np.array([1]), 10.0, 2)
    out = phi_tilde(ev, basis, 5.0, 2.0)
    assert_allclose(out[:8], phi(basis, 1.0))
    assert_allclose(out[8:], 0.0)


def test_phi_tilde_matches_naive_loop_exactly():
    ev, basis = small_instance(seed=5, n=9)
    for s in (0.3, 2.2, 5.7, 9.9):
        got = phi_tilde(ev, basis, 3.0, s)
        want = phi_tilde_loop(ev, basis, 3.0, s)
        assert np.array_equal(got, want)


@given(st.integers(0, 500), st.floats(0.0, 12.0))
@settings(max_examples=40)
def test_phi_tilde_matches_naive_loop_randomized(seed, s):
    rng = np.random.default_rng(seed)
    ev, basis = random_instance(rng, U=3, n_events=20, T=12.0, M=6)
    got = phi_tilde(ev, basis, 4.0, s)
    want = phi_tilde_loop(ev, basis, 4.0, s)
    assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_phi_tilde_window_edges():
    basis = build_basis(KernelSpec(beta=1.0), 4, 0)
    ev = EventSequence(np.array([1.0]), np.array([1]), 20.0, 1)
    # lag exactly A is included, lag 0 is excluded
    assert np.any(phi_tilde(ev, basis, 5.0, 6.0) != 0)
    assert_allclose(phi_tilde(ev, basis, 5.0, 1.0), 0.0)
    assert_allclose(phi_tilde(ev, basis, 5.0, 6.0 + 1e-9), 0.0)


# --- Xi -------------------------------------------------------------------------

def test_xi_empty_events():
    basis = build_basis(KernelSpec(beta=1.0), 4, 0)
    ev = EventSequence(np.array([]), np.array([]), 10.0, 2)
    xi = build_xi(ev, basis, 5.0)
    assert_allclose(xi.values, 0.0)


def test_xi_single_event_matches_quadrature():
    basis = build_basis(KernelSpec(beta=1.0), 8, 7)
    ev = EventSequence(np.array([1.0]), np.array([1]), 10.0, 1)
    xi = build_xi(ev, basis, 5.0)
    want = quad_phi_outer(basis, 1.0, 1.0, 1.0, 6.0)
    assert_allclose(xi.values, want, atol=1e-9)


def test_xi_gram_identity_small():
    ev, basis = small_instance(seed=8, U=2, n=10)
    xi = build_xi(ev, basis, 3.0)
    want = quad_gram_converged(ev, basis, 3.0)
    err = np.linalg.norm(xi.values - want) / np.linalg.norm(want)
    assert err < 1e-9


def test_xi_symmetry_and_psd():
    ev, basis = small_instance(seed=2, U=3, n=18, M=6)
    xi = build_xi(ev, basis, 4.0)
    assert np.array_equal(xi.values, xi.values.T)
    assert np.linalg.eigvalsh(xi.values).min() >= -1e-10
    assert_allclose(xi.block(1, 2), xi.block(2, 1).T)


def test_xi_agrees_with_per_pair_closed_form():
    # block-level pair summation vs one integral_phi_outer call per pair;
    # M = 256 makes adjacent frequencies close enough to exercise the
    # near-resonant entry handling
    from hawkes_rkhs.features import integral_phi_outer
    rng = np.random.default_rng(6)
    for M in (8, 256):
        ev, basis = random_instance(rng, U=2, n_events=15, T=10.0, M=M, seed=9)
        A = 4.0
        xi = build_xi(ev, basis, A)
        ref = np.zeros_like(xi.values)
        for n in range(len(ev)):
            for n2 in range(len(ev)):
                a = max(ev.times[n], ev.times[n2])
                b = min(ev.T, ev.times[n] + A, ev.times[n2] + A)
                if a < b:
                    G = integral_phi_outer(basis, ev.times[n], ev.times[n2], a, b)
                    i, j = ev.marks[n] - 1, ev.marks[n2] - 1
                    ref[i * M:(i + 1) * M, j * M:(j + 1) * M] += G
        assert np.abs(xi.values - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_xi_windowed_matches_quadrature():
    ev, basis = small_instance(seed=13, U=2, n=14, T=12.0)
    got = build_xi(ev, basis, 3.0, lo=4.0, hi=9.0).values
    want = quad_gram(ev, basis, 3.0, lo=4.0, hi=9.0, order=60)
    assert_allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


def per_pair_xi(ev, basis, A, lo, hi):
    """Gram over [lo, hi] with one integral_phi_outer call per ordered pair."""
    from hawkes_rkhs.features import integral_phi_outer
    M = basis.M
    ref = np.zeros((ev.U * M, ev.U * M))
    for n in range(len(ev)):
        for n2 in range(len(ev)):
            a = max(ev.times[n], ev.times[n2], lo)
            b = min(hi, ev.times[n] + A, ev.times[n2] + A)
            if a < b:
                i, j = ev.marks[n] - 1, ev.marks[n2] - 1
                ref[i * M:(i + 1) * M, j * M:(j + 1) * M] += integral_phi_outer(
                    basis, ev.times[n], ev.times[n2], a, b)
    return ref


def test_xi_windowed_agrees_with_per_pair_closed_form():
    # (lo, hi) cuts pairs at both ends, so boundary pairs meet interior ones
    rng = np.random.default_rng(31)
    A, lo, hi = 4.0, 2.5, 7.5
    for M in (8, 64):
        ev, basis = random_instance(rng, U=2, n_events=15, T=10.0, M=M, seed=4)
        t = ev.times
        assert np.any((t < lo) & (t + A > lo)) and np.any((t < hi) & (t + A > hi))
        got = build_xi(ev, basis, A, lo, hi).values
        ref = per_pair_xi(ev, basis, A, lo, hi)
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_xi_near_resonant_entries_agree_with_per_pair_closed_form():
    # a hand-built basis: an exact resonance (repeated and zero frequencies)
    # and (m, k) entries with |omega_m -+ omega_k| A at 0.99 and 1.01, on both
    # sides of the switch to the Taylor series; phases need not be 0 or -pi/2
    from hawkes_rkhs.estimator import _resonance
    from hawkes_rkhs.features import FeatureBasis
    A = 4.0
    omega = np.array([0.5, 0.5, 0.5 + 0.99 / A, 0.5 + 1.01 / A,
                      -0.5 + 0.99 / A, -0.5 + 1.01 / A, 0.0, 2.0])
    theta = np.array([0.0, -0.5 * np.pi, 0.3, -0.5 * np.pi, 1.1, 0.0, 0.7, -0.2])
    basis = FeatureBasis(omega=omega, theta=theta)
    (m_plus, k_plus, y_plus), (m_minus, k_minus, y_minus) = _resonance(basis, A)[2]
    assert {(0, 4), (6, 6)} <= set(zip(m_plus, k_plus))  # y+ = 0.99 and 0
    assert (0, 5) not in set(zip(m_plus, k_plus))         # y+ = 1.01
    assert {(0, 1), (2, 0)} <= set(zip(m_minus, k_minus))  # y- = 0 and 0.99
    assert (3, 0) not in set(zip(m_minus, k_minus))        # y- = 1.01
    assert np.abs(y_plus).max() < 1.0 and np.abs(y_minus).max() < 1.0
    rng = np.random.default_rng(37)
    times = np.unique(rng.uniform(0.0, 11.5, 25))
    ev = EventSequence(times, rng.integers(1, 3, times.size), 12.0, 2)
    for lo, hi in ((0.0, ev.T), (3.0, 9.0)):
        got = build_xi(ev, basis, A, lo, hi).values
        ref = per_pair_xi(ev, basis, A, lo, hi)
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_event_sums_match_per_event_loop():
    # times on a grid of 1/8 mixed with uniform ones, so that many lags are
    # exactly A, and a window that cuts pairs at both ends (2.3 and 8.1)
    rng = np.random.default_rng(41)
    A = 1.5
    for seed in range(3):
        grid = rng.integers(1, 96, 20) / 8.0
        times = np.unique(np.concatenate([grid, rng.uniform(0.0, 12.0, 10), [2.3, 8.1]]))
        ev = EventSequence(times, rng.integers(1, 3, times.size), 12.5, 2)
        basis = build_basis(KernelSpec(beta=1.0), 16, seed)
        assert np.any(times[:, None] - times[None, :] == A)
        lo, hi = 3.0, 8.5
        assert np.any((times < lo) & (times + A > lo))
        assert np.any((times < hi) & (times + A > hi))
        for window in ((0.0, ev.T), (lo, hi)):
            got = Design(ev, basis, A, *window).event_sums
            want = event_sums_loop(ev, basis, A, *window)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("A", [0.1, 0.3, 1.1, 7.3])
def test_gram_at_phase_segment_edges(A):
    # events at k A and one ulp either side: lags of exactly A and A +- 1 ulp,
    # where a pair counts only if its computed lag is at most A
    k = np.arange(1, 9) * A
    times = np.unique(np.concatenate([k, np.nextafter(k, 0.0), np.nextafter(k, np.inf)]))
    rng = np.random.default_rng(43)
    ev = EventSequence(times, rng.integers(1, 3, times.size), 9.5 * A, 2)
    basis = build_basis(KernelSpec(beta=1.0), 8, 7)
    xi = build_xi(ev, basis, A)
    ref = per_pair_xi(ev, basis, A, 0.0, ev.T)
    assert np.abs(xi.values - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    want = event_sums_loop(ev, basis, A, 0.0, ev.T)
    assert np.abs(xi.event_sums - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    for t in times:
        assert_allclose(phi_tilde(ev, basis, A, t), phi_tilde_loop(ev, basis, A, t),
                        rtol=0, atol=1e-12)


def test_gram_does_not_depend_on_time_origin():
    # on a dyadic grid the shift by 2^20 leaves every time and lag exact, and
    # so every window bound with the dyadic A = 2.5; with A = 2.3 no pair is
    # cut by the horizon: only the anchoring of the phases can differ
    rng = np.random.default_rng(47)
    times = np.unique(rng.integers(1, 17 * 2**10, 40)) / 2.0**10
    marks = rng.integers(1, 3, times.size)
    T, shift = 20.0, 2.0**20
    basis = build_basis(KernelSpec(beta=1.0), 16, 11)
    for A, lo, hi in ((2.5, 0.0, T), (2.5, 4.0, 17.0), (2.3, 0.0, T)):
        ref = Design(EventSequence(times, marks, T, 2), basis, A, lo, hi)
        got = Design(EventSequence(times + shift, marks, T + shift, 2), basis, A,
                     lo + shift, hi + shift)
        for g, w in ((got.xi.values, ref.xi.values), (got.event_sums, ref.event_sums)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@given(log_c=st.floats(min_value=-3.0, max_value=3.0))
def test_fit_does_not_depend_on_time_unit(log_c):
    # times, T and A times c, beta and gamma over c: c g(c s) and c mu stay,
    # and the Gram takes its series path on the same (m, k) entries
    from hawkes_rkhs.estimator import _resonance
    from hawkes_rkhs.features import FeatureBasis
    c = 10.0 ** log_c
    ev, basis = small_instance(seed=29, U=2, n=30, T=20.0, M=16)
    A, gamma = 3.0, 0.7
    scaled_ev = EventSequence(ev.times * c, ev.marks, ev.T * c, ev.U)
    scaled_basis = FeatureBasis(omega=basis.omega / c, theta=basis.theta,
                                beta=basis.beta / c, seed=basis.seed)
    ref = fit(ev, FitConfig(gamma=gamma, A=A, basis=basis))
    got = fit(scaled_ev, FitConfig(gamma=gamma / c, A=A * c, basis=scaled_basis))
    assert_allclose(c * got.mu_hat, ref.mu_hat, rtol=1e-9)
    s = np.linspace(0.0, A, 13)
    for i in (1, 2):
        for j in (1, 2):
            want = g_curve(ref, i, j, s)
            assert_allclose(c * g_curve(got, i, j, c * s), want, rtol=1e-9,
                            atol=1e-9 * np.abs(want).max())
    for near, scaled_near in zip(_resonance(basis, A)[2],
                                 _resonance(scaled_basis, A * c)[2]):
        assert np.array_equal(near[0], scaled_near[0])
        assert np.array_equal(near[1], scaled_near[1])


# --- design ---------------------------------------------------------------------

def design_parts(design):
    return (design.xi.values, design.window_vec, design.event_sums, design.counts)


@pytest.mark.parametrize("seed,split", [(5, 0.5), (17, 0.8), (23, None)])
def test_design_split_additivity(seed, split):
    # the designs over [0, s] and [s, T] sum to the design over [0, T]
    ev, basis = small_instance(seed=seed, U=2, n=20, T=12.0)
    s = ev.times[len(ev) // 2] if split is None else split * ev.T  # None: s at an event
    A = 3.0
    whole = Design(ev, basis, A)
    parts = zip(design_parts(Design(ev, basis, A, 0.0, s)),
                design_parts(Design(ev, basis, A, s, ev.T)))
    for (left, right), want in zip(parts, design_parts(whole)):
        assert_allclose(left + right, want, rtol=0,
                        atol=1e-10 * max(1.0, np.abs(want).max()))
    assert whole.length == ev.T and whole.counts.sum() == len(ev)


def test_design_prefix_matches_restricted_events():
    # the training design of grid search equals the design of the truncated data
    ev, basis = small_instance(seed=19, U=2, n=20, T=12.0)
    s = 0.7 * ev.T
    full = Design(ev, basis, 3.0, 0.0, s)
    restricted = Design(ev.restrict(s), basis, 3.0)
    assert restricted.length == full.length
    for got, want in zip(design_parts(full), design_parts(restricted)):
        assert_allclose(got, want, rtol=1e-10, atol=1e-14)


# --- fit ------------------------------------------------------------------------

def test_fit_requires_events_and_window():
    basis = build_basis(KernelSpec(beta=1.0), 4, 0)
    empty = EventSequence(np.array([]), np.array([]), 10.0, 1)
    with pytest.raises(FitError):
        fit(empty, FitConfig(gamma=1.0, A=5.0, basis=basis))
    ev = EventSequence(np.array([1.0]), np.array([1]), 4.0, 1)
    with pytest.raises(ValueError, match="exceeds the horizon"):
        fit(ev, FitConfig(gamma=1.0, A=5.0, basis=basis))


def test_fit_config_validation():
    basis = build_basis(KernelSpec(beta=1.0), 4, 0)
    with pytest.raises(ValueError):
        FitConfig(gamma=0.0, A=5.0, basis=basis)
    with pytest.raises(ValueError):
        FitConfig(gamma=1.0, A=-1.0, basis=basis)


def test_fit_empty_dimension_gives_zero_estimates():
    basis = build_basis(KernelSpec(beta=1.0), 8, 3)
    # all events on dimension 1; dimension 2 is empty
    ev = EventSequence(np.array([1.0, 2.5, 4.0]), np.array([1, 1, 1]), 10.0, 2)
    model = fit(ev, FitConfig(gamma=0.5, A=3.0, basis=basis))
    assert model.mu_hat[1] == pytest.approx(0.0, abs=1e-14)
    assert_allclose(model.coeff[1], 0.0, atol=1e-14)
    for s in (0.0, 1.0, 2.9):
        assert evaluate_g(model, 2, 1, s) == pytest.approx(0.0, abs=1e-13)


def test_fit_strong_penalty_shrinks_g_to_zero():
    ev, basis = small_instance(seed=21, n=15)
    model = fit(ev, FitConfig(gamma=1e-9, A=3.0, basis=basis))
    s = np.linspace(0.0, 3.0, 80)
    for i in (1, 2):
        for j in (1, 2):
            assert np.abs(g_curve(model, i, j, s)).max() <= 1e-4
    assert_allclose(model.mu_hat, ev.counts / ev.T, rtol=1e-4)


def test_fit_matches_joint_kkt_oracle():
    ev, basis = small_instance(seed=17, U=2, n=20, M=8)
    gamma, A = 0.7, 3.0
    model = fit(ev, FitConfig(gamma=gamma, A=A, basis=basis))
    mu_o, coeff_o, grad_o, rhs_norm = kkt_solve(ev, basis, gamma, A)
    scale = max(np.abs(mu_o).max(), np.abs(coeff_o).max())
    assert np.abs(model.mu_hat - mu_o).max() <= 1e-8 * scale
    assert np.abs(model.coeff - coeff_o).max() <= 1e-8 * scale
    grad = objective_gradient(ev, basis, gamma, A, model.mu_hat, model.coeff)
    assert grad <= 1e-6 * (1.0 + rhs_norm)


def test_fit_stats_and_denominator():
    ev, basis = small_instance(seed=30, n=16)
    model = fit(ev, FitConfig(gamma=1.0, A=3.0, basis=basis))
    assert 0.0 < model.stats["mu_denominator"] < ev.T
    assert model.stats["condition_estimate"] >= 1.0
    assert model.stats["xi_build_s"] >= 0.0
    assert model.mu_hat_clipped.min() >= 0.0


def test_fit_relabeling_equivariance():
    ev, basis = small_instance(seed=11, U=2, n=16)
    perm = {1: 2, 2: 1}
    swapped = EventSequence(ev.times, np.array([perm[m] for m in ev.marks]),
                            ev.T, ev.U)
    cfg = FitConfig(gamma=0.8, A=3.0, basis=basis)
    a = fit(ev, cfg)
    b = fit(swapped, cfg)
    assert_allclose(a.mu_hat, b.mu_hat[::-1], rtol=1e-9, atol=1e-12)
    M = basis.M
    for i in (1, 2):
        for j in (1, 2):
            assert_allclose(a.coeff_block(i, j), b.coeff_block(perm[i], perm[j]),
                            rtol=1e-8, atol=1e-11)


def test_solver_rejects_non_spd():
    from hawkes_rkhs.estimator import _solve_spd
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(FitError, match="positive definite"):
        _solve_spd(bad, np.ones(2), gamma=1.0)


# --- evaluate_g / intensity -----------------------------------------------------

def test_evaluate_g_zero_model():
    ev, basis = small_instance()
    model = fit(ev, FitConfig(gamma=1.0, A=3.0, basis=basis))
    zero = FittedModel(mu_hat=np.zeros(ev.U),
                       coeff=np.zeros_like(model.coeff),
                       basis=basis, config=model.config, T=ev.T, U=ev.U)
    assert evaluate_g(zero, 1, 2, 1.3) == 0.0
    assert intensity(zero, ev, 1, 5.0) == 0.0


def test_evaluate_g_matches_oracle_coefficients():
    ev, basis = small_instance(seed=19, U=2, n=14)
    gamma, A = 1.2, 3.0
    model = fit(ev, FitConfig(gamma=gamma, A=A, basis=basis))
    mu_o, coeff_o, _, _ = kkt_solve(ev, basis, gamma, A)
    M = basis.M
    for s in (0.1, 0.9, 2.4):
        for i in (1, 2):
            for j in (1, 2):
                want = phi(basis, s) @ coeff_o[i - 1, (j - 1) * M:j * M]
                assert evaluate_g(model, i, j, s) == pytest.approx(want, abs=1e-7)


def test_intensity_before_first_event_is_baseline():
    ev, basis = small_instance(seed=23)
    model = fit(ev, FitConfig(gamma=1.0, A=3.0, basis=basis))
    t = ev.times[0] * 0.5
    assert intensity(model, ev, 1, t) == pytest.approx(model.mu_hat[0])


def test_intensity_matches_double_loop():
    ev, basis = small_instance(seed=29, U=2, n=18, T=15.0)
    model = fit(ev, FitConfig(gamma=0.9, A=4.0, basis=basis))
    for t in (0.5, 3.3, 7.7, 14.9):
        for i in (1, 2):
            assert intensity(model, ev, i, t) == pytest.approx(
                intensity_loop(model, ev, i, t), abs=1e-12)


# --- equivalent kernels ---------------------------------------------------------

def test_equivalent_kernel_vanishes_under_strong_penalty():
    ev, basis = small_instance(seed=31, n=8)
    eq = EquivalentKernel(ev, basis, 1e-9, 3.0)
    vals = [abs(eq.h(j, s, sp)) for j in (1, 2) for s in (0.2, 1.5) for sp in (2.0, 6.0)]
    assert max(vals) <= 1e-8


def test_representer_consistency():
    # fitted kernels equal the unit-coefficient expansion in equivalent kernels
    ev, basis = small_instance(seed=41, U=2, n=10, T=12.0)
    gamma, A = 0.8, 3.0
    model = fit(ev, FitConfig(gamma=gamma, A=A, basis=basis))
    eq = EquivalentKernel(ev, basis, gamma, A)
    for i in (1, 2):
        idx = ev.dim_indices(i)
        for j in (1, 2):
            for s in (0.15, 1.1, 2.8):
                expansion = sum(eq.h(j, s, ev.times[n]) for n in idx)
                expansion -= model.mu_hat[i - 1] * eq.integral_second(j, s)
                got = evaluate_g(model, i, j, s)
                assert abs(got - expansion) <= 1e-8 * (1.0 + abs(expansion))


def test_identity_sum_exchange():
    # both per-event assemblies of the window/event sums of h agree
    ev, basis = small_instance(seed=43, U=2, n=9, T=12.0)
    gamma, A = 0.6, 3.0
    eq = EquivalentKernel(ev, basis, gamma, A)
    from scipy.linalg import cho_solve
    table = WindowIntegralTable(basis, ev.times, ev.T, A)
    M = basis.M
    for i in (1, 2):
        s_i = np.zeros(ev.U * M)
        for n in ev.dim_indices(i):
            s_i += phi_tilde_loop(ev, basis, A, ev.times[n])
        y = cho_solve(eq._factor, s_i)
        lhs = sum(table.vectors[n] @ y[(ev.marks[n] - 1) * M:ev.marks[n] * M]
                  for n in range(len(ev)))
        z = eq._window_solution
        rhs = 0.0
        for n in range(len(ev)):
            w = np.zeros(M)
            for np_ in ev.dim_indices(i):
                lag = ev.times[np_] - ev.times[n]
                if 0.0 < lag <= A:
                    w += phi(basis, lag)
            rhs += w @ z[(ev.marks[n] - 1) * M:ev.marks[n] * M]
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


# --- serialization ---------------------------------------------------------------

def test_model_json_round_trip():
    ev, basis = small_instance(seed=47)
    model = fit(ev, FitConfig(gamma=1.1, A=3.0, basis=basis))
    doc = model.to_dict()
    assert set(doc) == {"U", "M", "T", "A", "gamma", "basis_ref", "mu_hat", "coeff"}
    clone = FittedModel.from_dict(doc)
    assert_allclose(clone.mu_hat, model.mu_hat)
    assert_allclose(clone.coeff, model.coeff)
    assert clone.basis.beta == model.basis.beta
    assert evaluate_g(clone, 1, 2, 0.7) == pytest.approx(evaluate_g(model, 1, 2, 0.7))


@pytest.mark.parametrize("mu_hat", [[0.3], [0.3, 0.2, 0.1], [[0.3, 0.2]]])
def test_model_from_dict_rejects_wrong_mu_hat_shape(mu_hat):
    ev, basis = small_instance(seed=47)
    doc = fit(ev, FitConfig(gamma=1.1, A=3.0, basis=basis)).to_dict()
    doc["mu_hat"] = mu_hat
    with pytest.raises(ValueError, match="mu_hat"):
        FittedModel.from_dict(doc)

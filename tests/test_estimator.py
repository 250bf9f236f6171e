import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hawkes_rkhs import estimator
from hawkes_rkhs.estimator import (
    Design,
    EquivalentKernel,
    FitConfig,
    FitError,
    FittedModel,
    build_xi,
    fit,
    g_curve,
    intensity,
    phi_tilde,
)
from hawkes_rkhs.events import EventSequence
from hawkes_rkhs.features import (
    KernelSpec,
    WindowIntegralTable,
    build_basis,
    feature_matrix,
    integral_phi_range,
)
from oracles import (
    event_sums_loop,
    integral_phi_outer,
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
    for T in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            EventSequence(np.array([1.0]), np.array([1]), T, 1)
    # NaN compares false with every bound: the range checks alone pass it
    with pytest.raises(ValueError, match="^event time nan at index 1 is not finite$"):
        EventSequence(np.array([1.0, np.nan, 3.0]), np.array([1, 2, 1]), 10.0, 2)
    with pytest.raises(ValueError, match="^event time inf at index 1 is not finite$"):
        EventSequence(np.array([1.0, np.inf, 3.0]), np.array([1, 2, 1]), 10.0, 2)
    for marks, bad in (([1.7, 2.0], "1.7"), ([1.0, np.nan], "nan")):
        with pytest.raises(ValueError, match=f"^mark {bad} is not an integer$"):
            EventSequence(np.array([1.0, 2.0]), np.array(marks), 10.0, 2)
    for U in (2.5, 2.0, 0):
        with pytest.raises(ValueError, match=f"^dimension count U must be an integer >= 1, "
                                             f"got {U}$"):
            EventSequence(np.array([1.0]), np.array([1]), 10.0, U)


def test_event_sequence_keeps_integral_float_marks():
    ev = EventSequence(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 10.0, np.int64(2))
    assert ev.marks.dtype == np.dtype(int) and list(ev.marks) == [2, 1]


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
    assert_allclose(out[:8], feature_matrix(basis, 1.0))
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


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", ["phi_tilde", "intensity", "EquivalentKernel.h"])
def test_evaluation_time_must_be_finite(call, s):
    # a non-finite time matched no event window, so it read as "no history"
    ev, basis = small_instance()
    model = fit(ev, FitConfig(gamma=1.0, A=3.0, basis=basis))
    calls = {"phi_tilde": lambda: phi_tilde(ev, basis, 3.0, s),
             "intensity": lambda: intensity(model, ev, 1, s),
             "EquivalentKernel.h": lambda: EquivalentKernel(ev, basis, 1.0, 3.0).h(1, 0.5, s)}
    with pytest.raises(ValueError, match=f"^time s must be finite, got {s}$"):
        calls[call]()


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
    xi = build_xi(ev, basis, 5.0)[0]
    assert_allclose(xi, 0.0)


def test_xi_single_event_matches_quadrature():
    basis = build_basis(KernelSpec(beta=1.0), 8, 7)
    ev = EventSequence(np.array([1.0]), np.array([1]), 10.0, 1)
    xi = build_xi(ev, basis, 5.0)[0]
    want = quad_phi_outer(basis, 1.0, 1.0, 1.0, 6.0)
    assert_allclose(xi, want, atol=1e-9)


def test_xi_gram_identity_small():
    ev, basis = small_instance(seed=8, U=2, n=10)
    xi = build_xi(ev, basis, 3.0)[0]
    want = quad_gram_converged(ev, basis, 3.0)
    err = np.linalg.norm(xi - want) / np.linalg.norm(want)
    assert err < 1e-9


def test_xi_symmetry_and_psd():
    ev, basis = small_instance(seed=2, U=3, n=18, M=6)
    xi = build_xi(ev, basis, 4.0)[0]
    assert np.array_equal(xi, xi.T)
    assert np.linalg.eigvalsh(xi).min() >= -1e-10
    M = basis.M
    assert_allclose(xi[:M, M:2 * M], xi[M:2 * M, :M].T)


def test_xi_agrees_with_per_pair_closed_form():
    # block-level pair summation vs one integral_phi_outer call per pair;
    # M = 256 makes adjacent frequencies close enough to exercise the
    # near-resonant entry handling
    rng = np.random.default_rng(6)
    for M in (8, 256):
        ev, basis = random_instance(rng, U=2, n_events=15, T=10.0, M=M, seed=9)
        A = 4.0
        xi = build_xi(ev, basis, A)[0]
        ref = np.zeros_like(xi)
        for n in range(len(ev)):
            for n2 in range(len(ev)):
                a = max(ev.times[n], ev.times[n2])
                b = min(ev.T, ev.times[n] + A, ev.times[n2] + A)
                if a < b:
                    G = integral_phi_outer(basis, ev.times[n], ev.times[n2], a, b)
                    i, j = ev.marks[n] - 1, ev.marks[n2] - 1
                    ref[i * M:(i + 1) * M, j * M:(j + 1) * M] += G
        assert np.abs(xi - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_xi_windowed_matches_quadrature():
    ev, basis = small_instance(seed=13, U=2, n=14, T=12.0)
    got = build_xi(ev, basis, 3.0, lo=4.0, hi=9.0)[0]
    want = quad_gram(ev, basis, 3.0, lo=4.0, hi=9.0, order=60)
    assert_allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


def per_pair_xi(ev, basis, A, lo, hi):
    """Gram over [lo, hi] with one integral_phi_outer call per ordered pair."""
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


def cut_pairs(ev, A, lo, hi):
    """Masks over the ordered pairs (n, n'): those with t_n' <= t_n that meet
    [lo, hi], and of them those cut at lo (t_n < lo) and at hi (t_n' + A > hi)."""
    later, earlier = ev.times[:, None], ev.times[None, :]
    meets = (earlier <= later) & (np.maximum(later, lo) < np.minimum(earlier + A, hi))
    return meets, meets & (later < lo), meets & (earlier + A > hi)


def cut_pair_counts(ev, A, lo, hi):
    """Ordered pairs t_n' <= t_n that meet [lo, hi]: how many are cut at lo
    (t_n < lo), at hi (t_n' + A > hi), and at both ends at once."""
    _, at_lo, at_hi = cut_pairs(ev, A, lo, hi)
    return at_lo.sum(), at_hi.sum(), (at_lo & at_hi).sum()


def windowed_cases():
    """Instances cut by (2.5, 7.5) at both ends, and a burst sequence whose
    events lie mostly just below 2.5 and 7.5; returns (cases, burst)."""
    rng = np.random.default_rng(31)
    lo, hi = 2.5, 7.5
    cases = []
    for M in (8, 64):
        ev, basis = random_instance(rng, U=2, n_events=15, T=10.0, M=M, seed=4)
        cases.append((ev, basis, lo, hi, (1, 1, 0)))
    times = np.unique(np.concatenate([rng.uniform(lo - 1.0, lo, 12),
                                      rng.uniform(hi - 1.0, hi, 12), rng.uniform(0.0, 10.0, 6)]))
    burst = EventSequence(times, rng.integers(1, 3, times.size), 10.0, 2)
    for M in (8, 64):
        basis = build_basis(KernelSpec(beta=1.0), M, 5)
        cases += [(burst, basis, lo, hi, (60, 60, 0)), (burst, basis, 2.0, 5.0, (20, 20, 20))]
    return cases, burst


def test_xi_windowed_agrees_with_per_pair_closed_form():
    # (lo, hi) cuts pairs at both ends, so cut pairs meet interior ones; bursts
    # of events just below lo and hi cut many pairs at each end, and a window
    # shorter than A cuts pairs at both ends at once
    A = 4.0
    cases, _ = windowed_cases()
    for ev, basis, lo, hi, least in cases:
        assert np.all(np.array(cut_pair_counts(ev, A, lo, hi)) >= least)
        got = build_xi(ev, basis, A, lo, hi)[0]
        ref = per_pair_xi(ev, basis, A, lo, hi)
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_pair_pass_takes_no_pair_cut_at_the_window_end(monkeypatch):
    # the lag pass sees each pair that meets the window and ends at t_n' + A
    # inside it once, early pairs included; the pairs cut at hi, and the early
    # pairs' second end at lo, come from the edge terms
    import hawkes_rkhs.estimator as est
    A, (_, burst) = 4.0, windowed_cases()
    basis = build_basis(KernelSpec(beta=1.0), 8, 5)
    lag_sums, entries = est._lag_sums, []

    def counted(phasors, first, *args):
        entries.append(first.size)
        return lag_sums(phasors, first, *args)

    monkeypatch.setattr(est, "_lag_sums", counted)
    for lo, hi in ((2.5, 7.5), (2.0, 5.0), (0.0, burst.T)):
        meets, _, at_hi = cut_pairs(burst, A, lo, hi)
        entries.clear()
        build_xi(burst, basis, A, lo, hi)
        assert sum(entries) == meets.sum() - at_hi.sum()


def pair_basis(half):
    """The (cos, sin) pair basis on the frequencies ``half``, M = 2 len(half)."""
    from hawkes_rkhs.features import FeatureBasis
    half = np.asarray(half, dtype=float)
    return FeatureBasis(omega=np.concatenate([half, half]),
                        theta=np.repeat([0.0, -0.5 * np.pi], half.size))


def near_resonant_basis(A):
    """A pair basis on hand-picked frequencies: an exact resonance (repeated
    and zero frequencies) and (f, g) entries with |omega_f -+ omega_g| A at
    0.099 and 0.101, on both sides of the switch to the Taylor series at 0.1,
    and at 0.99 and 1.01, which take the closed form."""
    return pair_basis([0.5, 0.5, 0.5 + 0.099 / A, 0.5 + 0.101 / A,
                       -0.5 + 0.099 / A, -0.5 + 0.101 / A, 0.5 + 0.99 / A, 0.5 + 1.01 / A,
                       -0.5 + 0.99 / A, -0.5 + 1.01 / A, 0.0, 2.0])


def repeated_frequency_basis(A):
    """A pair basis in which frequencies 0.5 and 0.5 + 0.03 / A appear three
    times each and -0.5 + 0.05 / A twice, so that one pair of frequencies
    feeds 3 x 3 entries of the - series at y = 0, another 3 x 3 at y = -0.03,
    and both meet -0.5 + 0.05 / A in the + series (y+ = 0.05 and 0.08)."""
    return pair_basis([0.5, 0.5, 0.5, 0.5 + 0.03 / A, 0.5 + 0.03 / A, 0.5 + 0.03 / A,
                       -0.5 + 0.05 / A, -0.5 + 0.05 / A, 1.3, 2.0])


def test_xi_near_resonant_entries_agree_with_per_pair_closed_form(monkeypatch):
    import hawkes_rkhs.estimator as est
    A = 4.0
    assert est._CUTOFF == 0.1
    resonance, splits = est._resonance, []

    def recorded(*args):
        splits.append(resonance(*args))
        return splits[-1]

    monkeypatch.setattr(est, "_resonance", recorded)
    rng = np.random.default_rng(37)
    times = np.unique(rng.uniform(0.0, 11.5, 25))
    ev = EventSequence(times, rng.integers(1, 3, times.size), 12.0, 2)
    assert cut_pair_counts(ev, A, 3.0, 9.0)[0] > 0       # pairs cut at lo
    assert cut_pair_counts(ev, A, 5.0, 8.0)[2] > 0       # and at both ends
    for basis, repeated in ((near_resonant_basis(A), False),
                            (repeated_frequency_basis(A), True)):
        for lo, hi in ((0.0, ev.T), (3.0, 9.0), (5.0, 8.0)):
            splits.clear()
            got = build_xi(ev, basis, A, lo, hi)[0]
            # the build took the series on exactly the entries with |y| < 0.1
            (f_plus, g_plus, y_plus), (f_minus, g_minus, y_minus) = splits[-1][1]
            plus, minus = set(zip(f_plus, g_plus)), set(zip(f_minus, g_minus))
            if not repeated:
                assert {(0, 4), (10, 10)} <= plus                 # y+ = 0.099 and 0
                assert not {(0, 5), (0, 8), (0, 9)} & plus        # y+ = 0.101, 0.99, 1.01
                assert {(0, 1), (2, 0)} <= minus                  # y- = 0 and 0.099
                assert not {(3, 0), (6, 0), (7, 0)} & minus       # y- = 0.101, 0.99, 1.01
            else:
                # one pair of frequencies feeds 9 entries, at y = 0 and y != 0
                assert {(f, g) for f in range(3) for g in range(6)} <= minus
                assert {(f, g) for f in range(6) for g in (6, 7)} <= plus
                half = basis.omega[:basis.M // 2]
                for at in (y_minus == 0, y_minus != 0):
                    pairs = np.c_[half[f_minus], half[g_minus]][at]
                    assert np.unique(pairs, axis=0, return_counts=True)[1].max() >= 9
            assert np.abs(y_plus).max() < 0.1 and np.abs(y_minus).max() < 0.1
            ref = per_pair_xi(ev, basis, A, lo, hi)
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_gram_blocks_are_symmetric_and_agree_with_per_pair_closed_form(monkeypatch):
    # U = 3 and U = 1 Grams on windows that cut pairs at both ends: each block
    # pair i <= j is formed once and mirrored, so an i/j swap would show in
    # blocks (1, 3) and (2, 3); chunks of size 2M, one pair entry each, also
    # split every block's lag pass over several GEMMs
    import hawkes_rkhs.estimator as est
    rng = np.random.default_rng(71)
    A, chunk = 4.0, est._CHUNK
    times = np.unique(np.concatenate([rng.uniform(1.5, 2.5, 8), rng.uniform(6.5, 7.5, 8),
                                      rng.uniform(0.0, 10.0, 8)]))
    for U in (3, 1):
        marks = np.resize(np.arange(1, U + 1), times.size)
        rng.shuffle(marks)
        ev = EventSequence(times, marks, 10.0, U)
        for lo, hi in ((2.5, 7.5), (2.0, 5.0)):
            assert min(cut_pair_counts(ev, A, lo, hi)[:2]) > 0
            for basis in (build_basis(KernelSpec(beta=1.0), 64, 5), near_resonant_basis(A)):
                ref = per_pair_xi(ev, basis, A, lo, hi)
                for size in (chunk, 2 * basis.M):
                    monkeypatch.setattr(est, "_CHUNK", size)
                    got = build_xi(ev, basis, A, lo, hi)[0]
                    assert np.array_equal(got, got.T)
                    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_lag_rows_2_to_J_only_where_a_near_entry_reads_them(monkeypatch):
    # a build that takes lag rows 2..J at every frequency returns the same
    # statistics: bitwise where every near entry has y = 0 (beta = 1, whose
    # near entries pair a feature with itself or its cos/sin twin) and within
    # 1e-14 where some frequencies carry them anyway
    import hawkes_rkhs.estimator as est
    rng = np.random.default_rng(79)
    A = 5.0
    times = np.unique(np.concatenate([rng.uniform(0.0, 40.0, 60), rng.uniform(17.0, 20.0, 10)]))
    ev = EventSequence(times, rng.integers(1, 4, times.size), 40.0, 3)
    resonance = est._resonance

    def every(*args):
        *rest, order, _ = resonance(*args)
        return (*rest, order, order.size)

    for basis, tol in ((build_basis(KernelSpec(beta=1.0), 100, 20), 0.0),
                       (near_resonant_basis(A), 1e-14),
                       (build_basis(KernelSpec(beta=0.5), 100, 20), 1e-14)):
        lead = resonance(basis, A)[3]
        assert (lead == 0) == (tol == 0.0)
        for window in ((0.0, ev.T), (20.0, 35.0)):
            monkeypatch.setattr(est, "_resonance", resonance)
            want = build_xi(ev, basis, A, *window)
            monkeypatch.setattr(est, "_resonance", every)
            got = build_xi(ev, basis, A, *window)
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= tol * np.abs(w).max()


def test_resonance_split_matches_the_full_mask():
    # random pair bases with repeated, zero and exactly opposite frequencies:
    # the near entries found in windows of the sorted frequencies are those of
    # the full |y| < _CUTOFF mask over the F frequencies, in np.nonzero order,
    # and the F x F table is the sum of the two reciprocals exactly on them and
    # within 4e-16 of its largest entry off them
    import hawkes_rkhs.estimator as est
    rng = np.random.default_rng(73)
    for F, A, repeats in ((16, 0.5, 1), (64, 4.0, 1), (64, 40.0, 1), (100, 4.0, 1),
                          (16, 0.5, 2), (64, 4.0, 3), (100, 40.0, 2)):
        base = rng.normal(size=F // 4)
        omega = rng.choice(np.concatenate([base, -base, [0.0], rng.normal(size=F // 4)]),
                           F // repeats)
        # each frequency 1 to 3 times
        omega = rng.permutation(np.resize(np.repeat(omega, repeats), F))
        basis = pair_basis(omega)
        (T, T_t), series = est._resonance(basis, A)[:2]
        assert np.array_equal(T_t, T.T) and T.flags.c_contiguous and T_t.flags.c_contiguous
        want, off = np.zeros((F, F)), np.ones((F, F), dtype=bool)
        for sign, (f, g, y) in zip((1.0, -1.0), series):
            x = np.add.outer(omega, sign * omega)
            near = np.abs(x) * A < est._CUTOFF
            assert np.count_nonzero(near & ~np.eye(F, dtype=bool)) > 0
            for got, ref in zip((f, g, y), (*np.nonzero(near), x[near] * A)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            off &= ~near
            x *= basis.M
            x[near] = np.inf
            want += 1.0 / x
        assert np.array_equal(T[~off], want[~off])
        assert np.abs(T - want)[off].max() <= 4e-16 * np.abs(want).max()


def test_series_cutoff_and_term_count_bound_both_errors():
    # at |y| < _CUTOFF the first series term dropped is below _CUTOFF^J/(J+1)!;
    # at |y| >= _CUTOFF the closed form's 1/y loses at most ~eps/_CUTOFF
    from math import factorial
    from hawkes_rkhs.estimator import _CUTOFF, _SERIES_TERMS
    assert _CUTOFF ** _SERIES_TERMS / factorial(_SERIES_TERMS + 1) <= 1e-16
    assert np.finfo(float).eps / _CUTOFF <= 1e-14


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
    # where a pair counts only if its computed lag is at most A; windows with
    # edges at k A and on events put t + A at an edge and one ulp either side,
    # for edge sets at exact ties, and the last two are shorter than A and empty
    k = np.arange(1, 9) * A
    times = np.unique(np.concatenate([k, np.nextafter(k, 0.0), np.nextafter(k, np.inf)]))
    rng = np.random.default_rng(43)
    ev = EventSequence(times, rng.integers(1, 3, times.size), 9.5 * A, 2)
    basis = build_basis(KernelSpec(beta=1.0), 8, 7)
    for lo, hi in ((0.0, ev.T), (3 * A, 7 * A), (times[8], times[20]), (4 * A, 4.5 * A),
                   (5 * A, 5 * A)):
        xi, _, event_sums, _ = build_xi(ev, basis, A, lo, hi)
        ref = per_pair_xi(ev, basis, A, lo, hi)
        assert np.abs(xi - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        want = event_sums_loop(ev, basis, A, lo, hi)
        assert np.abs(event_sums - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
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
        for g, w in ((got.xi, ref.xi), (got.event_sums, ref.event_sums)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_gram_ranges_match_one_range_build(monkeypatch):
    # budgets that cut the walk into ranges of 1-3 events against one range
    # for the whole sequence, on windows that cut pairs at lo and at hi; the
    # M^2 terms are finished once per build, whatever the number of ranges
    import hawkes_rkhs.estimator as est
    rng = np.random.default_rng(59)
    A, lo, hi = 4.0, 2.5, 7.5
    times = np.unique(np.concatenate([rng.uniform(lo - 1.0, lo, 12),
                                      rng.uniform(hi - 1.0, hi, 12), rng.uniform(0.0, 10.0, 6)]))
    ev = EventSequence(times, rng.integers(1, 3, times.size), 10.0, 2)
    basis = build_basis(KernelSpec(beta=1.0), 8, 5)
    windows = ((0.0, ev.T), (lo, hi), (2.0, 5.0))
    for window in windows[1:]:
        assert min(cut_pair_counts(ev, A, *window)[:2]) > 0
    monkeypatch.setattr(est, "_RANGE", 1 << 40)
    want = [build_xi(ev, basis, A, *window) for window in windows]

    sizes, finished, gathered = [], [], []
    pairs, finish, lag_sums = est._pairs_lag_in_window, est._finish_gram, est._lag_sums

    def counted_pairs(starts, a):
        sizes.append(starts.size)
        return pairs(starts, a)

    def counted_lag_sums(*args):
        gathered.append(1)
        return lag_sums(*args)

    def counted_finish(*args):
        finished.append(1)
        return finish(*args)

    monkeypatch.setattr(est, "_pairs_lag_in_window", counted_pairs)
    monkeypatch.setattr(est, "_finish_gram", counted_finish)
    monkeypatch.setattr(est, "_lag_sums", counted_lag_sums)
    for budget in (1, 80):
        monkeypatch.setattr(est, "_RANGE", budget)
        for window, ref in zip(windows, want):
            sizes.clear()
            finished.clear()
            gathered.clear()
            got = build_xi(ev, basis, A, *window)
            assert len(sizes) > 3 and max(sizes) <= 3
            # one lag pass per range, for all its blocks
            assert len(gathered) == len(sizes)
            assert len(finished) == 1
            assert np.array_equal(got[0], got[0].T)
            for g, w in zip(got, ref):
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def test_build_xi_memory_does_not_grow_with_the_event_count(monkeypatch):
    # 4x the events at the same rate: with a budget of a few ranges per build,
    # the traced peak of a build grows far less than the event count
    import tracemalloc
    monkeypatch.setattr("hawkes_rkhs.estimator._RANGE", 1 << 17)
    rng = np.random.default_rng(67)
    basis = build_basis(KernelSpec(beta=1.0), 8, 1)
    peaks = []
    for T in (250.0, 1000.0):
        times = np.unique(rng.uniform(0.0, T, int(8 * T)))
        ev = EventSequence(times, rng.integers(1, 3, times.size), T, 2)
        tracemalloc.start()
        build_xi(ev, basis, 2.0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


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
    for near, scaled_near in zip(_resonance(basis, A)[1],
                                 _resonance(scaled_basis, A * c)[1]):
        assert np.array_equal(near[0], scaled_near[0])
        assert np.array_equal(near[1], scaled_near[1])


# --- design ---------------------------------------------------------------------

def design_parts(design):
    return (design.xi, design.window_vec, design.event_sums, design.counts)


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


def test_design_addition_sums_adjacent_windows():
    ev, basis = small_instance(seed=17, U=2, n=20, T=12.0)
    A, s = 3.0, 0.8 * ev.T
    total, whole = Design(ev, basis, A, 0.0, s) + Design(ev, basis, A, s, ev.T), Design(ev, basis, A)
    for got, want in zip(design_parts(total)[:3], design_parts(whole)):
        assert_allclose(got, want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max()))
    assert np.array_equal(total.counts, whole.counts)
    assert total.length == whole.length == ev.T and total.A == A
    assert (total.lo, total.hi) == (0.0, ev.T) and total.basis is basis


def test_design_addition_rejects_other_a_or_shape():
    ev, basis = small_instance(seed=17, U=2, n=20, T=12.0)
    left = Design(ev, basis, 3.0, 0.0, 6.0)
    with pytest.raises(ValueError, match="same A"):
        left + Design(ev, basis, 2.0, 6.0, ev.T)
    with pytest.raises(ValueError, match="same A"):
        left + Design(ev, build_basis(KernelSpec(beta=1.0), 4, 0), 3.0, 6.0, ev.T)
    # U = 1 at M = 16 has the Gram shape of U = 2 at M = 8, not its event sums
    one, wide = small_instance(seed=17, U=1, n=20, T=12.0, M=16)
    with pytest.raises(ValueError, match="same A"):
        left + Design(one, wide, 3.0, 6.0, one.T)
    # another basis of the same shape, and an equal copy of this one: only
    # the same object is known to be the same basis
    copied = build_basis(KernelSpec(beta=1.0), 8, 17)
    assert np.array_equal(copied.omega, basis.omega) and copied is not basis
    for other in (build_basis(KernelSpec(beta=0.5), 8, 17), copied):
        with pytest.raises(ValueError, match="same A"):
            left + Design(ev, other, 3.0, 6.0, ev.T)
    # windows that are not adjacent: a gap, an overlap, the same window again
    for lo, hi in ((7.0, ev.T), (5.0, ev.T), (0.0, 6.0)):
        with pytest.raises(ValueError, match="same A"):
            left + Design(ev, basis, 3.0, lo, hi)


@pytest.mark.parametrize("at_event", [True, False])
def test_design_over_an_empty_window_is_zero(at_event):
    # lo = hi at an event time or between events, with pairs whose support
    # [t_n', t_n' + A] spans the point: no pair meets a window of length 0
    ev, basis = small_instance(seed=29, U=2, n=20, T=12.0)
    A = 3.0
    k = len(ev) // 2
    s = ev.times[k] if at_event else 0.5 * (ev.times[k] + ev.times[k + 1])
    assert np.any((ev.times < s) & (ev.times + A > s))
    design = Design(ev, basis, A, s, s)
    assert design.length == 0.0
    for part in design_parts(design):
        assert not np.any(part)


def test_design_prefix_matches_restricted_events():
    # the training design of grid search equals the design of the truncated data
    ev, basis = small_instance(seed=19, U=2, n=20, T=12.0)
    s = 0.7 * ev.T
    full = Design(ev, basis, 3.0, 0.0, s)
    restricted = Design(ev.restrict(s), basis, 3.0)
    assert restricted.length == full.length
    for got, want in zip(design_parts(full), design_parts(restricted)):
        assert_allclose(got, want, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("lo,hi", [(6.0, 4.0), (2.0, 12.5), (-1.0, 5.0)])
def test_design_rejects_window_outside_horizon(lo, hi):
    # a reversed window would give an empty Gram and a negative length
    ev, basis = small_instance(seed=3, T=12.0)
    with pytest.raises(ValueError, match="must lie inside"):
        Design(ev, basis, 3.0, lo, hi)


@pytest.mark.parametrize("A,lo,hi,message", [
    (3.0, 6.0, 4.0, "must lie inside"),    # reversed: an all-zero Gram before the check
    (3.0, 2.0, 12.5, "must lie inside"),   # past the horizon
    (0.0, 0.0, None, "must be positive")])
def test_build_xi_rejects_bad_window_and_support(A, lo, hi, message):
    ev, basis = small_instance(seed=3, T=12.0)
    with pytest.raises(ValueError, match=message):
        build_xi(ev, basis, A, lo, hi)


def test_window_vec_matches_per_event_table():
    # dyadic times at lo - A, lo, hi - A and inside (hi - A, hi), where the
    # test for events that add all of int_0^A phi meets its bounds exactly;
    # windows longer than A, shorter than A (no such event) and [s, T]
    A, T = 2.5, 20.0
    rng = np.random.default_rng(53)
    basis = build_basis(KernelSpec(beta=1.0), 16, 3)
    for lo, hi in ((5.0, 15.0), (7.0, 8.5), (16.0, T)):
        edges = np.array([lo - A, lo, hi - A, hi - A / 4, hi - 2.0**-10])
        grid = rng.integers(0, int(T) * 2**8, 40) / 2.0**8
        times = np.unique(np.concatenate([grid, edges[(edges >= 0) & (edges < T)]]))
        ev = EventSequence(times, rng.integers(1, 3, times.size), T, 2)
        full = (times >= lo) & (times + A <= hi)
        assert full.any() == (hi - lo >= A)
        want = np.zeros((ev.U, basis.M))
        for vector, mark in zip(WindowIntegralTable(basis, times, hi, A, lo=lo).vectors,
                                ev.marks):
            want[mark - 1] += vector
        got = Design(ev, basis, A, lo, hi).window_vec
        assert np.abs(got - want.ravel()).max() <= 1e-13 * np.abs(want).max()


def test_window_vec_cuts_an_event_exactly_when_the_gram_does():
    # hi = t + A as computed, so t + A > hi is false and the Gram takes the
    # event's pairs uncut, while hi - t rounds to an ulp below A: the window
    # vector must take all of int_0^A phi too, not int_0^{hi - t} phi
    t, A = 12.817765328620334, 5.0
    hi = t + A
    assert not t + A > hi and hi - t < A
    basis = build_basis(KernelSpec(beta=1.0), 16, 3)
    design = Design(EventSequence(np.array([t]), np.array([1]), 20.0, 1), basis, A, 0.0, hi)
    assert np.array_equal(design.window_vec, integral_phi_range(basis, 0.0, A))


def test_design_ignores_events_that_cannot_reach_the_window():
    # events before lo - 2A (some of them partners of the first events the
    # Gram walks) and events at or after hi change no statistic of [lo, hi]
    rng = np.random.default_rng(61)
    A, lo, hi, T = 2.0, 8.0, 14.0, 20.0
    basis = build_basis(KernelSpec(beta=1.0), 16, 2)
    core = np.unique(np.concatenate([rng.uniform(lo - 2 * A, hi, 40), [lo - 2 * A]]))
    extra = np.concatenate([rng.uniform(0.0, lo - 2 * A, 15), [np.nextafter(lo - 2 * A, 0.0)],
                            rng.uniform(lo - 3 * A, lo - 2 * A, 5), [hi],
                            rng.uniform(hi, T, 15)])
    times = np.unique(np.concatenate([core, extra]))
    marks = rng.integers(1, 3, times.size)
    kept = np.isin(times, core)
    alone = Design(EventSequence(times[kept], marks[kept], T, 2), basis, A, lo, hi)
    among = Design(EventSequence(times, marks, T, 2), basis, A, lo, hi)
    for got, want in zip(design_parts(among), design_parts(alone)):
        assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


# --- fit ------------------------------------------------------------------------

def test_fit_requires_events_and_window(monkeypatch):
    basis = build_basis(KernelSpec(beta=1.0), 4, 0)
    empty = EventSequence(np.array([]), np.array([]), 10.0, 1)
    for A in (5.0, 50.0):  # an empty sequence is reported first, as an input error
        with pytest.raises(ValueError, match="^cannot fit an empty event sequence$"):
            fit(empty, FitConfig(gamma=1.0, A=A, basis=basis))
    ev = EventSequence(np.array([1.0]), np.array([1]), 4.0, 1)
    # a window longer than the horizon is rejected before any design is built
    monkeypatch.setattr("hawkes_rkhs.estimator.build_xi", None)
    with pytest.raises(ValueError, match="exceeds the horizon") as exc:
        fit(ev, FitConfig(gamma=1.0, A=5.0, basis=basis))
    assert not isinstance(exc.value, FitError)


def test_design_solve_returns_the_model_fit_returns():
    # fit is the [0, T] design's solve plus two timers: same arrays, bit for bit
    ev, basis = small_instance()
    want = fit(ev, FitConfig(gamma=0.7, A=3.0, basis=basis))
    model = Design(ev, basis, 3.0).solve(0.7)
    assert isinstance(model, FittedModel)
    assert (model.config.gamma, model.config.A, model.T, model.U) == (0.7, 3.0, ev.T, ev.U)
    assert model.basis is basis and model.config.basis is basis
    assert set(want.stats) - set(model.stats) == {"xi_build_s", "total_s"}
    assert set(model.stats) <= set(want.stats)
    assert model.mu_hat.tobytes() == want.mu_hat.tobytes()
    assert model.coeff.tobytes() == want.coeff.tobytes()
    # a window design has the horizon hi
    assert Design(ev, basis, 3.0, 0.0, 6.0).solve(0.7).T == 6.0


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
        assert g_curve(model, 2, 1, s) == pytest.approx(0.0, abs=1e-13)


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
    from hawkes_rkhs.estimator import _cholesky
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(FitError, match="positive definite"):
        _cholesky(bad - np.eye(2), gamma=1.0)


@pytest.mark.parametrize("entries", [(np.nan,), (np.inf,), (np.nan, np.inf)])
def test_solver_rejects_non_finite_systems(entries):
    # LAPACK is called without scipy's finiteness check, so the 1-norm does it
    from hawkes_rkhs.estimator import _cholesky
    Z = np.eye(3) + 0.1
    for k, value in enumerate(entries):
        Z[k, 2] = Z[2, k] = value
    with pytest.raises(FitError, match=r"not finite \(gamma=0\.5, 1-norm="):
        _cholesky(Z - np.eye(3) / 0.5, gamma=0.5)


def test_solver_rejects_non_finite_right_hand_side():
    # a grid cell reports FitError alone, so this numerical failure must be one
    from hawkes_rkhs.estimator import _RidgeSolver
    solver = _RidgeSolver(np.eye(3) + 0.1 - np.eye(3) / 0.5, gamma=0.5)
    with pytest.raises(FitError, match=r"right-hand side is not finite \(gamma=0\.5\)"):
        solver.solve(np.array([1.0, np.nan, 1.0]))


@pytest.mark.parametrize("lam,warned", [(1.01e10 / 2.0, True), (0.99e10 / 2.0, False)])
def test_solver_warns_past_the_condition_threshold(caplog, lam, warned):
    # Xi = diag(lam, 0): the condition 1 + gamma lam is kappa_2(Z) exactly
    from hawkes_rkhs.estimator import _RidgeSolver
    with caplog.at_level(logging.WARNING, logger="hawkes_rkhs.estimator"):
        cond = _RidgeSolver(np.diag([lam, 0.0]), gamma=2.0).condition
    assert cond == 1.0 + 2.0 * lam
    assert (cond > estimator.ILL_CONDITIONED) == warned
    messages = [r.getMessage() for r in caplog.records if r.name == "hawkes_rkhs.estimator"]
    if warned:
        assert len(messages) == 1
        assert "gamma=2" in messages[0] and f"{cond:.3e}" in messages[0]
    else:
        assert messages == []


@pytest.mark.parametrize("gamma", [np.inf, np.nan, 0.0])
@pytest.mark.parametrize("call", ["FitConfig", "Design.solve", "EquivalentKernel"])
def test_solve_rejects_gamma_not_positive_and_finite(call, gamma):
    # at gamma = inf the ridge is gone: an unpenalized fit, or a singular system
    ev, basis = small_instance()
    calls = {"FitConfig": lambda: FitConfig(gamma=gamma, A=3.0, basis=basis),
             "Design.solve": lambda: Design(ev, basis, 3.0).solve(gamma),
             "EquivalentKernel": lambda: EquivalentKernel(ev, basis, gamma, 3.0)}
    with pytest.raises(ValueError, match=f"gamma must be positive and finite, got {gamma}"):
        calls[call]()


@pytest.mark.parametrize("A", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("call", ["FitConfig", "build_xi", "Design", "EquivalentKernel"])
def test_support_window_must_be_positive_and_finite(call, A):
    # at A = inf every window integral diverges: NaN statistics, not an error
    ev, basis = small_instance()
    calls = {"FitConfig": lambda: FitConfig(gamma=1.0, A=A, basis=basis),
             "build_xi": lambda: build_xi(ev, basis, A),
             "Design": lambda: Design(ev, basis, A),
             "EquivalentKernel": lambda: EquivalentKernel(ev, basis, 1.0, A)}
    with pytest.raises(ValueError, match=f"^support window A must be positive and finite, "
                                         f"got {A}$"):
        calls[call]()


# --- the low-rank route: pivoted Cholesky of Xi, float64 refinement ------------

@pytest.fixture(scope="module")
def seed20_design():
    """Designs of the seed-20 mutually-exciting draw over [0, T] (beta = 1,
    basis seed 20), keyed by (T, M) and built on first use."""
    from hawkes_rkhs.simulation import mutually_exciting_scenario, simulate
    spec = mutually_exciting_scenario()
    designs = {}

    def design(T, M):
        if (T, M) not in designs:
            events = simulate(spec, T, 20).events
            designs[T, M] = Design(events, build_basis(KernelSpec(beta=1.0), M, 20), spec.A)
        return designs[T, M]
    return design


def solve_rhs(design):
    return np.column_stack([design.window_vec, design.event_sums.T])


def float64_factor(xi, gamma):
    """scipy's cho_factor of the Fortran view of (1/gamma) I + xi."""
    from scipy.linalg import cho_factor
    Z = xi.copy()
    Z.flat[::Z.shape[0] + 1] += 1.0 / gamma
    return cho_factor(Z.T, lower=True, overwrite_a=True, check_finite=False)


def float64_reference(xi, gamma, rhs):
    """The float64 route as scipy's wrappers run it: ``float64_factor``, then
    cho_solve."""
    from scipy.linalg import cho_solve
    return cho_solve(float64_factor(xi, gamma), rhs, check_finite=False)


@pytest.mark.parametrize("T,M,gamma", [(200.0, 256, 0.1), (200.0, 256, 1.0), (200.0, 256, 10.0),
                                       (200.0, 512, 0.1), (200.0, 512, 1.0), (200.0, 512, 10.0),
                                       (2000.0, 512, 100.0)])
def test_lowrank_solve_meets_dsposv_test_and_agrees_with_float64(seed20_design, T, M, gamma):
    from hawkes_rkhs.estimator import _residual, _RidgeSolver
    design = seed20_design(T, M)
    rhs = solve_rhs(design)
    x, info = _RidgeSolver(design.xi, gamma).solve(rhs)
    cond = info["condition_estimate"]
    n = 3 * M
    assert info["solve_route"] == "lowrank"
    assert 0 < info["rank"] < n // estimator.LOWRANK_RANK_DIVISOR
    assert 0 <= info["refine_steps"] <= estimator.LOWRANK_MAX_STEPS
    Z = design.xi + np.eye(n) / gamma
    # dsposv's stopping test, for every right-hand side
    r = _residual(design.xi, x, rhs, gamma)
    tol = np.abs(Z).sum(axis=0).max() * np.finfo(float).eps / 2 * np.sqrt(n)
    assert (np.abs(r).max(axis=0) <= np.abs(x).max(axis=0) * tol).all()
    # and the stricter test the route stops at: ||P||_2 = kappa_2(P) / gamma <= ||Z||_inf
    strict = cond / gamma * np.finfo(float).eps / 2 * np.sqrt(n)
    assert strict <= tol
    assert (np.abs(r).max(axis=0) <= np.abs(x).max(axis=0) * strict).all()
    assert info["relative_residual"] == pytest.approx(np.linalg.norm(r) / np.linalg.norm(rhs))
    # kappa_2(P) is the exact kappa_2(Z) to a relative LOWRANK_TOL
    eigenvalues = np.linalg.eigvalsh(Z)
    kappa = eigenvalues[-1] / eigenvalues[0]
    assert cond == pytest.approx(kappa, rel=1e-5)
    want = float64_reference(design.xi, gamma, rhs)
    assert np.abs(x - want).max() <= 10 * kappa * np.finfo(float).eps * np.abs(want).max()


def test_lowrank_solve_refines_until_its_stopping_tolerance(seed20_design):
    # at gamma = 0.007 the seed-20 M = 256 system's residual after step 1 sits
    # at 2.4-3.6 times the tolerance ||x||_inf ||P||_2 eps sqrt(n) (3.6 at
    # gamma = 0.006, 2.4 at 0.009), so refinement takes step 2; a tolerance 4
    # times looser would stop at step 1
    from hawkes_rkhs.estimator import _residual, _RidgeSolver
    design, gamma = seed20_design(200.0, 256), 0.007
    rhs = solve_rhs(design)
    x, info = _RidgeSolver(design.xi, gamma).solve(rhs)
    cond = info["condition_estimate"]
    assert info["solve_route"] == "lowrank" and info["refine_steps"] == 2
    r = _residual(design.xi, x, rhs, gamma)
    tol = cond / gamma * np.finfo(float).eps / 2 * np.sqrt(design.xi.shape[0])
    assert (np.abs(r).max(axis=0) <= np.abs(x).max(axis=0) * tol).all()


def test_float64_solve_route_below_the_order_threshold_is_unchanged(seed20_design, monkeypatch):
    # M*U = 300 is below LOWRANK_MIN_ORDER
    from hawkes_rkhs.estimator import _cholesky, _RidgeSolver

    def lowrank(*args, **kwargs):
        raise AssertionError("the float64 route tried the low-rank route")
    design, gamma = seed20_design(200.0, 100), 1.0
    rhs = solve_rhs(design)
    want = float64_reference(design.xi, gamma, rhs)
    monkeypatch.setattr(estimator, "_pivoted_cholesky", lowrank)
    x, info = _RidgeSolver(design.xi, gamma).solve(rhs)
    assert info == {"condition_estimate": info["condition_estimate"], "solve_route": "float64",
                    "rank": 300, "refine_steps": 0, "relative_residual": info["relative_residual"]}
    assert x.tobytes() == want.tobytes()
    # the factor is scipy's, to the bit
    assert _cholesky(design.xi, gamma).tobytes() == float64_factor(design.xi, gamma)[0].tobytes()
    # the power steps read the same bits each time
    assert _RidgeSolver(design.xi, gamma).condition == info["condition_estimate"]


def wide_system(decline, seed20_design):
    """(xi, gamma, rhs) of order >= LOWRANK_MIN_ORDER that the low-rank route
    declines for the given reason."""
    n = estimator.LOWRANK_MIN_ORDER
    if decline == "no convergence":
        design = seed20_design(200.0, 256)
        return design.xi, 1.0, solve_rhs(design)
    if decline == "rank cap":
        G = np.random.default_rng(5).standard_normal((n, n))
        xi = G @ G.T / n  # full rank
    else:
        xi = np.eye(n) * (-4.0 if decline == "negative diagonal" else 1.0)
    if decline in ("nan", "inf"):
        xi[0, 1] = xi[1, 0] = float(decline)
    if decline == "indefinite":
        xi[n - 1, n - 2] = xi[n - 2, n - 1] = 1e39
    return xi, 0.5, np.ones((n, 2))


@pytest.mark.parametrize("decline", ["rank cap", "no convergence", "nan", "inf",
                                     "negative diagonal", "indefinite"])
def test_lowrank_solve_declines_to_float64(seed20_design, monkeypatch, decline):
    from hawkes_rkhs.estimator import _cholesky, _pivoted_cholesky, _RidgeSolver
    finite, definite = r"not finite \(gamma=0\.5, 1-norm=", r"not positive definite \(gamma=0\.5"
    error = {"nan": finite, "inf": finite, "negative diagonal": definite,
             "indefinite": definite}.get(decline)
    xi, gamma, rhs = wide_system(decline, seed20_design)
    factors = []

    def lowrank(*args):
        factors.append(_pivoted_cholesky(*args))
        return factors[-1]
    if decline == "no convergence":
        # one Woodbury solve leaves a residual near LOWRANK_TOL, far from the test
        monkeypatch.setattr(estimator, "LOWRANK_MAX_STEPS", 0)
    monkeypatch.setattr(estimator, "_pivoted_cholesky", lowrank)
    if error is not None:
        with pytest.raises(FitError, match=error):
            _RidgeSolver(xi, gamma).solve(rhs)
        with pytest.raises(FitError, match=error):
            _cholesky(xi, gamma)
    else:
        solver = _RidgeSolver(xi, gamma)
        x, info = solver.solve(rhs)
        assert info["solve_route"] == "float64" and info["rank"] == xi.shape[0]
        assert x.tobytes() == float64_reference(xi, gamma, rhs).tobytes()
        # the float64 factor is kept: a second solve runs no refinement
        monkeypatch.setattr(solver, "_refine", None)
        assert solver.solve(rhs)[0].tobytes() == x.tobytes()
    # the factor declines, but for "no convergence", where refinement does
    assert len(factors) == 1 and (factors[0] is None) == (decline != "no convergence")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_lowrank_solve_declines_a_non_finite_entry_no_pivot_row_reads(value):
    # Xi is nonzero only in its leading 4 x 4 block, so every pivot row is one
    # of its first 4; an entry far from them reaches the route only through
    # the residual, and the float64 route then names it
    from hawkes_rkhs.estimator import _cholesky, _RidgeSolver
    n, gamma = estimator.LOWRANK_MIN_ORDER, 0.5
    G = np.random.default_rng(13).standard_normal((4, 4))
    xi = np.zeros((n, n))
    xi[:4, :4] = G @ G.T
    rhs = np.ones((n, 2))
    assert _RidgeSolver(xi, gamma).solve(rhs)[1]["rank"] == 4
    xi[n - 1, n - 2] = xi[n - 2, n - 1] = value
    solver = _RidgeSolver(xi, gamma)
    assert (solver.route, solver.rank) == ("lowrank", 4)
    finite = r"not finite \(gamma=0\.5, 1-norm="
    with pytest.raises(FitError, match=finite):
        solver.solve(rhs)
    with pytest.raises(FitError, match=finite):
        _cholesky(xi, gamma)


def test_lowrank_solve_at_rank_zero_is_the_ridge_alone():
    # gamma tr(Xi) <= LOWRANK_TOL takes no pivot: P = (1/gamma) I, condition 1
    from hawkes_rkhs.estimator import _RidgeSolver
    n = estimator.LOWRANK_MIN_ORDER
    xi = np.zeros((n, n))
    xi[0, 0] = 1e-7
    x, info = _RidgeSolver(xi, 2.0).solve(np.ones((n, 2)))
    assert info["solve_route"] == "lowrank" and info["rank"] == 0
    assert info["condition_estimate"] == 1.0
    want = np.full((n, 2), 2.0)
    want[0] = 1.0 / (0.5 + 1e-7)
    assert_allclose(x, want, rtol=1e-15)


@pytest.mark.parametrize("M,route", [(256, "lowrank"), (100, "float64")])
def test_solve_does_not_depend_on_time_unit(seed20_design, M, route):
    # times, T and A times 1000, beta and gamma over 1000: gamma Xi stays, so
    # the pivots, the rank, the steps and the condition do, and the
    # coefficients scale by 1/1000
    from hawkes_rkhs.features import FeatureBasis
    from hawkes_rkhs.simulation import mutually_exciting_scenario, simulate
    c, gamma, spec = 1000.0, 1.0, mutually_exciting_scenario()
    events = simulate(spec, 200.0, 20).events
    basis = build_basis(KernelSpec(beta=1.0), M, 20)
    scaled_basis = FeatureBasis(omega=basis.omega / c, theta=basis.theta,
                                beta=basis.beta / c, seed=basis.seed)
    scaled_events = EventSequence(events.times * c, events.marks, events.T * c, events.U)
    ref = seed20_design(200.0, M).solve(gamma)
    got = Design(scaled_events, scaled_basis, spec.A * c).solve(gamma / c)
    for key in ("solve_route", "rank", "refine_steps"):
        assert got.stats[key] == ref.stats[key]
    assert ref.stats["solve_route"] == route
    assert got.stats["condition_estimate"] == pytest.approx(ref.stats["condition_estimate"],
                                                            rel=1e-9)
    assert_allclose(c * got.coeff, ref.coeff, rtol=1e-9, atol=1e-9 * np.abs(ref.coeff).max())
    assert_allclose(c * got.mu_hat, ref.mu_hat, rtol=1e-9)


@pytest.mark.parametrize("T,M,gamma,route", [(200.0, 256, 1.0, "lowrank"),
                                             (200.0, 256, 1.0, "float64"),
                                             (2000.0, 100, 0.1, "float64"),
                                             (2000.0, 100, 1.0, "float64"),
                                             (2000.0, 100, 10.0, "float64")])
def test_condition_is_kappa_2_on_both_routes(seed20_design, monkeypatch, T, M, gamma, route):
    # Xi is numerically singular, so 1 + gamma lambda_max(Xi) is kappa_2(Z)
    from hawkes_rkhs.estimator import _RidgeSolver
    design = seed20_design(T, M)
    if route == "float64":
        monkeypatch.setattr(estimator, "LOWRANK_MIN_ORDER", design.xi.shape[0] + 1)
    solver = _RidgeSolver(design.xi, gamma)
    assert solver.route == route
    eigenvalues = np.linalg.eigvalsh(design.xi + np.eye(design.xi.shape[0]) / gamma)
    assert solver.condition == pytest.approx(eigenvalues[-1] / eigenvalues[0], rel=1e-5)


def test_design_solve_stats_name_route_steps_and_residual(seed20_design):
    for M, route in ((100, "float64"), (512, "lowrank")):
        stats = seed20_design(200.0, M).solve(1.0).stats
        assert stats["solve_route"] == route
        assert (stats["refine_steps"] > 0) == (route == "lowrank")
        assert (stats["rank"] < 3 * M / 8) == (route == "lowrank")
        assert 0.0 <= stats["relative_residual"] < 1e-13


# --- g_curve / intensity --------------------------------------------------------

def test_evaluate_g_zero_model():
    ev, basis = small_instance()
    model = fit(ev, FitConfig(gamma=1.0, A=3.0, basis=basis))
    zero = FittedModel(mu_hat=np.zeros(ev.U),
                       coeff=np.zeros_like(model.coeff),
                       basis=basis, config=model.config, T=ev.T, U=ev.U)
    assert g_curve(zero, 1, 2, 1.3) == 0.0
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
                want = feature_matrix(basis, s) @ coeff_o[i - 1, (j - 1) * M:j * M]
                assert g_curve(model, i, j, s) == pytest.approx(want, abs=1e-7)


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


@pytest.mark.parametrize("index", [0, -1, 3])
@pytest.mark.parametrize("call", ["coeff_block i", "coeff_block j", "g_curve", "intensity",
                                  "EquivalentKernel.h", "integral_second"])
def test_dimension_index_must_lie_in_one_to_u(call, index):
    # 1-based: 0 and -1 would wrap around to the last dimensions
    ev, basis = small_instance()
    assert ev.U == 2
    model = fit(ev, FitConfig(gamma=1.0, A=3.0, basis=basis))
    eq = EquivalentKernel(ev, basis, 1.0, 3.0)
    calls = {"coeff_block i": lambda: model.coeff_block(index, 1),
             "coeff_block j": lambda: model.coeff_block(1, index),
             "g_curve": lambda: g_curve(model, 1, index, 0.5),
             "intensity": lambda: intensity(model, ev, index, 5.0),
             "EquivalentKernel.h": lambda: eq.h(index, 0.5, 5.0),
             "integral_second": lambda: eq.integral_second(index, 0.5)}
    with pytest.raises(ValueError, match=f"^dimension index must lie in 1..2, got {index}$"):
        calls[call]()


# --- equivalent kernels ---------------------------------------------------------

def test_equivalent_kernel_vanishes_under_strong_penalty():
    ev, basis = small_instance(seed=31, n=8)
    eq = EquivalentKernel(ev, basis, 1e-9, 3.0)
    vals = [abs(eq.h(j, s, sp)) for j in (1, 2) for s in (0.2, 1.5) for sp in (2.0, 6.0)]
    assert max(vals) <= 1e-8


@pytest.mark.parametrize("U,M,route", [(2, 8, "float64"), (3, 256, "lowrank")])
def test_representer_consistency_on_each_solve_route(U, M, route):
    # fitted kernels equal the unit-coefficient expansion in equivalent kernels,
    # which take the fit's route
    ev, basis = small_instance(seed=41, U=U, n=10, T=12.0, M=M)
    gamma, A = 0.8, 3.0
    model = fit(ev, FitConfig(gamma=gamma, A=A, basis=basis))
    assert model.stats["solve_route"] == route
    eq = EquivalentKernel(ev, basis, gamma, A)
    for i in range(1, U + 1):
        idx = ev.dim_indices(i)
        for j in range(1, U + 1):
            for s in (0.15, 1.1, 2.8):
                expansion = sum(eq.h(j, s, ev.times[n]) for n in idx)
                expansion -= model.mu_hat[i - 1] * eq.integral_second(j, s)
                got = g_curve(model, i, j, s)
                assert abs(got - expansion) <= 1e-8 * (1.0 + abs(expansion))
    assert eq._solver.route == route


@pytest.mark.parametrize("U,M,route", [(2, 8, "float64"), (3, 256, "lowrank")])
def test_equivalent_kernel_coefficients_are_zero_before_the_first_event(U, M, route):
    # phi_tilde is 0 there: the solve of a zero right-hand side is exactly 0,
    # with no 0 / 0 in its relative residual
    ev, basis = small_instance(seed=41, U=U, n=10, T=12.0, M=M)
    eq = EquivalentKernel(ev, basis, 0.8, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coefficients = eq.coefficients(ev.times[0] / 2.0)
        info = eq._solver.solve(np.zeros(U * M))[1]
    assert coefficients.shape == (U * M,) and np.all(coefficients == 0.0)
    assert info["relative_residual"] == 0.0 and info["solve_route"] == route


def test_identity_sum_exchange():
    # both per-event assemblies of the window/event sums of h agree
    ev, basis = small_instance(seed=43, U=2, n=9, T=12.0)
    gamma, A = 0.6, 3.0
    eq = EquivalentKernel(ev, basis, gamma, A)
    table = WindowIntegralTable(basis, ev.times, ev.T, A)
    M = basis.M
    for i in (1, 2):
        s_i = np.zeros(ev.U * M)
        for n in ev.dim_indices(i):
            s_i += phi_tilde_loop(ev, basis, A, ev.times[n])
        y = eq._solver.solve(s_i)[0]
        lhs = sum(table.vectors[n] @ y[(ev.marks[n] - 1) * M:ev.marks[n] * M]
                  for n in range(len(ev)))
        z = eq._window_solution
        rhs = 0.0
        for n in range(len(ev)):
            w = np.zeros(M)
            for np_ in ev.dim_indices(i):
                lag = ev.times[np_] - ev.times[n]
                if 0.0 < lag <= A:
                    w += feature_matrix(basis, lag)
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
    assert g_curve(clone, 1, 2, 0.7) == pytest.approx(g_curve(model, 1, 2, 0.7))


@pytest.mark.parametrize("coeff", [[[0.0] * 16], [[0.0] * 8] * 2, [[0.0] * 17] * 2])
def test_model_from_dict_rejects_wrong_coeff_shape(coeff):
    ev, basis = small_instance(seed=47)
    doc = fit(ev, FitConfig(gamma=1.1, A=3.0, basis=basis)).to_dict()
    assert np.shape(doc["coeff"]) == (2, 16)
    doc["coeff"] = coeff
    with pytest.raises(ValueError, match="^coefficient array shape inconsistent with U and M$"):
        FittedModel.from_dict(doc)


@pytest.mark.parametrize("mu_hat", [[0.3], [0.3, 0.2, 0.1], [[0.3, 0.2]]])
def test_model_from_dict_rejects_wrong_mu_hat_shape(mu_hat):
    ev, basis = small_instance(seed=47)
    doc = fit(ev, FitConfig(gamma=1.1, A=3.0, basis=basis)).to_dict()
    doc["mu_hat"] = mu_hat
    with pytest.raises(ValueError, match="mu_hat"):
        FittedModel.from_dict(doc)

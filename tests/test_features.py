import json
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from hawkes_rkhs.features import (
    FeatureBasis,
    KernelSpec,
    WindowIntegralTable,
    build_basis,
    feature_matrix,
    integral_phi_range,
    sinc_u,
)
from oracles import integral_phi_outer, quad_phi_outer, quad_phi_vector


def test_kernel_spec_validation():
    spec = KernelSpec(beta=1.0)
    assert spec.value(2.0, 2.0) == 1.0
    with pytest.raises(ValueError):
        KernelSpec(beta=0.0)
    with pytest.raises(ValueError):
        KernelSpec(beta=-1.0)
    for beta in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"got {beta}"):
            KernelSpec(beta=beta)


def test_build_basis_rejects_bad_m():
    spec = KernelSpec(beta=1.0)
    for bad in (0, 1, 3, 7):
        with pytest.raises(ValueError):
            build_basis(spec, bad, 0)


def test_minimal_basis_structure():
    basis = build_basis(KernelSpec(beta=1.0), 2, 3)
    assert basis.omega[0] == basis.omega[1]
    assert basis.theta[0] == 0.0
    assert basis.theta[1] == -np.pi / 2


def test_paired_layout():
    basis = build_basis(KernelSpec(beta=1.0), 100, 5)
    half = basis.M // 2
    assert np.array_equal(basis.omega[:half], basis.omega[half:])
    assert np.all(basis.theta[:half] == 0.0)
    assert np.all(basis.theta[half:] == -np.pi / 2)
    assert np.unique(basis.omega[:half]).size == half


def test_build_basis_reproducible():
    spec = KernelSpec(beta=1.3)
    a = build_basis(spec, 64, 42)
    b = build_basis(spec, 64, 42)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.theta, b.theta)
    c = build_basis(spec, 64, 43)
    assert not np.array_equal(a.omega, c.omega)


def test_kernel_approximation_on_grid():
    spec = KernelSpec(beta=1.0)
    basis = build_basis(spec, 100, 0)
    s = np.linspace(0.0, 5.0, 50)
    P = feature_matrix(basis, s)
    err = np.abs(P @ P.T - spec.value(s[:, None], s[None, :]))
    assert err.max() <= 0.05


def test_feature_norm_near_one():
    basis = build_basis(KernelSpec(beta=1.5), 100, 0)
    s = np.linspace(0.0, 5.0, 50)
    P = feature_matrix(basis, s)
    norms = np.einsum("ij,ij->i", P, P)
    assert norms.min() >= 0.9 and norms.max() <= 1.1


def test_phi_at_zero():
    basis = build_basis(KernelSpec(beta=1.0), 8, 9)
    v = feature_matrix(basis, 0.0)
    half = basis.M // 2
    assert_allclose(v[:half], basis.scale)
    assert_allclose(v[half:], 0.0, atol=1e-16)


def test_phi_self_inner_product():
    basis = build_basis(KernelSpec(beta=1.0), 100, 1)
    v = feature_matrix(basis, 2.0)
    assert abs(v @ v - 1.0) <= 0.1


def test_sinc_series_matches_direct():
    x = np.array([1e-5, 5e-5, 9.9e-5, 1.1e-4, 0.5, 2.0, -3e-5])
    expected = np.where(x == 0, 1.0, np.sin(np.where(x == 0, 1, x)) / np.where(x == 0, 1, x))
    assert_allclose(sinc_u(x), expected, rtol=1e-14)
    assert sinc_u(0.0) == 1.0


def test_window_integral_empty_when_past_horizon():
    basis = build_basis(KernelSpec(beta=1.0), 8, 2)
    assert_allclose(WindowIntegralTable(basis, [10.0], 10.0, 5.0).vectors[0], 0.0)
    assert_allclose(WindowIntegralTable(basis, [12.0], 10.0, 5.0).vectors[0], 0.0)


def test_window_integral_zero_frequency_limit():
    # hand-built basis with an exactly zero frequency exercises the series path
    basis = FeatureBasis(omega=np.array([0.0, 0.0]), theta=np.array([0.0, -np.pi / 2]))
    v = WindowIntegralTable(basis, [0.0], 10.0, 3.0).vectors[0]
    assert_allclose(v[0], np.sqrt(2.0 / 2) * 3.0, rtol=1e-15)
    assert_allclose(v[1], np.sqrt(2.0 / 2) * 3.0 * np.cos(-np.pi / 2), atol=1e-15)


def test_window_integral_matches_quadrature():
    basis = build_basis(KernelSpec(beta=1.0), 8, 11)
    got = WindowIntegralTable(basis, [1.0], 10.0, 5.0).vectors[0]
    want = quad_phi_vector(basis, 0.0, 5.0)
    assert_allclose(got, want, atol=1e-10, rtol=0)


def test_outer_integral_rejects_reversed_bounds():
    basis = build_basis(KernelSpec(beta=1.0), 4, 0)
    with pytest.raises(ValueError):
        integral_phi_outer(basis, 0.0, 0.0, 2.0, 1.0)


def test_outer_integral_empty_interval():
    basis = build_basis(KernelSpec(beta=1.0), 8, 0)
    assert_allclose(integral_phi_outer(basis, 0.3, 0.7, 1.5, 1.5), 0.0)


def test_outer_integral_matches_quadrature():
    basis = build_basis(KernelSpec(beta=1.0), 8, 4)
    got = integral_phi_outer(basis, 0.3, 1.1, 1.1, 4.0)
    want = quad_phi_outer(basis, 0.3, 1.1, 1.1, 4.0)
    assert_allclose(got, want, atol=1e-10, rtol=0)


def test_outer_integral_long_window_diagonal():
    # same shift: diagonal entries approach (b - a)/M (time-average of cos^2)
    basis = build_basis(KernelSpec(beta=1.0), 8, 6)
    b = 200.0
    G = integral_phi_outer(basis, 0.0, 0.0, 0.0, b)
    assert_allclose(np.diag(G), b / basis.M, rtol=0.05)


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0),
       st.floats(0.0, 4.0), st.floats(0.01, 4.0), st.integers(0, 50))
def test_outer_integral_exchange_symmetry(t_n, t_np, a, length, seed):
    basis = build_basis(KernelSpec(beta=1.2), 6, seed)
    G = integral_phi_outer(basis, t_n, t_np, a, a + length)
    H = integral_phi_outer(basis, t_np, t_n, a, a + length)
    assert_allclose(G, H.T, atol=1e-14)


@given(st.floats(0.0, 3.0), st.floats(0.0, 4.0), st.floats(0.01, 5.0),
       st.integers(0, 50))
def test_outer_integral_same_shift_psd(t_n, a, length, seed):
    basis = build_basis(KernelSpec(beta=0.8), 6, seed)
    G = integral_phi_outer(basis, t_n, t_n, a, a + length)
    assert_allclose(G, G.T, atol=0)
    assert np.linalg.eigvalsh(G).min() >= -1e-12


@given(st.floats(0.3, 2.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.integers(0, 10**6))
@example(beta=1.0, t_n=0.0, t_np=1.0, a=1.0, length=4.78e-16, seed=0)  # a near-empty interval
def test_closed_forms_match_quadrature_randomized(beta, t_n, t_np, a, length, seed):
    basis = build_basis(KernelSpec(beta=beta), 4, seed)
    got = integral_phi_outer(basis, t_n, t_np, a, a + length)
    want = quad_phi_outer(basis, t_n, t_np, a, a + length)
    assert_allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()), rtol=0)
    got_w = WindowIntegralTable(basis, [t_n], a + length, length + 0.5).vectors[0]
    L = max(0.0, min(a + length - t_n, length + 0.5))
    want_w = quad_phi_vector(basis, 0.0, L)
    assert_allclose(got_w, want_w, atol=1e-9 * max(1.0, np.abs(want_w).max()), rtol=0)


def test_window_table_invariants():
    basis = build_basis(KernelSpec(beta=1.0), 8, 3)
    times = np.array([0.5, 4.0, 9.0, 9.99])
    table = WindowIntegralTable(basis, times, 10.0, 5.0)
    assert np.all(np.isfinite(table.vectors))
    assert_allclose(table.vectors[0], quad_phi_vector(basis, 0.0, 5.0), atol=1e-12)
    assert_allclose(table.vectors[2], quad_phi_vector(basis, 0.0, 1.0), atol=1e-12)
    # an event at the horizon contributes nothing
    table2 = WindowIntegralTable(basis, np.array([10.0, 11.0]), 10.0, 5.0)
    assert_allclose(table2.vectors, 0.0)


def test_basis_json_round_trip():
    basis = build_basis(KernelSpec(beta=0.7), 16, 99)
    text = json.dumps(basis.to_dict())
    doc = json.loads(text)
    assert set(doc) == {"family", "beta", "M", "seed", "omega", "theta"}
    assert doc["family"] == "gaussian"
    clone = FeatureBasis.from_dict(json.loads(text))
    assert np.array_equal(clone.omega, basis.omega)
    assert np.array_equal(clone.theta, basis.theta)
    assert clone.beta == basis.beta and clone.seed == basis.seed
    assert json.dumps(clone.to_dict()) == text


@pytest.mark.parametrize("omega, theta, message", [
    ([1.0, 1.0], [0.0], "omega and theta must be 1-d arrays of equal length"),
    ([[1.0, 1.0]], [[0.0, 0.0]], "omega and theta must be 1-d arrays of equal length"),
    ([1.0, 1.0, 2.0], [0.0, 0.0, 0.0], "feature count must be even and >= 2, got 3"),
    ([], [], "feature count must be even and >= 2, got 0")])
def test_basis_rejects_bad_frequencies(omega, theta, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FeatureBasis(omega=np.array(omega), theta=np.array(theta))


def test_basis_from_dict_rejects_wrong_feature_count():
    doc = build_basis(KernelSpec(beta=0.7), 4, 1).to_dict()
    doc["M"] = 6
    with pytest.raises(ValueError, match="^inconsistent feature count in basis document$"):
        FeatureBasis.from_dict(doc)


def test_basis_rejects_unknown_family():
    doc = build_basis(KernelSpec(beta=0.7), 4, 1).to_dict()
    doc["family"] = "laplace"
    with pytest.raises(ValueError, match="laplace"):
        FeatureBasis.from_dict(doc)

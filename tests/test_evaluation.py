import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from hawkes_rkhs import estimator, evaluation
from hawkes_rkhs.estimator import Design, FitConfig, FitError, FittedModel, fit, g_curve
from hawkes_rkhs.events import EventSequence
from hawkes_rkhs.evaluation import (
    EvalReport,
    GridSpec,
    bench_factorization,
    bench_scaling,
    fit_scenario_draw,
    fit_scenario_draws,
    grid_search,
    ise,
    ise_on_grid,
)
from hawkes_rkhs.features import KernelSpec, build_basis
from hawkes_rkhs.simulation import (
    IdentityLink,
    ScenarioSpec,
    TriggerKernel,
    exp_decay,
    mutually_exciting_scenario,
    simulate,
    true_curves,
)
from oracles import gauss_panels, gram_breakpoints, phi_tilde_loop, random_instance


def fitted_small(seed=3, U=2, n=14, T=12.0, gamma=0.8, A=3.0):
    rng = np.random.default_rng(seed)
    events, basis = random_instance(rng, U=U, n_events=n, T=T, M=8, seed=seed)
    model = fit(events, FitConfig(gamma=gamma, A=A, basis=basis))
    return events, basis, model


# --- Design.contrast ---------------------------------------------------------------

def test_ls_contrast_zero_model():
    events, basis, model = fitted_small()
    zero_mu = np.zeros(events.U)
    zero_c = np.zeros_like(model.coeff)
    assert Design(events, basis, 3.0, 0.0, events.T).contrast(zero_mu, zero_c) == 0.0


def test_ls_contrast_baseline_only_model():
    events, basis, model = fitted_small(seed=9)
    r = 0.37
    mu = np.full(events.U, r)
    zero_c = np.zeros_like(model.coeff)
    got = Design(events, basis, 3.0, 0.0, events.T).contrast(mu, zero_c)
    want = sum(events.T * r * r - 2.0 * r * events.counts[i] for i in range(events.U))
    assert got == pytest.approx(want, rel=1e-12)


def test_ls_contrast_rejects_bad_window():
    events, basis, model = fitted_small()
    with pytest.raises(ValueError):
        Design(events, basis, 3.0, -1.0, 5.0).contrast(model.mu_hat, model.coeff)
    with pytest.raises(ValueError):
        Design(events, basis, 3.0, 0.0, events.T + 1).contrast(model.mu_hat, model.coeff)


def test_ls_contrast_matches_quadrature():
    events, basis, model = fitted_small(seed=13)
    A = 3.0
    got = Design(events, basis, A, 0.0, events.T).contrast(model.mu_hat, model.coeff)
    nodes, weights = gauss_panels(gram_breakpoints(events, A, 0.0, events.T), 60)
    want = 0.0
    for i in range(events.U):
        lam = np.array([model.mu_hat[i]
                        + model.coeff[i] @ phi_tilde_loop(events, basis, A, t)
                        for t in nodes])
        want += float(weights @ (lam * lam))
        for n in events.dim_indices(i + 1):
            want -= 2.0 * (model.mu_hat[i]
                           + model.coeff[i] @ phi_tilde_loop(events, basis, A,
                                                             events.times[n]))
    assert got == pytest.approx(want, rel=1e-9)


def test_ls_contrast_windowed_uses_full_history():
    events, basis, model = fitted_small(seed=15, T=12.0)
    A = 3.0
    t0, t1 = 6.0, 12.0
    got = Design(events, basis, A, t0, t1).contrast(model.mu_hat, model.coeff)
    nodes, weights = gauss_panels(gram_breakpoints(events, A, t0, t1), 60)
    want = 0.0
    for i in range(events.U):
        lam = np.array([model.mu_hat[i]
                        + model.coeff[i] @ phi_tilde_loop(events, basis, A, t)
                        for t in nodes])
        want += float(weights @ (lam * lam))
        for n in events.dim_indices(i + 1):
            if t0 <= events.times[n] <= t1:
                want -= 2.0 * (model.mu_hat[i]
                               + model.coeff[i] @ phi_tilde_loop(events, basis, A,
                                                                 events.times[n]))
    assert got == pytest.approx(want, rel=1e-9)


def penalized_objective(mu, coeff, basis, events, gamma, A):
    """Full-window contrast plus the ridge penalty (1/gamma) sum ||c_ij||^2;
    the fitted model is its unique minimizer."""
    loss = Design(events, basis, A, 0.0, events.T).contrast(mu, coeff)
    return loss + float(np.sum(coeff * coeff)) / gamma


def test_fit_minimizes_penalized_objective():
    events, basis, model = fitted_small(seed=21, gamma=0.7)
    base = penalized_objective(model.mu_hat, model.coeff, basis, events, 0.7, 3.0)
    rng = np.random.default_rng(0)
    eps = 1e-3
    for _ in range(20):
        d_mu = rng.standard_normal(events.U)
        d_c = rng.standard_normal(model.coeff.shape)
        norm = np.sqrt(np.sum(d_mu**2) + np.sum(d_c**2))
        d_mu, d_c = d_mu / norm, d_c / norm
        for sign in (+1.0, -1.0):
            perturbed = penalized_objective(model.mu_hat + sign * eps * d_mu,
                                            model.coeff + sign * eps * d_c,
                                            basis, events, 0.7, 3.0)
            assert perturbed > base


# --- integrated squared error ----------------------------------------------------

def representable_scenario(model, A):
    """Scenario whose kernels are exactly the model's fitted curves."""
    kernels = []
    for i in range(model.U):
        row = []
        for j in range(model.U):
            values = (lambda s, i=i, j=j: (
                np.asarray(g_curve(model, i + 1, j + 1, np.asarray(s, dtype=float))),
                np.full_like(np.asarray(s, dtype=float), 10.0)))
            row.append(TriggerKernel(values, "fitted"))
        kernels.append(tuple(row))
    # skip nonnegativity checks by using a softplus link container
    from hawkes_rkhs.simulation import SoftplusLink
    return ScenarioSpec(U=model.U, mu=tuple(np.maximum(model.mu_hat, 0.0)),
                        kernels=tuple(kernels), link=SoftplusLink(100.0), A=A)


def test_ise_zero_for_exact_representation():
    events, basis, model = fitted_small(seed=33, A=3.0)
    truth = representable_scenario(model, 3.0)
    report = ise(truth, model)
    assert report.delta_sq == pytest.approx(0.0, abs=1e-20)
    assert_allclose(report.per_pair, 0.0, atol=1e-22)


ZERO_MODEL_DELTA_SQ = 0.7099377710451097  # sum of ||g_ij||^2 over [0, 5], quadrature


def test_ise_zero_model_regression_constant():
    truth = mutually_exciting_scenario()
    basis = build_basis(KernelSpec(beta=1.0), 8, 0)
    cfg = FitConfig(gamma=1.0, A=5.0, basis=basis)
    zero = FittedModel(mu_hat=np.zeros(3), coeff=np.zeros((3, 24)),
                       basis=basis, config=cfg, T=2000.0, U=3)
    report = ise(truth, zero)
    assert report.delta_sq == pytest.approx(ZERO_MODEL_DELTA_SQ, rel=1e-6)
    assert report.per_pair.sum() == pytest.approx(report.delta_sq, rel=1e-12)
    assert report.per_pair.min() >= 0.0


def test_ise_node_refinement_converges():
    truth = mutually_exciting_scenario()
    basis = build_basis(KernelSpec(beta=1.0), 16, 1)
    cfg = FitConfig(gamma=1.0, A=5.0, basis=basis)
    rng = np.random.default_rng(5)
    model = FittedModel(mu_hat=np.zeros(3), coeff=rng.standard_normal((3, 48)) * 0.05,
                        basis=basis, config=cfg, T=2000.0, U=3)
    a = ise(truth, model, n_nodes=2001).delta_sq
    b = ise(truth, model, n_nodes=4001).delta_sq
    assert abs(a - b) / b < 1e-6


def test_ise_rounds_an_even_node_count_up():
    # composite Simpson needs an odd node count: 2000 nodes run as 2001
    truth = mutually_exciting_scenario()
    basis = build_basis(KernelSpec(beta=1.0), 8, 1)
    model = FittedModel(mu_hat=np.zeros(3), coeff=np.full((3, 24), 0.01), basis=basis,
                        config=FitConfig(gamma=1.0, A=5.0, basis=basis), T=100.0, U=3)
    even, odd = ise(truth, model, n_nodes=2000), ise(truth, model, n_nodes=2001)
    assert even.delta_sq == odd.delta_sq
    assert np.array_equal(even.per_pair, odd.per_pair)


def test_ise_dimension_mismatch():
    events, basis, model = fitted_small(seed=3, U=2)
    with pytest.raises(ValueError, match="dimension"):
        ise(mutually_exciting_scenario(), model)


def test_ise_on_grid_matches_ise():
    truth = mutually_exciting_scenario()
    basis = build_basis(KernelSpec(beta=1.0), 8, 2)
    cfg = FitConfig(gamma=1.0, A=5.0, basis=basis)
    zero = FittedModel(mu_hat=np.zeros(3), coeff=np.zeros((3, 24)),
                       basis=basis, config=cfg, T=100.0, U=3)
    s = np.linspace(0.0, 5.0, 2001)
    report = ise_on_grid(s, true_curves(truth, s), zero)
    assert report.delta_sq == pytest.approx(ZERO_MODEL_DELTA_SQ, rel=1e-6)


def test_ise_on_grid_matches_per_pair_loop():
    # asymmetric coefficients and truth, so a transposed block order shows
    rng = np.random.default_rng(8)
    basis = build_basis(KernelSpec(beta=1.0), 16, 4)
    cfg = FitConfig(gamma=1.0, A=5.0, basis=basis)
    model = FittedModel(mu_hat=np.zeros(3), coeff=rng.standard_normal((3, 48)) * 0.1,
                        basis=basis, config=cfg, T=100.0, U=3)
    s = np.linspace(0.0, 5.0, 401)
    truth = rng.standard_normal((3, 3, 1)) * np.exp(-s)
    report = ise_on_grid(s, truth, model)
    want = np.array([[simpson((truth[i, j] - g_curve(model, i + 1, j + 1, s)) ** 2, x=s)
                      for j in range(3)] for i in range(3)])
    assert_allclose(report.per_pair, want, rtol=1e-12, atol=0.0)
    assert report.delta_sq == pytest.approx(want.sum(), rel=1e-12)


def test_ise_on_grid_window_check_is_relative():
    # (0.1 * 3) * 1e6 is 3e5 and one ulp: the same window, which an absolute
    # 1e-12 would reject in this unit; a grid that stops short of A or starts
    # past 0 is refused
    A = (0.1 * 3) * 1e6
    assert A == np.nextafter(3e5, np.inf)
    basis = build_basis(KernelSpec(beta=1.0), 8, 0)
    model = FittedModel(mu_hat=np.zeros(1), coeff=np.zeros((1, 8)), basis=basis,
                        config=FitConfig(gamma=1.0, A=A, basis=basis), T=1e6, U=1)
    s = np.linspace(0.0, 3e5, 101)
    assert ise_on_grid(s, np.zeros((1, 1, s.size)), model).delta_sq == 0.0
    for grid in (0.6 * s, s + 1.0):
        with pytest.raises(ValueError, match="window mismatch"):
            ise_on_grid(grid, np.zeros((1, 1, s.size)), model)

# --- grid search -----------------------------------------------------------------

def dense_scenario():
    kernels = ((exp_decay(0.4, 1.0), exp_decay(0.2, 2.0)),
               (exp_decay(0.1, 1.5), exp_decay(0.3, 1.0)))
    return ScenarioSpec(U=2, mu=(0.4, 0.3), kernels=kernels,
                        link=IdentityLink(), A=5.0, support_lag=25.0)


def sim_events(T=120.0, seed=2):
    return simulate(dense_scenario(), T, seed).events


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((), (1.0,))
    with pytest.raises(ValueError):
        GridSpec((1.0,), (0.0,))
    with pytest.raises(ValueError):
        GridSpec((1.0,), (1.0,), split_fraction=1.0)
    for gammas, betas, bad in (((1.0,), (np.inf, 1.0), "inf"), ((np.nan, 1.0), (1.0,), "nan")):
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            GridSpec(gammas, betas)


def test_grid_search_single_cell():
    events = sim_events()
    grid = GridSpec((0.5,), (1.0,))
    best, cells = grid_search(events, grid, M=16, A=5.0, seed=0)
    assert len(cells) == 1
    assert best is cells[0]
    assert best.gamma == 0.5 and best.beta == 1.0
    assert best.error is None and np.isfinite(best.ls_loss)


def test_grid_search_matches_manual_fit_and_score():
    events = sim_events(seed=6)
    grid = GridSpec((0.5,), (1.0,), split_fraction=0.8)
    best, _ = grid_search(events, grid, M=16, A=5.0, seed=3)
    t_split = 0.8 * events.T
    basis = build_basis(KernelSpec(beta=1.0), 16, 3)
    model = fit(events.restrict(t_split), FitConfig(gamma=0.5, A=5.0, basis=basis))
    want = Design(events, basis, 5.0, t_split, events.T).contrast(model.mu_hat, model.coeff)
    assert best.ls_loss == pytest.approx(want, rel=1e-12)


def test_grid_search_deterministic_and_parallel_identical():
    events = sim_events(seed=9)
    grid = GridSpec((0.5, 1.0), (0.5, 1.0))
    best1, cells1 = grid_search(events, grid, M=8, A=5.0, seed=1, workers=1)
    best2, cells2 = grid_search(events, grid, M=8, A=5.0, seed=1, workers=2)
    assert (best1.gamma, best1.beta) == (best2.gamma, best2.beta)
    for a, b in zip(cells1, cells2):
        assert a.ls_loss == b.ls_loss


def test_grid_search_pool_has_one_worker_per_beta_at_most(monkeypatch):
    # a recording stand-in for the pool, so that no process starts
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Pool)
    events = sim_events(seed=9)
    grid_search(events, GridSpec((1.0,), (0.5, 1.0, 1.5)), M=8, A=5.0, seed=1, workers=8)
    assert pools == [3]
    grid_search(events, GridSpec((1.0,), (1.0,)), M=8, A=5.0, seed=1, workers=8)
    assert pools == [3]
    # the seed pool is the same map: one pool for three seeds, draws in seed order
    pools.clear()
    seeds, grid = (2, 3, 4), GridSpec((1.0,), (0.5, 1.0))
    draws = fit_scenario_draws(dense_scenario(), 120.0, seeds, grid, M=8, workers=8)
    assert pools == [3]
    for seed, (report, _, events, _) in zip(seeds, draws, strict=True):
        want = fit_scenario_draw(dense_scenario(), 120.0, seed, grid, M=8)
        assert np.array_equal(events.times, want[2].times)
        assert report.delta_sq == want[0].delta_sq


def test_grid_search_empty_validation_window():
    # all events land before the split point
    times = np.array([1.0, 2.0, 3.0])
    events = EventSequence(times, np.array([1, 1, 1]), 100.0, 1)
    with pytest.raises(ValueError, match="validation window empty"):
        grid_search(events, GridSpec((1.0,), (1.0,)), M=8, A=5.0, seed=0)


def test_grid_search_tie_prefers_stronger_regularization():
    reports = [EvalReport(gamma=0.1, beta=0.5, ls_loss=1.0),
               EvalReport(gamma=1.0, beta=1.5, ls_loss=1.0),
               EvalReport(gamma=1.0, beta=0.5, ls_loss=1.0)]
    best = min(reports, key=lambda r: (r.ls_loss, -r.gamma, -r.beta))
    assert (best.gamma, best.beta) == (1.0, 1.5)


def test_noisy_model_scores_worse_on_validation():
    events = sim_events(T=160.0, seed=12)
    t_split = 0.8 * events.T
    basis = build_basis(KernelSpec(beta=1.0), 16, 1)
    model = fit(events.restrict(t_split), FitConfig(gamma=1.0, A=5.0, basis=basis))
    clean = Design(events, basis, 5.0, t_split, events.T).contrast(model.mu_hat, model.coeff)
    rng = np.random.default_rng(7)
    noisy_coeff = model.coeff + 0.5 * rng.standard_normal(model.coeff.shape)
    noisy = Design(events, basis, 5.0, t_split, events.T).contrast(model.mu_hat, noisy_coeff)
    assert clean < noisy


def test_failed_cell_is_reported_not_fatal(monkeypatch):
    # a numerical failure of one cell's solve is recorded in that cell alone
    original = Design.solve

    def singular_at_one(self, gamma):
        if gamma == 1.0:
            raise FitError(f"not positive definite (gamma={gamma})")
        return original(self, gamma)

    monkeypatch.setattr(Design, "solve", singular_at_one)
    events = sim_events(seed=14)
    best, cells = grid_search(events, GridSpec((0.5, 1.0), (1.0,)), M=8, A=5.0, seed=0)
    assert [(c.gamma, c.error) for c in cells] == [
        (0.5, None), (1.0, "FitError: not positive definite (gamma=1.0)")]
    assert cells[1].ls_loss is None and best is cells[0]
    # when every cell fails the search itself raises
    with pytest.raises(RuntimeError, match=r"^every grid cell failed; first error: FitError: "
                                           r"not positive definite \(gamma=1\.0\)$"):
        grid_search(events, GridSpec((1.0,), (1.0,)), M=8, A=5.0, seed=0)


def test_unusable_training_window_is_an_input_error():
    # bad input leaves the search as a ValueError; no cell records it
    from hawkes_rkhs.evaluation import _search_beta
    events = sim_events(seed=14)
    A, before_first = 0.9 * events.T, events.times[0] / events.T / 2
    for split, A, message in (
            (0.8, A, f"support window A={A} exceeds the horizon T={0.8 * events.T}"),
            (before_first, 5.0, "cannot fit an empty event sequence")):
        t_split = split * events.T
        for run in (lambda: grid_search(events, GridSpec((0.5, 1.0), (1.0,), split), M=8,
                                        A=A, seed=0),
                    lambda: _search_beta(events, (0.5, 1.0), 1.0, 8, A, 0, t_split)):
            with pytest.raises(ValueError, match=f"^{message}$") as exc:
                run()
            assert not isinstance(exc.value, FitError)


def test_grid_cell_programming_error_propagates(monkeypatch):
    # only numerical failures become "error" cells; a bug must raise
    def broken(self, gamma):
        raise TypeError("broken solve")
    monkeypatch.setattr(Design, "solve", broken)
    with pytest.raises(TypeError, match="broken solve"):
        grid_search(sim_events(seed=9), GridSpec((1.0,), (1.0,)), M=8, A=5.0, seed=0)


def test_grid_cell_shape_bug_propagates(monkeypatch):
    # numpy raises ValueError for a shape mismatch: a bug in the beta=1 cells
    # must raise, not turn them into error cells that the beta=0.5 cells outvote
    original = Design.contrast

    def broken_at_beta_one(self, mu, coeff):
        if self.basis.beta == 1.0:
            return original(self, mu, coeff[:, :-1])
        return original(self, mu, coeff)

    monkeypatch.setattr(Design, "contrast", broken_at_beta_one)
    with pytest.raises(ValueError):
        grid_search(sim_events(seed=9), GridSpec((0.1, 1.0), (0.5, 1.0)), M=8, A=5.0, seed=0)


def test_grid_search_builds_two_grams_per_beta(monkeypatch):
    calls = []
    original = estimator.build_xi

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # count every name the Gram build is reachable by
    monkeypatch.setattr(estimator, "build_xi", counting)
    monkeypatch.setattr(evaluation, "build_xi", counting)
    grid = GridSpec((0.5, 1.0), (0.5, 1.0))
    _, cells = grid_search(sim_events(seed=9), grid, M=8, A=5.0, seed=1)
    assert len(calls) == 4
    assert [(c.gamma, c.beta) for c in cells] == [(0.5, 0.5), (0.5, 1.0),
                                                  (1.0, 0.5), (1.0, 1.0)]


def test_scenario_draw_refits_from_the_grid_designs(monkeypatch):
    # the refit solves the chosen beta's summed grid designs: fit on [0, T]
    # up to rounding, with no Gram build of its own
    calls = []
    original = estimator.build_xi

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimator, "build_xi", counting)
    monkeypatch.setattr(evaluation, "build_xi", counting)
    spec, grid = dense_scenario(), GridSpec((0.5, 1.0), (0.5, 1.0))
    report, model, events = fit_scenario_draw(spec, 120.0, 2, grid, M=8)
    assert len(calls) == 2 * len(grid.beta_grid)
    monkeypatch.undo()
    best, _ = grid_search(events, grid, M=8, A=spec.A, seed=2)
    assert (report.gamma, report.beta, report.ls_loss) == (best.gamma, best.beta, best.ls_loss)
    basis = build_basis(KernelSpec(beta=best.beta), 8, 2)
    want = fit(events, FitConfig(gamma=best.gamma, A=spec.A, basis=basis))
    assert (model.config.gamma, model.config.A, model.T, model.U) == (
        want.config.gamma, want.config.A, want.T, want.U)
    assert model.basis.to_dict() == want.basis.to_dict()
    for got, ref in ((model.mu_hat, want.mu_hat), (model.coeff, want.coeff)):
        assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())
    assert report.delta_sq == pytest.approx(ise(spec, want).delta_sq, rel=1e-12, abs=0)


# --- benchmarks -------------------------------------------------------------------

def test_bench_scaling_smoke():
    spec = dense_scenario()
    rows, slopes = bench_scaling(spec, [60.0, 120.0], M=8, reps=1, seed=4)
    assert len(rows) == 2
    assert rows[0]["n_events"] > 0
    assert all(r["xi_build_s"] > 0 for r in rows)
    assert "xi_build_vs_events" in slopes
    with pytest.raises(ValueError):
        bench_scaling(spec, [100.0, 50.0], M=8)


def test_bench_slopes_need_two_points():
    # a log-log slope through one point is not defined (numpy warns and
    # returns a number)
    with pytest.raises(ValueError, match="two horizons"):
        bench_scaling(dense_scenario(), [60.0], M=8)
    events = simulate(dense_scenario(), 30.0, 4).events
    with pytest.raises(ValueError, match="two feature counts"):
        bench_factorization(events, [8])

"""Triggering-kernel and baseline estimation for multivariate Hawkes
processes, with a closed-form penalized least-squares solver built on
quasi-Monte-Carlo Fourier features, an exact thinning simulator, and an
evaluation harness."""

from .events import EventSequence, read_events_csv, write_events_csv
from .features import (
    FeatureBasis,
    KernelSpec,
    WindowIntegralTable,
    build_basis,
    feature_matrix,
    integral_phi_outer,
    integral_phi_range,
)
from .estimator import (
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
from .simulation import (
    ScenarioSpec,
    SimResult,
    SCENARIOS,
    mutually_exciting_scenario,
    refractory_scenario,
    simulate,
    true_curves,
)
from .evaluation import (
    EvalReport,
    GridSpec,
    bench_factorization,
    bench_scaling,
    fit_scenario_draw,
    fit_scenario_draws,
    grid_search,
    ise,
    ise_on_grid,
    ls_contrast,
)

__version__ = "0.1.0"

"""Triggering-kernel and baseline estimation for multivariate Hawkes
processes, with a closed-form penalized least-squares solver built on
quasi-Monte-Carlo Fourier features, an exact thinning simulator, and an
evaluation harness.

Each public name, and each submodule, is imported on first use (PEP 562), so
importing the package loads neither numpy nor scipy.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["EventSequence", "read_events_csv", "write_events_csv"], "events"),
    **dict.fromkeys(["FeatureBasis", "KernelSpec", "WindowIntegralTable", "build_basis",
                     "feature_matrix", "integral_phi_range"], "features"),
    **dict.fromkeys(["Design", "EquivalentKernel", "FitConfig", "FitError", "FittedModel",
                     "build_xi", "fit", "g_curve", "intensity", "phi_tilde"], "estimator"),
    **dict.fromkeys(["ScenarioSpec", "SimResult", "SCENARIOS", "mutually_exciting_scenario",
                     "refractory_scenario", "simulate", "true_curves"], "simulation"),
    **dict.fromkeys(["EvalReport", "GridSpec", "bench_factorization", "bench_scaling",
                     "fit_scenario_draw", "fit_scenario_draws", "grid_search", "ise",
                     "ise_on_grid"], "evaluation"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name == "cli" or name in _EXPORTS.values():  # importing it also binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value

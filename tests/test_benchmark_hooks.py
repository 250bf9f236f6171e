"""The names the benchmark wraps (``perfbench/tracing.py``) must exist, and
its workloads (``perfbench/workloads.py``) must pass their checks.

The tracer skips an owner that has lost its attribute, so a deleted or moved
function would only show as a layer metric that reads 0, and a changed call
that a workload makes would fail only in a benchmark run.  These tests make
both a failure of the package's own suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import hawkes_rkhs
from hawkes_rkhs import cli, estimator, evaluation  # noqa: F401  (cli: a wrapped owner)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# names that evaluation stopped importing before this test was written; the
# tracer still wraps both functions in the module that defines them
GONE = {("features.integral_phi_range", "hawkes_rkhs.evaluation"),
        ("estimator.phi_tilde", "hawkes_rkhs.evaluation")}
HOOKS = [(name, owner, attr) for name, owners, attr, _ in _load_tracing().targets(hawkes_rkhs)
         for owner in owners if (name, owner.__name__) not in GONE]


@pytest.mark.parametrize("name,owner,attr", HOOKS,
                         ids=[f"{name}-{owner.__name__}" for name, owner, _ in HOOKS])
def test_every_wrapped_name_is_defined_on_its_owner(name, owner, attr):
    assert attr in owner.__dict__, f"{name}: {owner!r} has no {attr!r}"


def test_evaluation_calls_the_estimators_build_xi():
    assert evaluation.build_xi is estimator.build_xi


def _load_workloads():
    # workloads.py imports its sibling ``tracing`` by that name, as run.py runs it
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.WORKLOADS


WORKLOADS = _load_workloads()
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_benchmark_checks(name, tmp_path):
    # one iteration as perfbench/run.py makes it: setup, iterate, summarize, check
    wl, ref = WORKLOADS[name], REFERENCES[name]["tiny"]
    st = wl.setup(wl.sizes["tiny"], 1, ref, tmp_path)
    summary = wl.summarize(st, wl.iterate(st))
    assert wl.check(st, summary, ref) == []

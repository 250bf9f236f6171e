"""Spans recorded from outside the package, around its public calls.

``traced(tracer, package)`` replaces the public functions of each module with thin
wrappers that open a span (name, start, end, parent, iteration) around the
original call, and puts every original back when the block ends.  A function
that another module imported by name (``evaluation.build_xi``,
``cli.simulate``, ...) is replaced under each of those names, because the
callers look it up there.  Spans stay in memory; ``layer_metrics`` turns them
into per-iteration layer totals and ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, ITERATION, INFO = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.iteration, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, args, kwargs, describe=None):
        """Run ``fn`` inside a span; ``describe(result, *args, **kwargs)``
        keeps what the layer metrics need, after the span has closed."""
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if describe is not None:
            span[INFO] = describe(result, *args, **kwargs)
        return result

    @contextmanager
    def unit(self, iteration):
        """Root span of one unit of work: set-up, or one iteration."""
        self.iteration = iteration
        try:
            with self.span(f"bench.{iteration}"):
                yield
        finally:
            self.iteration = None

    def dump(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "iteration": s[ITERATION]} for s in self.spans]


def _simulate_info(result, *args, **kwargs):
    return {"events": len(result.events), "proposals": result.n_proposals}


def _csv_info(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _xi_info(result, events, basis, A, lo=0.0, hi=None):
    return {"events": events, "A": A, "lo": lo, "hi": events.T if hi is None else hi}


def _fit_info(model, events, config):
    # program-reported; read as 0 if a later version stops reporting them
    stats = model.stats if isinstance(getattr(model, "stats", None), dict) else {}
    return {"events": events, "A": config.A, "solve_s": stats.get("solve_s", 0.0),
            "condition": stats.get("condition_estimate", 0.0)}


def _grid_info(result, *args, **kwargs):
    _, cells = result
    return {"cells": len(cells), "failed": sum(c.error is not None for c in cells)}


def targets(package):
    """(span name, owners, attribute, describe) for every wrapped public call."""
    sim, ev, feat = package.simulation, package.events, package.features
    est, evl, cli = package.estimator, package.evaluation, package.cli
    return [
        ("simulation.simulate", (sim, evl, cli), "simulate", _simulate_info),
        ("events.write_csv", (ev, cli), "write_events_csv", _csv_info),
        ("cli.write_curves", (sim, cli), "write_curves_csv", None),
        ("cli.simulate", (cli,), "run_simulate", None),
        ("features.build_basis", (feat, evl, cli), "build_basis", None),
        ("features.window_table", (feat.WindowIntegralTable,), "__init__", None),
        ("features.integral_phi_range", (feat, evl), "integral_phi_range", None),
        ("estimator.build_xi", (est, evl), "build_xi", _xi_info),
        ("estimator.fit", (est, evl, cli), "fit", _fit_info),
        ("estimator.phi_tilde", (est, evl), "phi_tilde", None),
        ("evaluation.grid_search", (evl, cli), "grid_search", _grid_info),
        ("evaluation.ls_contrast", (evl,), "ls_contrast", None),
        ("evaluation.ise", (evl, cli), "ise", None),
    ]


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each (owner, attr, value) and restore
    every original when the block ends, also on error."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapper(tracer, name, fn, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, describe)
    return wrapper


@contextmanager
def traced(tracer, package):
    """Wrap every target under each name it is reachable by.  An owner that
    no longer has the attribute is skipped, so the benchmark keeps running
    when a later version of the package drops or moves a function."""
    replacements = []
    for name, owners, attr, describe in targets(package):
        wrappers = {}
        for owner in owners:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = _wrapper(tracer, name, original, describe)
            replacements.append((owner, attr, wrappers[id(original)]))
    with patched(replacements):
        yield tracer


@contextmanager
def capture(owner, attr):
    """Record the return values of ``owner.attr`` while the block runs."""
    original = getattr(owner, attr)
    results = []

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    with patched([(owner, attr, wrapper)]):
        yield results


def window_pairs(times: np.ndarray, A: float) -> int:
    """Ordered event pairs n' < n with 0 <= t_n - t_n' < A."""
    starts = np.searchsorted(times, times - A, side="right")
    return int(np.sum(np.arange(times.size) - starts))


def integrated_pairs(times: np.ndarray, A: float, lo: float, hi: float) -> int:
    """Pair integrals (self pairs included) a Gram over [lo, hi] sums: pairs
    n' <= n with lag below A whose common support meets [lo, hi]."""
    if not lo < hi:
        return 0
    index = np.arange(times.size)
    starts = np.searchsorted(times, times - A, side="right")
    first = np.searchsorted(times, lo - A, side="right")
    counts = index - np.maximum(starts, first) + 1
    return int(np.sum(np.clip(counts, 0, None)[times < hi]))


LAYER_METRICS = {
    "simulation.simulate.calls": "count",
    "simulation.simulate.s": "s",
    "simulation.proposals": "count",
    "simulation.accept_ratio": "ratio",
    "events.write_csv.s": "s",
    "events.csv_bytes": "B",
    "cli.write_curves.s": "s",
    "cli.simulate.self_s": "s",
    "features.build_basis.calls": "count",
    "features.build_basis.s": "s",
    "features.window_table.s": "s",
    "features.integral_phi_range.calls": "count",
    "estimator.build_xi.calls": "count",
    "estimator.build_xi.s": "s",
    "estimator.build_xi.us_per_pair": "us",
    "estimator.fit.calls": "count",
    "estimator.fit.s": "s",
    "estimator.fit.self_s": "s",
    "estimator.phi_tilde.calls": "count",
    "estimator.phi_tilde.s": "s",
    "estimator.solve.s": "s",
    "estimator.condition": "ratio",
    "estimator.n_events": "count",
    "estimator.pairs": "count",
    "evaluation.grid_search.s": "s",
    "evaluation.grid_search.self_s": "s",
    "evaluation.cells": "count",
    "evaluation.cells_failed": "count",
    "evaluation.ls_contrast.calls": "count",
    "evaluation.ls_contrast.s": "s",
    "evaluation.ls_contrast.self_s": "s",
    "evaluation.ise.s": "s",
}


def _unit_metrics(spans, members) -> dict:
    """Layer totals over the spans of one unit (set-up or one iteration)."""
    child_time = {i: 0.0 for i in members}
    for i in members:
        parent = spans[i][PARENT]
        if parent in child_time:
            child_time[parent] += spans[i][END] - spans[i][START]
    by_name: dict[str, list[int]] = {}
    for i in members:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def total(name):
        return float(sum(spans[i][END] - spans[i][START] for i in by_name.get(name, ())))

    def self_time(name):
        return float(sum(spans[i][END] - spans[i][START] - child_time[i]
                         for i in by_name.get(name, ())))

    def info(name):
        return [spans[i][INFO] for i in by_name.get(name, ())]

    sims = info("simulation.simulate")
    proposals = sum(s["proposals"] for s in sims)
    xis = info("estimator.build_xi")
    xi_pairs = sum(integrated_pairs(x["events"].times, x["A"], x["lo"], x["hi"]) for x in xis)
    fits = info("estimator.fit")
    last_fit = fits[-1] if fits else None
    grids = info("evaluation.grid_search")
    return {
        "simulation.simulate.calls": calls("simulation.simulate"),
        "simulation.simulate.s": total("simulation.simulate"),
        "simulation.proposals": float(proposals),
        "simulation.accept_ratio": (sum(s["events"] for s in sims) / proposals
                                    if proposals else 0.0),
        "events.write_csv.s": total("events.write_csv"),
        "events.csv_bytes": float(sum(c["bytes"] for c in info("events.write_csv"))),
        "cli.write_curves.s": total("cli.write_curves"),
        "cli.simulate.self_s": self_time("cli.simulate"),
        "features.build_basis.calls": calls("features.build_basis"),
        "features.build_basis.s": total("features.build_basis"),
        "features.window_table.s": total("features.window_table"),
        "features.integral_phi_range.calls": calls("features.integral_phi_range"),
        "estimator.build_xi.calls": calls("estimator.build_xi"),
        "estimator.build_xi.s": total("estimator.build_xi"),
        "estimator.build_xi.us_per_pair": (1e6 * total("estimator.build_xi") / xi_pairs
                                           if xi_pairs else 0.0),
        "estimator.fit.calls": calls("estimator.fit"),
        "estimator.fit.s": total("estimator.fit"),
        "estimator.fit.self_s": self_time("estimator.fit"),
        "estimator.phi_tilde.calls": calls("estimator.phi_tilde"),
        "estimator.phi_tilde.s": total("estimator.phi_tilde"),
        "estimator.solve.s": float(sum(f["solve_s"] for f in fits)),
        "estimator.condition": float(last_fit["condition"]) if last_fit else 0.0,
        "estimator.n_events": float(len(last_fit["events"])) if last_fit else 0.0,
        "estimator.pairs": (float(window_pairs(last_fit["events"].times, last_fit["A"]))
                            if last_fit else 0.0),
        "evaluation.grid_search.s": total("evaluation.grid_search"),
        "evaluation.grid_search.self_s": self_time("evaluation.grid_search"),
        "evaluation.cells": float(sum(g["cells"] for g in grids)),
        "evaluation.cells_failed": float(sum(g["failed"] for g in grids)),
        "evaluation.ls_contrast.calls": calls("evaluation.ls_contrast"),
        "evaluation.ls_contrast.s": total("evaluation.ls_contrast"),
        "evaluation.ls_contrast.self_s": self_time("evaluation.ls_contrast"),
        "evaluation.ise.s": total("evaluation.ise"),
    }


def layer_metrics(spans, setup_unit, iteration_units) -> dict:
    """Median over iterations of each layer total.  A layer whose calls all
    happen in set-up (the simulator of the fit workloads, which draw their
    events before the first iteration) is read from the set-up unit."""
    def members(unit):
        return [i for i, s in enumerate(spans) if s[ITERATION] == unit]

    per_iteration = [_unit_metrics(spans, members(u)) for u in iteration_units]
    setup = _unit_metrics(spans, members(setup_unit))
    iteration_layers = {s[NAME].split(".")[0] for s in spans
                        if s[ITERATION] in iteration_units and s[PARENT] is not None}
    out = {}
    for key in LAYER_METRICS:
        if key.split(".")[0] in iteration_layers:
            out[key] = statistics.median(m[key] for m in per_iteration)
        else:
            out[key] = setup[key]
    return out

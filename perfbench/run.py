#!/usr/bin/env python3
"""Benchmark of hawkes-rkhs: end-to-end metrics untraced, per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload draw-mutex --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in its own process with BLAS pinned to one thread.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
input sizes, per-iteration times, spans) goes to ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads, as tests/conftest.py does for the test suite
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("draw-mutex", "fit-ms-units", "fit-wide-basis", "simulate-refractory")
# set-up is timed in this process and in fresh processes; setup_s is the median
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_ref": "ref",
    "events_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delta_sq": "1",
}
# per-layer metrics that come from the run rather than from the spans
RUN_METRICS = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "host.ref_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}


def _import_package():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "hawkes_rkhs" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}/hawkes_rkhs; "
                         "run from the root of a hawkes-rkhs checkout")
    sys.path.insert(0, str(SRC))
    import hawkes_rkhs
    if Path(hawkes_rkhs.__file__).resolve().parent != SRC / "hawkes_rkhs":
        raise SystemExit(f"error: imported hawkes_rkhs from {hawkes_rkhs.__file__}, "
                         f"not from {SRC}")
    return hawkes_rkhs


def load_references(name, size):
    with open(HERE / "references.json") as fh:
        return json.load(fh)[name][size]


def _iterations(wl, st, ref, seconds, tracer=None, clock=None):
    """Run timed iterations for about ``seconds`` (at least one): another
    iteration starts while the run would end nearer to ``seconds`` with it
    than without it, so a run of long iterations does not overshoot by one.
    Returns one (seconds, summary, failures) per iteration; the time that
    ``clock``'s reference kernel took inside an iteration is not counted.
    Summaries and checks are made outside the timed region, and a summary
    is None when the iteration raised."""
    import hostclock
    clock = clock or hostclock.HostClock()  # one never entered takes no samples
    runs = []
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start
                       + statistics.median(t for t, _, _ in runs) / 2 < seconds):
        t0, k0 = time.perf_counter(), clock.kernel_s
        try:
            if tracer is None:
                out = wl.iterate(st)
            else:
                with tracer.unit(len(runs)):
                    out = wl.iterate(st)
        except Exception as exc:  # an iteration that raises is a failed operation
            runs.append((time.perf_counter() - t0 - (clock.kernel_s - k0), None,
                         [f"raised {type(exc).__name__}: {exc}"]))
            continue
        elapsed = time.perf_counter() - t0 - (clock.kernel_s - k0)
        summary = wl.summarize(st, out)
        runs.append((elapsed, summary, wl.check(st, summary, ref)))
    return runs


def _coverage(spans):
    """Share of each traced iteration that its direct child spans cover."""
    import tracing
    covered = {}
    for s in spans:
        if s[tracing.PARENT] is not None:
            covered[s[tracing.PARENT]] = (covered.get(s[tracing.PARENT], 0.0)
                                          + s[tracing.END] - s[tracing.START])
    return [covered.get(i, 0.0) / (s[tracing.END] - s[tracing.START])
            for i, s in enumerate(spans)
            if s[tracing.PARENT] is None and isinstance(s[tracing.ITERATION], int)]


def run_workload(name, seed, seconds, trace, size="full", ref=None):
    """Measure one workload in this process; returns (result, record)."""
    package = _import_package()
    import hostclock
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    params = wl.sizes[size]
    ref = load_references(name, size) if ref is None else ref
    workdir = OUT / f"work-{name}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    try:
        if tracer is None:
            st = wl.setup(params, seed, ref, workdir)
        else:
            with tracing.traced(tracer, package), tracer.unit("setup"):
                st = wl.setup(params, seed, ref, workdir)
        setup_s = time.perf_counter() - _T0
        # a traced run splits its time between untraced and traced halves
        with hostclock.HostClock() as clock:
            runs = _iterations(wl, st, ref, seconds / 2 if tracer else seconds,
                               clock=clock)
        unit_s = clock.unit_s()
        if tracer is not None:
            with tracing.traced(tracer, package):
                traced_runs = _iterations(wl, st, ref, seconds / 2, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for t, _, _ in runs]
    done = [s for _, s, _ in runs if s is not None]
    first = done[0] if done else None
    record = {"workload": name, "size": size, "seed": seed, "seconds": seconds,
              "trace": int(bool(trace)), "params": params, "iteration_s": times,
              "setup_in_process_s": setup_s,
              "host_ref_s": unit_s, "host_ref_samples": clock.samples,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "sizes": first["sizes"] if first else None,
              "summary": {k: v for k, v in first.items() if k != "sizes"} if first else None}

    wall = statistics.median(times)
    # the refractory workload's iterations draw from a pool of inputs
    n_events = statistics.fmean(s["n_events"] for s in done) if done else 0.0
    metrics = {"wall_s": wall, "events_per_s": n_events / wall,
               "host.ref_ms": 1e3 * unit_s}
    if tracer is None:
        # iteration time over reference time, both summed over the same stretch
        wall_ref = statistics.fmean(times) / unit_s
        metrics.update({
            "wall_ref": wall_ref,
            "events_per_ref": n_events / wall_ref,
            "setup_s": setup_s,
            "peak_rss_mb": record["peak_rss_mb"],
            "delta_sq": float(first["delta_sq"]) if first else 0.0,
        })
        units = END_TO_END
    else:
        # the traced iterations must reproduce the untraced output of the same
        # input exactly (an input the untraced half never ran is left to the
        # reference checks)
        untraced = {s.get("input"): s for s in done}
        traced_runs = [(t, s, f + ([] if s is None or untraced.get(s.get("input"), s) == s
                                   else ["traced output differs from untraced"]))
                       for t, s, f in traced_runs]
        metrics.update(tracing.layer_metrics(tracer.spans, "setup",
                                             list(range(len(traced_runs)))))
        traced_times = [t for t, _, _ in traced_runs]
        metrics["trace.overhead_ratio"] = statistics.median(traced_times) / wall - 1.0
        runs = runs + traced_runs
        metrics["fail_ratio"] = sum(1 for _, _, f in runs if f) / len(runs)
        units = dict(tracing.LAYER_METRICS, **RUN_METRICS)
        record["traced_iteration_s"] = traced_times
        record["span_coverage"] = _coverage(tracer.spans)
        record["spans"] = tracer.dump()

    record["failures"] = [f"iteration {k}: {msg}" for k, (_, _, f) in enumerate(runs)
                          for msg in f]
    failed = sum(1 for _, _, f in runs if f)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    return result, record


def _environment():
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"git_rev": rev, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas_version(numpy), "openblas_scipy": blas_version(scipy),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _child(args, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def _setup_samples(args, first):
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = _child(args, "--setup-only")
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up sample failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _print_metrics(result):
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")


def _run_all(args):
    """Every workload, each in its own process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        args.workload = name
        proc = _child(args)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"error: workload {name} printed no result")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure iterations for this long (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the workloads small, for the self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        _import_package()
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        workdir = OUT / f"work-{args.workload}-{os.getpid()}"
        try:
            wl.setup(wl.sizes[args.size], args.seed,
                     load_references(args.workload, args.size), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(time.perf_counter() - _T0))
        return 0

    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  args.size)
    if not args.trace:
        samples = _setup_samples(args, result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        record["setup_samples_s"] = samples
    record["environment"] = _environment()
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {result['attempted']} iterations, "
          f"sizes {record['sizes']}")
    for failure in record["failures"]:
        print(f"# CHECK FAILED: {failure}")
    _print_metrics(result)
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# record -> {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

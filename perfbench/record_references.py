#!/usr/bin/env python3
"""Record the reference values the benchmark checks, from the source tree of
the checkout it runs in:

    python3 perfbench/record_references.py

It runs every workload once at each size and writes
perfbench/references.json.  Record again only for a change that is meant to
alter results, and say so where the change is described.
"""

import json
import shutil
import sys

import run  # pins BLAS to one thread before numpy loads

# Refractory simulation seeds among 0-299 whose event and proposal counts at
# T=2000 both lie within 1% of their medians over those 300 seeds (1668
# events, 4031 proposals), so that runs on different benchmark seeds do the
# same amount of work.
REFRACTORY_POOL = (175, 225, 252)


def record(size):
    run._import_package()
    import workloads

    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        params = wl.sizes[size]
        workdir = run.OUT / f"record-{name}"
        if name == "simulate-refractory":
            ref = {"pool": list(REFRACTORY_POOL), "events_sha256": {}, "n_events": {}}
            for k, seed in enumerate(REFRACTORY_POOL):
                st = wl.setup(params, k, ref, workdir)
                summary = wl.summarize(st, wl.iterate(st))
                ref["events_sha256"][str(seed)] = summary["events_sha256"]
                ref["n_events"][str(seed)] = summary["n_events"]
                ref["curves_sha256"] = summary["curves_sha256"]
        else:
            st = wl.setup(params, 0, {}, workdir)
            summary = wl.summarize(st, wl.iterate(st))
            keep = {
                "draw-mutex": ("chosen", "n_events", "delta_sq"),
                "fit-ms-units": ("n_events",),
                "fit-wide-basis": ("n_events", "mu_hat", "coeff_norm",
                                   "coeff_projections"),
            }[name]
            ref = {k: summary[k] for k in keep}
        shutil.rmtree(workdir, ignore_errors=True)
        refs[name] = ref
        print(f"{size} {name}: recorded", file=sys.stderr)
    return refs


def main():
    refs = {"full": record("full"), "tiny": record("tiny")}
    doc = {name: {size: refs[size][name] for size in refs} for name in refs["full"]}
    path = run.HERE / "references.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"references -> {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()

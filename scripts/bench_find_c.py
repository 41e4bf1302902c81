#!/usr/bin/env python3
"""Per-subset `find_c` results, nu evaluations and seconds on one input.

    python3 scripts/bench_find_c.py [--src DIR] [--max-size K]
                                    [--method auto|exact] CSV

For every variable subset of 1 to K variables of the CSV (default: all of
them), with the empirical model, `find_c` runs at LEVEL (0.9, the level the
threshold layer uses at the default alpha 0.05) on the subset's product
table. One JSON line per
subset gives c, gamma as `float.hex`, the number of nu evaluations
(`coverage_probability` calls), how many of them took each path
(`exact_nu`, exact convolutions; `edgeworth_nu`, Edgeworth approximations;
a nu with a trivial answer, 0 or 1, takes neither) and the find_c wall
seconds; where method `exact` refuses, the line has `"refused": true`
instead. A last line sums the subsets, refusals, nu evaluations by path and
seconds. The cyclic collector is off,
as in `sono score`. `--src` names the source tree to import `sono` from
(default: this checkout's `src`), so two trees can be compared on one input:
the lines without `find_c_s` must then be equal.

`--write-workload NAME` first writes CSV as the perfbench latent-class input
NAME at seed 1: a perfbench workload, or one of the wider shapes in
EXTRA_SHAPES.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
from workloads import WORKLOADS, Workload, write_csv  # noqa: E402

LEVEL = 0.9

# The Table-1 shapes at full width, too slow for a perfbench invocation but
# the deep inputs of find_c measurements: 1389x10 solar flare, 148x18
# lymphography, 383x15 thyroid, 132x17 primary tumor and 520x15 diabetes.
# The level vectors are assumed (the raw UCI files are not used here); each
# shape has its own fixed profile seed.
EXTRA_SHAPES = {w.name: w for w in (
    Workload("flare10", 1389, (7, 6, 4, 2, 3, 3, 2, 2, 2, 2), "infrequent", False,
             3, 0.03, 1001),
    Workload("lymph", 148, (4, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 8, 3, 2, 2, 8),
             "infrequent", False, 3, 0.03, 1006),
    Workload("thyroid15", 383, (2, 2, 2, 2, 5, 5, 6, 4, 2, 3, 7, 3, 2, 5, 4),
             "infrequent", False, 3, 0.03, 1007),
    Workload("tumor17", 132, (3, 2, 3, 3) + (2,) * 13, "infrequent", False,
             3, 0.03, 1008),
    Workload("diabetes15", 520, (2,) * 15, "infrequent", False, 3, 0.03, 1009),
)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"))
    parser.add_argument("--max-size", type=int, default=None)
    parser.add_argument("--method", choices=("auto", "exact"), default="auto")
    parser.add_argument("--write-workload", dest="workload",
                        choices=sorted({**WORKLOADS, **EXTRA_SHAPES}))
    args = parser.parse_args()
    if args.workload:
        write_csv({**WORKLOADS, **EXTRA_SHAPES}[args.workload], 1, args.csv)
    sys.path.insert(0, os.path.abspath(args.src))
    from sono import simci
    from sono.data import empirical_model, read_csv, subset_cell_probs
    from sono.errors import OracleRefusal

    # nu evaluations and the path each took; find_c and coverage_probability
    # look these functions up in their module
    counts = dict.fromkeys(("nu_calls", "exact_nu", "edgeworth_nu"), 0)
    for name, key in (("coverage_probability", "nu_calls"),
                      ("_coverage_convolution", "exact_nu"),
                      ("_coverage_edgeworth", "edgeworth_nu")):
        def counted(*a, _run=getattr(simci, name), _key=key, **kw):
            counts[_key] += 1
            return _run(*a, **kw)

        setattr(simci, name, counted)
    ds = read_csv(args.csv)
    model = empirical_model(ds)
    max_size = ds.p if args.max_size is None else min(args.max_size, ds.p)
    simci.find_c(simci.CellSpec(probs=[0.5, 0.5], n=10), LEVEL, args.method)  # load SciPy

    gc.disable()
    total = {"subsets": 0, "refused": 0, "nu_calls": 0, "exact_nu": 0, "edgeworth_nu": 0,
             "find_c_s": 0.0}
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(ds.p), size):
            spec = simci.CellSpec(probs=subset_cell_probs(model, subset), n=ds.n)
            counts.update(dict.fromkeys(counts, 0))
            t0 = time.perf_counter()
            try:
                c, gamma = simci.find_c(spec, LEVEL, args.method)
                line = {"subset": list(subset), "c": c, "gamma": float(gamma).hex()}
            except OracleRefusal:
                line = {"subset": list(subset), "refused": True}
                total["refused"] += 1
            wall = time.perf_counter() - t0
            line.update(counts, find_c_s=round(wall, 6))
            print(json.dumps(line))
            total["subsets"] += 1
            for key, count in counts.items():
                total[key] += count
            total["find_c_s"] += wall
    total["find_c_s"] = round(total["find_c_s"], 4)
    print(json.dumps({"file": os.path.basename(args.csv), "method": args.method,
                      "level": LEVEL, "max_size": max_size, **total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Monte Carlo coverage of the simultaneous intervals across table shapes.

For each (k, n) pair the two-sided intervals are built at the requested
alpha and the simultaneous coverage (all empirical proportions inside) is
estimated from simulated multinomials by sono.oracle.simulated_coverage, the
routine behind `sono verify --suite coverage`, which also gives the exact
coverage of the same count bounds. Useful for eyeballing how far the discrete
bracketing pushes coverage off the nominal level.
"""
import argparse
import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from sono import CellSpec
from sono.cli import _int_at_least
from sono.oracle import simulated_coverage


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--sims", type=_int_at_least(1), default=10_000)
    parser.add_argument("--seed", type=_int_at_least(0), default=20240901)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'k':>3} {'n':>5} {'c':>4} {'gamma':>7} {'MC coverage':>12} {'exact':>9}")
    for k in (3, 5, 7, 10):
        for n in (50, 100, 200):
            spec = CellSpec(probs=np.full(k, 1.0 / k), n=n)
            ci, rate, exact = simulated_coverage(spec, args.alpha, args.sims, rng)
            print(f"{k:>3} {n:>5} {ci.c:>4} {ci.gamma:>7.3f} {rate:>12.4f} {exact:>9.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

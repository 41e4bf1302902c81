#!/usr/bin/env python3
"""Run the five UCI golden experiments end to end.

Applies each documented cleaning recipe to raw files in --raw, scores the
cleaned data (infrequent mode, alpha=0.05, r=2, empirical probabilities),
writes per-dataset artifacts under --out, and compares the chosen search
depth and nonzero-score counts with the published values. Exits nonzero on
any mismatch.

Raw files are not downloaded; `sono prepare --list` prints the source URLs.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sono import RunConfig, empirical_model, read_csv, run_analysis
from sono.plots import score_depth_scatter_svg
from sono.prepare import RECIPES, TABLE1, prepare_dataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--raw", required=True, help="directory with raw UCI files")
    parser.add_argument("--out", default="uci-results", help="output directory")
    parser.add_argument("--datasets", nargs="*", default=sorted(TABLE1),
                        choices=sorted(TABLE1))
    args = parser.parse_args()

    failures = 0
    rows = []
    for name in args.datasets:
        out_dir = os.path.join(args.out, name)
        os.makedirs(out_dir, exist_ok=True)
        cleaned = os.path.join(out_dir, "cleaned.csv")
        shape = prepare_dataset(name, args.raw, cleaned)
        ds = read_csv(cleaned)
        model = empirical_model(ds)
        t0 = time.perf_counter()
        report, info, _ = run_analysis(ds, model, RunConfig(
            mode="infrequent", alpha=0.05, r=2.0, prune=True))
        elapsed = time.perf_counter() - t0
        nonzero = int((report.scores > 0).sum())
        score_depth_scatter_svg(report.depths, report.scores,
                                os.path.join(out_dir, "score_vs_depth.svg"))
        want_maxlen, want_nonzero = TABLE1[name]
        want_n = RECIPES[name].expected_shape[0]
        ok = (shape[0] == want_n and info.maxlen == want_maxlen
              and abs(nonzero - want_nonzero) <= 2)
        failures += 0 if ok else 1
        rows.append((name, shape, info.maxlen, want_maxlen, nonzero,
                     want_nonzero, elapsed, "ok" if ok else "MISMATCH"))
        print(f"{name}: shape {shape}, maxlen {info.maxlen} "
              f"(want {want_maxlen}), nonzero {nonzero} (want {want_nonzero}"
              f" +-2), {elapsed:.0f}s -> {'ok' if ok else 'MISMATCH'}")

    print()
    print(f"{'dataset':<14} {'shape':<12} {'maxlen':<12} {'nonzero':<16} time")
    for name, shape, ml, wml, nz, wnz, el, status in rows:
        print(f"{name:<14} {str(shape):<12} {f'{ml} (want {wml})':<12} "
              f"{f'{nz} (want {wnz})':<16} {el:.0f}s  {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

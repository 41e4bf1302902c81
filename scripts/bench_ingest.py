#!/usr/bin/env python3
"""In-process timing and allocation peak of `sono.read_csv`.

    python3 scripts/bench_ingest.py [--src DIR] [--repeats N] CSV [CSV ...]

Each file is read `--repeats` times (default 21) in this process with the
cyclic collector off, as `sono score` reads it; one JSON line per file gives
the median and minimum wall seconds and, for one more, traced read, the
tracemalloc peak and the size still allocated after it with the `Dataset`
alive (`retained_mib`), in MiB. `--src` names the source tree to import
`sono` from (default: this checkout's `src`), so two trees can be compared on
one input.

`--write-distinct PATH` first writes the all-distinct input: 30000 rows of 7
variables with 12 levels each, every row different, drawn with `--seed`.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))


def write_distinct(path: str, seed: int, rows: int = 30000, p: int = 7,
                   levels: int = 12) -> None:
    """`rows` different rows of `p` variables with `levels` levels each."""
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"X{j + 1}" for j in range(p)) + "\n")
        while len(seen) < rows:
            row = tuple(rng.randrange(levels) for _ in range(p))
            if row not in seen:
                seen.add(row)
                fh.write(",".join(f"v{j + 1}l{c + 1}" for j, c in enumerate(row)) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", nargs="*")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"))
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--write-distinct", dest="write_distinct")
    parser.add_argument("--seed", type=int, default=20261018)
    args = parser.parse_args()
    if args.write_distinct:
        write_distinct(args.write_distinct, args.seed)
    sys.path.insert(0, os.path.abspath(args.src))
    from sono import read_csv

    gc.disable()
    for path in args.csv:
        walls = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            read_csv(path)
            walls.append(time.perf_counter() - t0)
        tracemalloc.start()
        ds = read_csv(path)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del ds
        print(json.dumps({"file": os.path.basename(path),
                          "median_s": round(statistics.median(walls), 6),
                          "min_s": round(min(walls), 6),
                          "tracemalloc_peak_mib": round(peak / 2 ** 20, 3),
                          "retained_mib": round(retained / 2 ** 20, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record or check what `sono score` writes on the Table-1 shapes.

Each shape is one of EXTRA_SHAPES in bench_find_c.py (the assumed-profile
stand-ins for the UCI corpora), written by perfbench's write_csv at data
seed 1 and scored in-process through `sono.cli.main` in both modes, at the
automatic maxlen and r = 2, with no threshold cache. A run is kept as its
maxlen, violating subset, c_by_size and the SHA-256 of scores.csv and
contributions.csv, so that a change to any threshold, flag or score shows.

    python3 scripts/table1_golden.py --write tests/golden_table1.json
    python3 scripts/table1_golden.py tests/golden_table1.json flare10

The first records every shape of SHAPES; the second checks the named ones
against the file and exits 1 on a difference.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_find_c import EXTRA_SHAPES, write_csv  # noqa: E402

SHAPES = ("thyroid15", "lymph", "tumor17", "flare10")
MODES = ("infrequent", "frequent")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def score_shape(name: str, workdir: str) -> dict:
    """{mode: run} for one shape, scored in `workdir`; the caller keeps
    SONO_CACHE_DIR unset, so every table is computed."""
    from sono.cli import main
    path = os.path.join(workdir, f"{name}.csv")
    write_csv(EXTRA_SHAPES[name], 1, path)
    runs = {}
    for mode in MODES:
        out = os.path.join(workdir, f"{name}-{mode}")
        status = main(["score", "--input", path, "--out", out, "--mode", mode, "--r", "2"])
        if status != 0:
            raise RuntimeError(f"sono score on {name}, {mode} mode, exited {status}")
        with open(os.path.join(out, "run.json")) as fh:
            run = json.load(fh)
        runs[mode] = {"maxlen": run["maxlen"]["value"],
                      "violating_subset": run["maxlen"]["violating_subset"],
                      "c_by_size": run["thresholds"]["c_by_size"],
                      "scores_sha256": _sha256(os.path.join(out, "scores.csv")),
                      "contributions_sha256": _sha256(os.path.join(out, "contributions.csv"))}
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("golden", help="the JSON file of recorded runs")
    parser.add_argument("shapes", nargs="*", help=f"shapes to check, of {', '.join(SHAPES)} "
                        "(default: all)")
    parser.add_argument("--write", action="store_true",
                        help="record every shape into the file instead of checking")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"))
    args = parser.parse_args()
    unknown = set(args.shapes) - set(SHAPES)
    if unknown:
        parser.error(f"unknown shapes {sorted(unknown)}")
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ.pop("SONO_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as workdir:
        if args.write:
            doc = {name: score_shape(name, workdir) for name in SHAPES}
            with open(args.golden, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            return 0
        with open(args.golden) as fh:
            doc = json.load(fh)
        failed = [name for name in args.shapes or SHAPES
                  if score_shape(name, workdir) != doc[name]]
    print(json.dumps({"checked": args.shapes or list(SHAPES), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: score, verify and prepare subcommands.

A `sono score` process loads only the scoring path: the audit suites, the UCI
recipes and the SVG writer are imported by the subcommand or output format
that uses them. Commands run with the cyclic garbage collector off (scoring
allocates no reference cycles), and the interpreter's final collection skips
the objects alive at exit.

Importing this module sets OPENBLAS_NUM_THREADS to 1 before NumPy loads,
unless the caller set it to a non-empty value: the OpenBLAS builds in NumPy
and SciPy each start a worker pool when loaded, and sono's only BLAS calls are
short dot products. `import sono` alone loads no NumPy and sets nothing.
"""
from __future__ import annotations

import argparse
import atexit
import csv
import gc
import json
import os
import sys
import time
from dataclasses import asdict, fields

# OpenBLAS reads an empty value as unset, so setdefault would not do.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .config import RunConfig, load_config_file, merge_config
from .data import empirical_model, read_csv, user_model
from .engine import run_analysis
from .errors import (CISearchFailure, DomainError, EmptyDatasetError,
                     IngestionError, SonoError, TableExplosion)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_INGESTION = 2
EXIT_THRESHOLD = 3
EXIT_OUTPUT = 4


def _int_at_least(lowest: int):
    """An argparse type: an integer >= lowest, so no suite checks nothing."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sono",
        description="Score nominal outlyingness of categorical data.")
    parser.add_argument("--version", action="version", version=f"sono {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("score", help="score a CSV of nominal variables")
    ps.add_argument("--input", help="input CSV path")
    ps.add_argument("--config", help="flat JSON config file (or a previous run.json)")
    ps.add_argument("--mode", choices=("infrequent", "frequent"))
    ps.add_argument("--alpha", type=float)
    ps.add_argument("--r", type=float, dest="r")
    ps.add_argument("--no-prune", action="store_const", const=False, dest="prune",
                    default=None, help="flag every itemset meeting its threshold")
    ps.add_argument("--max-len", type=int, dest="max_len",
                    help="cap the search depth, skipping the depth rule")
    ps.add_argument("--probs", help="JSON file of per-variable level probabilities")
    ps.add_argument("--out", help="output directory")
    ps.add_argument("--format", help="comma list from csv,json,svg")
    ps.add_argument("--drop-cols", dest="drop_cols", help="comma list of columns to drop")
    ps.add_argument("--missing", metavar="{drop,level}")
    ps.add_argument("--oracle-nu", action="store_const", const=True, dest="oracle_nu",
                    default=None, help="use exact-convolution coverage everywhere")
    ps.add_argument("--delimiter")
    ps.add_argument("--no-header", action="store_const", const=False, dest="header",
                    default=None)
    ps.add_argument("--missing-markers", dest="missing_markers",
                    help="comma list of missing-value markers")
    ps.add_argument("--level-order", dest="level_order", metavar="{first,lexicographic}")
    ps.add_argument("--maxlen-rule", dest="maxlen_rule",
                    choices=("any-cell", "all-cells"))
    ps.add_argument("--max-cells", dest="max_cells", type=float)

    pv = sub.add_parser("verify", help="run the reference-oracle audit suites")
    pv.add_argument("--seed", type=_int_at_least(0), default=20240901,
                    help="seed of the coverage simulation and the walker datasets")
    pv.add_argument("--datasets", type=_int_at_least(1), default=12,
                    help="random datasets for the walker suite (>= 1)")
    pv.add_argument("--p-max", type=_int_at_least(2), default=60,
                    help="largest p for the proposition sweep (>= 2)")
    pv.add_argument("--suite", action="append",
                    choices=("nu", "coverage", "propositions", "walker"),
                    help="run only the named suites (repeatable)")

    pp = sub.add_parser("prepare", help="apply a documented UCI cleaning recipe")
    pp.add_argument("dataset", nargs="?", help="recipe name, as listed by --list")
    pp.add_argument("--raw", help="directory holding the raw UCI files")
    pp.add_argument("--out", help="cleaned CSV output path")
    pp.add_argument("--list", action="store_true", help="list recipes and URLs")
    return parser


def _cli_overrides(args: argparse.Namespace) -> dict:
    names = (f.name for f in fields(RunConfig))
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _write_rows_csv(path: str, names, rows, group: np.ndarray) -> None:
    """A 1-based "row" column plus float columns as reprs. Only the header,
    whose names may need quoting, goes through `csv`; rows end in its CRLF.

    `rows` holds one sequence of floats per distinct row; observation i
    gets the line of distinct row group[i], formatted once."""
    lines = [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["row", *names])
        fh.writelines(f"{i},{lines[g]}\r\n" for i, g in enumerate(group.tolist(), start=1))


def cmd_score(args: argparse.Namespace) -> int:
    file_values = load_config_file(args.config) if args.config else None
    cfg = merge_config(RunConfig(), file_values, _cli_overrides(args))
    if not cfg.input:
        raise IngestionError("no --input file given")
    cfg.validate()  # the checks that need no data, before --out is made
    mapping = None  # the probability file's, checked against the data in user_model
    if cfg.probs:
        try:
            with open(cfg.probs) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise IngestionError(f"cannot read probability file: {exc}") from exc
        if not isinstance(doc, dict):
            raise IngestionError("bad probability file: it must hold a JSON object")
        mapping = {
            var: (dict((k, v) for entry in spec for k, v in entry.items())
                  if isinstance(spec, list) and all(isinstance(e, dict) for e in spec)
                  else spec)
            for var, spec in doc.items()
        }
    try:  # before the input is read, so a bad --out costs no search
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    t_start = time.perf_counter()
    try:
        ds = read_csv(cfg.input, cfg)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"cannot read input file: {exc}") from exc
    t_read = time.perf_counter()
    if ds.dropped_rows:
        print(f"dropped {ds.dropped_rows} rows with missing values", file=sys.stderr)
    if mapping:
        try:
            ds, model = user_model(ds, mapping)
        except DomainError as exc:
            raise IngestionError(f"bad probability file: {exc}") from exc
        print(f"probabilities for {sorted(mapping)} taken from {cfg.probs}; "
              "other variables empirical", file=sys.stderr)
    else:
        if mapping is not None:
            print("empty probability file; using the empirical model", file=sys.stderr)
        model = empirical_model(ds)
    t_model = time.perf_counter()

    # Only the SVG reads the per-observation arrays; everything else here
    # works on the report's distinct rows.
    report, info, _ = run_analysis(ds, model, cfg)
    scores, group = report.distinct_scores, report.group
    nonzero = int(ds.weight[scores > 0].sum())
    print(f"n={ds.n} p={ds.p} maxlen={info.maxlen} (rule {info.maxlen_rule}) "
          f"nonzero scores {nonzero}/{ds.n} "
          f"in {info.runtime_s:.1f}s", file=sys.stderr)

    try:
        t_write = time.perf_counter()
        if "csv" in cfg.format:
            _write_rows_csv(os.path.join(cfg.out, "scores.csv"), ["score", "depth"],
                            zip(scores.tolist(), report.distinct_depths.tolist()), group)
            _write_rows_csv(os.path.join(cfg.out, "contributions.csv"), ds.variable_names,
                            report.distinct_contributions.tolist(), group)
        if "json" in cfg.format:
            # Timings and table counts go under "results", next to runtime_s,
            # so every block but "config" and "results" is the same on each run
            # of an input (a warm run serves from the spill file what a cold
            # one computed).
            # write_s covers the CSV files, written before run.json and the SVG.
            timings = {"read_s": t_read - t_start, "model_s": t_model - t_read,
                       **info.timings, "write_s": time.perf_counter() - t_write}
            run_doc = {
                "config": cfg.to_flat_dict(),
                "dataset": {
                    "n": ds.n, "p": ds.p,
                    "variables": list(ds.variable_names),
                    "level_counts": list(ds.level_counts),
                    "dropped_rows": ds.dropped_rows,
                },
                "maxlen": {
                    "value": info.maxlen,
                    "rule": info.maxlen_rule,
                    "violating_subset": list(info.violating_subset)
                    if info.violating_subset is not None else None,
                },
                "thresholds": {
                    "c_by_size": {str(k): v for k, v in info.c_by_size.items()},
                },
                "instrumentation": asdict(info.stats),
                "diagnostics": {"saturated_tables": info.saturated_tables},
                "results": {
                    "nonzero_scores": nonzero,
                    "max_score": float(scores.max()),
                    "runtime_s": info.runtime_s,
                    "timings": timings,
                    "tables": info.tables,
                },
            }
            with open(os.path.join(cfg.out, "run.json"), "w") as fh:
                json.dump(run_doc, fh, indent=2)
        if "svg" in cfg.format:
            from .plots import score_depth_scatter_svg
            score_depth_scatter_svg(
                report.depths, report.scores,
                os.path.join(cfg.out, "score_vs_depth.svg"))
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verify
    status, text = run_verify(n_datasets=args.datasets, seed=args.seed,
                              p_max=args.p_max,
                              suites=tuple(args.suite) if args.suite else None)
    print(text)
    return status


def cmd_prepare(args: argparse.Namespace) -> int:
    from .prepare import RECIPES, prepare_dataset
    if args.list or not args.dataset:
        for name in sorted(RECIPES):
            recipe = RECIPES[name]
            shape = recipe.expected_shape
            print(f"{name}: files {', '.join(recipe.files)} -> "
                  f"{shape[0]}x{shape[1]}  ({recipe.url})")
        return EXIT_OK
    if not args.raw or not args.out:
        raise IngestionError("prepare needs --raw DIR and --out FILE")
    shape = prepare_dataset(args.dataset, args.raw, args.out)
    print(f"{args.dataset}: wrote {shape[0]}x{shape[1]} to {args.out}")
    return EXIT_OK


_exit_freeze_registered = False


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic collector off, then restore the
    caller's collector state."""
    global _exit_freeze_registered
    if not _exit_freeze_registered:
        atexit.register(gc.freeze)
        _exit_freeze_registered = True
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "score":
            return cmd_score(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_prepare(args)
    except (IngestionError, EmptyDatasetError, FileNotFoundError) as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except (CISearchFailure, TableExplosion) as exc:
        print(f"threshold error: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (DomainError, SonoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())

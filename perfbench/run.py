"""End-to-end and per-layer benchmark of `sono score`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/`.
Each timed unit is one fresh `sono score --input CSV --out DIR --mode M`
process, run one after another from this process (a closed loop with a single
client). Every invocation's outputs are checked; a failed check counts as a
failed operation. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (from perfbench/tracer.py) with `--trace 1`.

`--record-golden` (with the default `--seed 1`) rewrites the workload's entry
in perfbench/golden.json from the current program instead of checking it.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS, Workload, write_csv  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 1
# Scores, depths, contributions and gamma may differ from the golden values by
# this relative amount, so that a reordered floating-point summation still
# passes; counts, c values and maxlen must match exactly.
REL_TOL = 1e-9
SAMPLE_ROWS = 16
BUCKETS = 16
MIN_INVOCATIONS = 3
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# The speed of a shared host drifts by a fifth and more within minutes. The
# median set-up and invocation wall times are each scaled by PROBE_REFERENCE_S
# over the median time a fixed loop takes around them: PROBE_REPEATS times
# before the first and after every set-up, and before the first and after
# every invocation. This reports them at a fixed host speed; a median over the whole
# phase averages out the noise of single probes. PROBE_REFERENCE_S is the
# loop's median time on a 2-vCPU Xeon VM, where scaled and raw times agree on
# average.
PROBE_ITERATIONS = 500_000
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.04
# Every run ends within this many seconds, hung children included.
RUN_DEADLINE_S = 170.0
# Launches the program exactly as its `sono` console script does.
SONO = ["-c", "import sys; from sono.cli import main; sys.exit(main())"]
TRACER = os.path.join(HERE, "tracer.py")
CANARIES = {"infrequent": "tiny", "frequent": "tiny-frequent"}

END_TO_END_UNITS = {"score_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
                    "success_rate": "fraction"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "data.read_csv_s": "s",
    "thresholds.determine_maxlen_s": "s",
    "thresholds.provider_get_calls": "count",
    "thresholds.subset_thresholds_calls": "count",
    "thresholds.subset_thresholds_s": "s",
    "thresholds.provider_hit_ratio": "ratio",
    "simci.find_c_calls": "count",
    "simci.find_c_s": "s",
    "simci.nu_calls": "count",
    "simci.nu_s": "s",
    "simci.nu_per_find_c": "ratio",
    "lattice.search_self_s": "s",
    "lattice.subset_codes_s": "s",
    "lattice.subsets_materialized": "count",
    "lattice.cells_tested": "count",
    "lattice.cells_flagged": "count",
    "scoring.build_report_s": "s",
    "engine.run_analysis_self_s": "s",
    "cli.cmd_score_self_s": "s",
    "trace.invocation_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def all_close(a, b) -> bool:
    return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------- checking


def read_outputs(out_dir: str, n: int, p: int) -> dict:
    """Stream scores.csv and contributions.csv into a small fingerprint.

    Raises ValueError when the files are malformed or a contribution row does
    not sum to its score.
    """
    h = hashlib.sha256()
    score_buckets = [0.0] * BUCKETS
    depth_buckets = [0.0] * BUCKETS
    contrib_sums = [0.0] * p
    samples = {}
    step = max(1, n // SAMPLE_ROWS)
    nonzero, max_score, rows = 0, -math.inf, 0
    with open(os.path.join(out_dir, "scores.csv"), "rb") as fs, \
            open(os.path.join(out_dir, "contributions.csv"), "rb") as fc:
        for i, (ls, lc) in enumerate(itertools.zip_longest(fs, fc)):
            if ls is None or lc is None:
                raise ValueError("scores.csv and contributions.csv differ in length")
            h.update(ls)
            h.update(lc)
            if i == 0:
                continue
            s_fields, c_fields = ls.split(b","), lc.split(b",")
            if len(s_fields) != 3 or len(c_fields) != p + 1 \
                    or int(s_fields[0]) != i or int(c_fields[0]) != i:
                raise ValueError(f"malformed output row {i}")
            score, depth = float(s_fields[1]), float(s_fields[2])
            contrib = [float(v) for v in c_fields[1:]]
            if not close(math.fsum(contrib), score):
                raise ValueError(f"row {i}: contributions do not sum to the score")
            rows += 1
            score_buckets[i % BUCKETS] += score
            depth_buckets[i % BUCKETS] += depth
            for j, v in enumerate(contrib):
                contrib_sums[j] += v
            nonzero += score > 0
            max_score = max(max_score, score)
            if (i - 1) % step == 0:
                samples[str(i)] = [score, depth, *contrib]
    if rows != n:
        raise ValueError(f"{rows} output rows, expected {n}")
    return {"digest": h.hexdigest(), "nonzero": nonzero, "max_score": max_score,
            "score_buckets": score_buckets, "depth_buckets": depth_buckets,
            "contrib_sums": contrib_sums, "samples": samples}


def check_invocation(w: Workload, out_dir: str, golden: dict | None) -> dict:
    """Check one invocation's outputs: {"ok", "why"} plus, when they could be
    read, "digest", "run" (run.json) and "fingerprint"."""
    p = len(w.levels)
    try:
        with open(os.path.join(out_dir, "run.json")) as fh:
            run = json.load(fh)
        fp = read_outputs(out_dir, w.rows, p)
        ds, inst, res = run["dataset"], run["instrumentation"], run["results"]
        problems = []
        if (ds["n"], ds["p"], ds["level_counts"]) != (w.rows, p, list(w.levels)):
            problems.append("dataset shape")
        if inst["cells_flagged"] <= 0:
            problems.append("no cell flagged")
        if res["nonzero_scores"] != fp["nonzero"] \
                or not close(res["max_score"], fp["max_score"]):
            problems.append("run.json results disagree with scores.csv")
        if not 1 <= run["maxlen"]["value"] <= p:
            problems.append("maxlen out of range")
        if golden is not None:
            problems += compare_golden(run, fp, golden)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"ok": False, "why": f"outputs: {exc!r}"}
    # Everything but timings and paths must be bit-identical across a run.
    stable = {k: v for k, v in run.items() if k not in ("config", "results")}
    stable["nonzero"] = res["nonzero_scores"]
    digest = hashlib.sha256(
        (fp["digest"] + json.dumps(stable, sort_keys=True)).encode()).hexdigest()
    return {"ok": not problems, "why": "; ".join(problems), "digest": digest,
            "run": run, "fingerprint": fp}


def compare_golden(run: dict, fp: dict, golden: dict) -> list[str]:
    problems = []
    if run["maxlen"] != golden["maxlen"]:
        problems.append("golden maxlen")
    if run["thresholds"]["c_by_size"] != golden["c_by_size"]:
        problems.append("golden c_by_size")
    if run["instrumentation"] != golden["instrumentation"]:
        problems.append("golden instrumentation")
    g = golden["fingerprint"]
    if fp["nonzero"] != g["nonzero"] or not close(fp["max_score"], g["max_score"]):
        problems.append("golden nonzero/max score")
    for key in ("score_buckets", "depth_buckets", "contrib_sums"):
        if not all_close(fp[key], g[key]):
            problems.append(f"golden {key}")
    if fp["samples"].keys() != g["samples"].keys() or not all(
            all_close(v, g["samples"][k]) for k, v in fp["samples"].items()):
        problems.append("golden sample rows")
    return problems


def compare_thresholds(got: list, golden: dict) -> bool:
    """(c, gamma) of every subset_thresholds call against the golden table."""
    table = {",".join(map(str, s)): (c, g) for s, c, g in got}
    return table.keys() == golden.keys() and all(
        c == golden[k][0] and close(g, golden[k][1]) for k, (c, g) in table.items())


# ---------------------------------------------------------------- running


@dataclass
class Invocation:
    wall: float
    rss_mb: float
    spans: dict | None
    result: dict


class Runner:
    """Launches `sono score` children one at a time and checks their outputs."""

    def __init__(self, work: str, w: Workload, seed: int, golden: dict | None,
                 deadline: float, pythonpath: str):
        self.work, self.w, self.seed = work, w, seed
        self.golden, self.deadline = golden, deadline
        self.csv = os.path.join(work, "input.csv")
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.threshold_digests: set[str] = set()
        self.env = {k: v for k, v in os.environ.items() if k != "SONO_CACHE_DIR"}
        self.env["PYTHONPATH"] = pythonpath

    def setup(self) -> float:
        """Write the input CSV (and warm a fresh threshold cache); returns seconds."""
        t0 = time.perf_counter()
        write_csv(self.w, self.seed, self.csv)
        if self.w.warm_cache:
            # A cache made by another commit could hold thresholds computed by
            # other code, so every set-up warms a cache of its own.
            self.env["SONO_CACHE_DIR"] = os.path.join(self.work, f"cache{self.count}")
            self.invoke(traced=False)
        return time.perf_counter() - t0

    def invoke(self, traced: bool) -> Invocation:
        """Run the program once, timed and checked."""
        self.count += 1
        out = os.path.join(self.work, f"out{self.count}")
        spans_path = os.path.join(self.work, f"spans{self.count}.json")
        argv = [sys.executable, *([TRACER, spans_path] if traced else SONO),
                "score", "--input", self.csv, "--out", out, "--mode", self.w.mode]
        status, wall, rss = self._spawn(argv)
        inv = Invocation(wall, rss, None, {"ok": False, "why": f"exit status {status}"})
        if status == 0:
            golden = self.golden if self.seed == DEFAULT_SEED else None
            inv.result = check_invocation(self.w, out, golden)
            if traced:
                inv.spans = self._check_spans(spans_path, inv, golden)
        self.attempted += 1
        if inv.result["ok"]:
            self.digests.add(inv.result["digest"])
            if len(self.digests) > 1:
                inv.result = {"ok": False, "why": "outputs differ between invocations"}
        if not inv.result["ok"]:
            self.failed += 1
            print(f"invocation {self.count} failed: {inv.result['why']}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return inv

    def _check_spans(self, path: str, inv: Invocation, golden: dict | None) -> dict | None:
        """Load a traced invocation's spans; check its (c, gamma) per subset."""
        try:
            with open(path) as fh:
                spans = json.load(fh)
        except (OSError, ValueError) as exc:
            inv.result = {"ok": False, "why": f"spans: {exc}"}
            return None
        got = spans["thresholds"]
        self.threshold_digests.add(hashlib.sha256(
            json.dumps(sorted(got)).encode()).hexdigest())
        if len(self.threshold_digests) > 1:
            inv.result = {"ok": False, "why": "thresholds differ between invocations"}
        elif golden is not None and "thresholds" in golden \
                and not compare_thresholds(got, golden["thresholds"]):
            inv.result = {"ok": False, "why": "golden (c, gamma) per subset"}
        spans["run"] = inv.result.get("run")
        return spans

    def _spawn(self, argv: list[str]) -> tuple[int, float, float]:
        """(exit status, wall seconds from spawn to exit, peak RSS in MiB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        raw = None
        with open(os.path.join(self.work, "child.log"), "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, raw, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                if raw is None:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(raw)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def speed_probe() -> list[float]:
    """Seconds this process takes for a fixed pure-Python loop right now, timed
    PROBE_REPEATS times."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return times


def should_stop(t_start: float, seconds: float, unit_times: list[float],
                minimum: int) -> bool:
    """Stop once the next unit (as long as the slowest so far) would overrun."""
    if len(unit_times) < minimum:
        return False
    return time.perf_counter() - t_start + max(unit_times) > seconds


# ---------------------------------------------------------------- metrics


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer numbers of one traced invocation."""
    names = spans["names"]
    rows = spans["spans"]
    child_time = [0.0] * len(rows)
    for code, start, end, parent in rows:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (code, start, end, parent) in enumerate(rows):
        name = names[code]
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child_time[i]
        calls[name] = calls.get(name, 0) + 1

    def named(i: int) -> str:
        return names[rows[i][0]] if i >= 0 else ""

    get_name = "thresholds.ThresholdProvider.get"
    computing_gets = {parent for code, _, _, parent in rows
                      if names[code] == "thresholds.subset_thresholds"
                      and named(parent) == get_name}
    gets = calls.get(get_name, 0)
    nu_in_find_c = sum(1 for code, _, _, parent in rows
                       if names[code] == "simci.coverage_probability"
                       and named(parent) == "simci.find_c")
    find_c = calls.get("simci.find_c", 0)
    inst = spans["run"]["instrumentation"] if spans.get("run") else {}
    return {
        "cli.import_s": spans["import_s"],
        "data.read_csv_s": total.get("data.read_csv", 0.0),
        "thresholds.determine_maxlen_s": total.get("thresholds.determine_maxlen", 0.0),
        "thresholds.provider_get_calls": gets,
        "thresholds.subset_thresholds_calls": calls.get("thresholds.subset_thresholds", 0),
        "thresholds.subset_thresholds_s": total.get("thresholds.subset_thresholds", 0.0),
        "thresholds.provider_hit_ratio": (gets - len(computing_gets)) / gets if gets else 0.0,
        "simci.find_c_calls": find_c,
        "simci.find_c_s": total.get("simci.find_c", 0.0),
        "simci.nu_calls": calls.get("simci.coverage_probability", 0),
        "simci.nu_s": total.get("simci.coverage_probability", 0.0),
        "simci.nu_per_find_c": nu_in_find_c / find_c if find_c else 0.0,
        "lattice.search_self_s": own.get("lattice.search_infrequent", 0.0)
        + own.get("lattice.search_frequent", 0.0),
        "lattice.subset_codes_s": total.get("lattice.subset_codes", 0.0),
        "lattice.subsets_materialized": inst.get("subsets_materialized", 0),
        "lattice.cells_tested": inst.get("cells_tested", 0),
        "lattice.cells_flagged": inst.get("cells_flagged", 0),
        "scoring.build_report_s": total.get("scoring.build_report", 0.0),
        "engine.run_analysis_self_s": own.get("engine.run_analysis", 0.0),
        "cli.cmd_score_self_s": own.get("cli.cmd_score", 0.0),
        "self_sum_s": spans["import_s"] + sum(own.values()),
    }


def repeat_setup(runner: Runner) -> tuple[list[float], list[float]]:
    """Set up at least SETUP_REPEATS times and for SETUP_MIN_S, probing the
    host speed before and after each; the last set-up's inputs are used.
    Returns the set-up times and the probe times."""
    setups, probes = [], speed_probe()
    t0 = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - t0 < SETUP_MIN_S:
        setups.append(runner.setup())
        probes += speed_probe()
    return setups, probes


def check_canary(runner: Runner, golden_doc: dict) -> None:
    """Check one invocation on the default-seed input of the tiny workload of
    the same mode against its golden values; golden values exist only for
    default seeds, and this holds every run to them whatever its seed."""
    name = CANARIES[runner.w.mode]
    work = os.path.join(runner.work, "canary")
    os.makedirs(work)
    canary = Runner(work, WORKLOADS[name], DEFAULT_SEED, golden_doc.get(name),
                    runner.deadline, runner.env["PYTHONPATH"])
    canary.setup()
    canary.invoke(traced=False)
    runner.attempted += canary.attempted
    runner.failed += canary.failed


def at_reference_speed(wall: float, probes: list[float]) -> float:
    return wall * PROBE_REFERENCE_S / statistics.median(probes)


def measure(runner: Runner, seconds: float, trace: bool) -> dict[str, float]:
    setups, probes = repeat_setup(runner)
    setup_s = at_reference_speed(statistics.median(setups), probes)
    walls, rss, traced_walls, layers = [], [], [], []
    t_start = time.perf_counter()
    if not trace:
        probes = speed_probe()
        while not should_stop(t_start, seconds, walls, MIN_INVOCATIONS):
            inv = runner.invoke(traced=False)
            probes += speed_probe()
            walls.append(inv.wall)
            rss.append(inv.rss_mb)
        return {
            "score_s": at_reference_speed(statistics.median(walls), probes),
            "peak_rss_mb": max(rss),
            "setup_s": setup_s,
            "success_rate": 1.0 - runner.failed / runner.attempted,
        }
    pairs: list[float] = []
    while not should_stop(t_start, seconds, pairs, 1):
        t_pair = time.perf_counter()
        walls.append(runner.invoke(traced=False).wall)
        inv = runner.invoke(traced=True)
        traced_walls.append(inv.wall)
        if inv.spans is not None:
            layers.append(layer_metrics(inv.spans))
        pairs.append(time.perf_counter() - t_pair)
    if not layers:
        return {}
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    out["trace.invocation_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.invocation_s"] - statistics.median(walls)
    return out


# ---------------------------------------------------------------- entry point


def record_golden(runner: Runner, path: str) -> None:
    """Store the default seed's outputs of one traced invocation as golden."""
    runner.setup()
    inv = runner.invoke(traced=True)
    if not inv.result["ok"] or inv.spans is None:
        raise BenchError(f"cannot record golden values: {inv.result['why']}")
    run, fp = inv.result["run"], inv.result["fingerprint"]
    entry = {
        "maxlen": run["maxlen"],
        "c_by_size": run["thresholds"]["c_by_size"],
        "instrumentation": run["instrumentation"],
        "fingerprint": {k: v for k, v in fp.items() if k != "digest"},
    }
    # Empty when set-up warmed a threshold cache.
    if inv.spans["thresholds"]:
        entry["thresholds"] = {",".join(map(str, s)): [c, g]
                               for s, c, g in sorted(inv.spans["thresholds"])}
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc[runner.w.name] = entry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = os.getcwd()
    w = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench-work", f"{w.name}-{args.seed}-{os.getpid()}")
    try:
        if not os.path.isfile(os.path.join(root, "src", "sono", "cli.py")):
            raise BenchError(f"no sono source tree under {root}/src")
        golden_doc = {}
        if not args.record_golden:
            with open(GOLDEN_PATH) as fh:
                golden_doc = json.load(fh)
            for name in (w.name, CANARIES[w.mode]):
                if golden_doc.get(name, {}).get("instrumentation", {}).get(
                        "cells_flagged", 0) <= 0:
                    raise BenchError(f"no golden values with a flagged cell for {name}")
        os.makedirs(work)
        runner = Runner(work, w, args.seed, golden_doc.get(w.name), deadline,
                        os.path.join(root, "src"))
        if args.record_golden:
            if args.seed != DEFAULT_SEED:
                raise BenchError(f"golden values are for --seed {DEFAULT_SEED}")
            record_golden(runner, GOLDEN_PATH)
            return 0
        check_canary(runner, golden_doc)
        metrics = measure(runner, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": runner.failed == 0 and all(k in metrics for k in units),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

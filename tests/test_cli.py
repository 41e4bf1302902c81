import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sono
import sono.cli
import sono.engine
import sono.lattice
import sono.scoring
import sono.simci
import sono.thresholds
from conftest import run_python
from sono.cli import main

RNG = np.random.default_rng(123)


# Runs `sono` with the given arguments, then fails if SciPy was imported.
SCORE_WITHOUT_SCIPY = """
import sys
from sono.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
assert "scipy" not in sys.modules, "scipy was imported"
sys.exit(status)
"""

# Runs a cold `sono` with the given arguments and checks that every nu was
# exact and that the run loaded SciPy's compiled ufuncs but not the
# scipy.special package; then that scipy.special and scipy.stats import and
# work, the package holding the very ufuncs the run used.
COLD_SCORE_WITHOUT_SCIPY_SPECIAL = """
import os, sys
os.environ.pop("SONO_CACHE_DIR", None)
import sono.simci as simci
from sono.cli import main
edgeworth = []
run_edgeworth = simci._coverage_edgeworth
simci._coverage_edgeworth = lambda *a: edgeworth.append(a) or run_edgeworth(*a)
assert main(sys.argv[1:]) == 0
assert not edgeworth, "nu left the exact path"
assert "scipy.special._ufuncs" in sys.modules
assert "scipy.special" not in sys.modules, "scipy.special was imported"
import scipy.special, scipy.stats
assert simci._ufuncs() is scipy.special._ufuncs
assert all(getattr(scipy.special, f) is getattr(simci._ufuncs(), f)
           for f in ("gammaln", "pdtr", "bdtr"))
assert scipy.stats.binom.cdf(2, 4, 0.5) == 0.6875
"""

# Runs a cold `sono` with the given arguments, checks that nu took the
# Edgeworth kernel's dominant-cell branch without importing the scipy.special
# package, then prints OPENBLAS_NUM_THREADS and the threads left in the process.
COLD_SCORE_THREADS = """
import os, sys
os.environ.pop("SONO_CACHE_DIR", None)
from sono.cli import main  # first: it sets the thread default before NumPy loads
import sono.simci as simci
normalized = []
run_logsumexp = simci._logsumexp
simci._logsumexp = lambda a: normalized.append(a) or run_logsumexp(a)
assert main(sys.argv[1:]) == 0
assert normalized, "no nu reached the dominant-cell branch"
assert "scipy.special" not in sys.modules, "scipy.special was imported"
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "-"
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""

# Library use: scores a CSV through run_analysis and checks that neither the
# command line nor the BLAS thread default was loaded or set.
LIBRARY_RUN = """
import os, sys
from sono import RunConfig, empirical_model, read_csv, run_analysis
ds = read_csv(sys.argv[1])
report, info, flags = run_analysis(ds, empirical_model(ds), RunConfig())
assert "sono.cli" not in sys.modules
assert "OPENBLAS_NUM_THREADS" not in os.environ
"""

# Runs `sono` with the given arguments (or only imports it, given none), then
# prints the sono, xml and hashlib modules loaded as the last line of standard
# output.
RUN_AND_LIST_MODULES = """
import sys
from sono.cli import main
status = main(sys.argv[1:]) if sys.argv[1:] else 0
print(*sorted(m for m in sys.modules
              if m.startswith(("sono.", "xml.", "hashlib", "_hashlib"))))
sys.exit(status)
"""

# Modules that a scoring process never needs: the audit suites, the UCI
# recipes, and the SVG writer with its XML library.
NOT_FOR_SCORING = {"sono.oracle", "sono.verify", "sono.prepare", "sono.plots",
                   "xml.etree"}

# Calls main() with the collector on and off, checking its state during the
# command and after main() returns or exits, and which exit hooks it registers.
GC_POLICY = """
import atexit, gc
import sono.cli as cli

hooks, during = [], []
atexit.register = hooks.append
run_prepare = cli.cmd_prepare
cli.cmd_prepare = lambda args: during.append(gc.isenabled()) or run_prepare(args)
for enabled in (True, False, True, False):
    (gc.enable if enabled else gc.disable)()
    assert cli.main(["prepare", "--list"]) == 0
    assert gc.isenabled() is enabled
    try:
        cli.main(["--version"])
    except SystemExit:
        pass
    assert gc.isenabled() is enabled
assert during == [False] * 4, during
print(len(hooks), hooks[0] is gc.freeze)
"""


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that its calls are counted; returns the count list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def spilled_decisions(cache):
    (spill,) = cache.glob("thresholds-*.json")
    return {k: v for k, v in json.loads(spill.read_text()).items()
            if k.startswith("maxlen:")}


def write_csv(path, rows, header=("A", "B", "C")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def sample_csv(tmp_path):
    rows = [[f"a{RNG.integers(1, 4)}", f"b{RNG.integers(1, 3)}",
             f"c{RNG.integers(1, 3)}"] for _ in range(60)]
    path = tmp_path / "data.csv"
    write_csv(path, rows)
    return str(path)


@pytest.fixture
def edgeworth_csv(tmp_path):
    """1000 rows: two skewed binary variables, B mostly copying A, so that
    some rows score, and three five-level variables with one level at 0.97.
    Their many-celled tables have one dominant cell, so a cold score
    evaluates Edgeworth nu with a dominant cell (the maxlen rule's nu at the
    Hoeffding point)."""
    rng = np.random.default_rng(5)
    binary = (rng.random((1000, 2)) < 0.9).astype(int)
    binary[:, 1] = np.where(rng.random(1000) < 0.03, 1 - binary[:, 0], binary[:, 0])
    five = np.where(rng.random((1000, 3)) < 0.97, 0, rng.integers(1, 5, (1000, 3)))
    path = tmp_path / "edgeworth.csv"
    write_csv(path, np.hstack([binary, five]).tolist(), header=tuple("ABCDE"))
    return str(path)


class TestScoreCommand:
    def test_writes_all_artifacts(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["score", "--input", sample_csv, "--out", str(out),
                   "--format", "csv,json,svg"])
        assert rc == 0
        assert (out / "scores.csv").exists()
        assert (out / "contributions.csv").exists()
        assert (out / "run.json").exists()
        assert (out / "score_vs_depth.svg").exists()

        with open(out / "scores.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "score", "depth"]
        assert len(rows) == 61
        with open(out / "contributions.csv", newline="") as fh:
            crows = list(csv.reader(fh))
        assert crows[0] == ["row", "A", "B", "C"]
        # row sums reproduce scores
        for srow, crow in zip(rows[1:], crows[1:]):
            assert float(srow[1]) == pytest.approx(
                sum(float(v) for v in crow[1:]), rel=1e-9, abs=1e-12)

    def test_csv_lines_follow_the_observations(self, tmp_path):
        # 120 shuffled rows over 6 distinct rows: every line is its own row's
        patterns = [["a", "x", "u"]] * 40 + [["b", "y", "u"]] * 40 + [["a", "y", "v"]] * 30
        patterns += [["c", "x", "v"]] * 6 + [["b", "x", "v"]] * 3 + [["c", "y", "u"]]
        rows = [patterns[i] for i in RNG.permutation(len(patterns))]
        path = tmp_path / "dup.csv"
        write_csv(path, rows)
        out = tmp_path / "out"
        assert main(["score", "--input", str(path), "--out", str(out)]) == 0
        ds = sono.read_csv(str(path))
        report, _, _ = sono.run_analysis(ds, sono.empirical_model(ds), sono.RunConfig())
        assert len(set(report.scores.tolist())) >= 3
        for name, columns in (("scores.csv", zip(report.scores, report.depths)),
                              ("contributions.csv", report.contributions.tolist())):
            lines = (out / name).read_bytes().decode().split("\r\n")
            assert lines[1:] == [f"{i},{','.join(map(repr, map(float, row)))}"
                                 for i, row in enumerate(columns, start=1)] + [""]

    def test_score_writes_from_the_distinct_rows(self, tmp_path, monkeypatch, capsys):
        # 1000 rows over 5 distinct rows: the CSV files, the summary line and
        # run.json's results come from the report's distinct rows, so a run
        # that cannot build the per-observation arrays writes the same bytes
        patterns = [["a", "x", "u"]] * 900 + [["b", "y", "u"]] * 80 + [["a", "y", "v"]] * 15
        patterns += [["c", "x", "v"]] * 4 + [["c", "y", "u"]]
        path = tmp_path / "dup.csv"
        write_csv(path, [patterns[i] for i in RNG.permutation(len(patterns))])

        def expanded(report):
            raise AssertionError("sono score built a per-observation array")

        docs = []
        for patched in (False, True):
            if patched:
                for name in ("scores", "depths", "contributions"):
                    monkeypatch.setattr(sono.scoring.ScoreReport, name, property(expanded))
            out = tmp_path / f"out-{patched}"
            assert main(["score", "--input", str(path), "--out", str(out)]) == 0
            docs.append(json.loads((out / "run.json").read_text())["results"])
            docs[-1]["summary"] = capsys.readouterr().err
        for name in ("scores.csv", "contributions.csv"):
            assert (tmp_path / "out-True" / name).read_bytes() == \
                (tmp_path / "out-False" / name).read_bytes()
        monkeypatch.undo()
        ds = sono.read_csv(str(path))
        report, _, _ = sono.run_analysis(ds, sono.empirical_model(ds), sono.RunConfig())
        nonzero = int((report.scores > 0).sum())
        assert nonzero > int((report.distinct_scores > 0).sum())  # counted per observation
        for doc in docs:
            assert f" nonzero scores {nonzero}/{ds.n} " in doc["summary"]
            assert doc["nonzero_scores"] == nonzero
            assert doc["max_score"] == float(report.scores.max())

    def test_run_json_contents(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out)]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["alpha"] == 0.05
        assert doc["config"]["r"] == 2.0
        assert doc["dataset"]["n"] == 60
        assert doc["maxlen"]["value"] >= 1
        assert "instrumentation" in doc
        assert "c_by_size" in doc["thresholds"]
        assert "saturated_tables" in doc["diagnostics"]

    def test_run_json_phase_timings(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out)]) == 0
        doc = json.loads((out / "run.json").read_text())
        # per-run values stay under "results"; the other blocks keep their shape
        assert set(doc) == {"config", "dataset", "maxlen", "thresholds",
                            "instrumentation", "diagnostics", "results"}
        timings = doc["results"]["timings"]
        assert list(timings) == ["read_s", "model_s", "maxlen_s", "search_s",
                                 "scoring_s", "write_s"]
        assert all(t >= 0 for t in timings.values())
        assert sum(timings[k] for k in ("maxlen_s", "search_s", "scoring_s")) \
            <= doc["results"]["runtime_s"]

    def test_run_json_table_counts(self, sample_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("SONO_CACHE_DIR", str(tmp_path / "cache"))
        counts = []
        for name in ("cold", "warm"):
            out = tmp_path / name
            assert main(["score", "--input", sample_csv, "--out", str(out)]) == 0
            counts.append(json.loads((out / "run.json").read_text())["results"]["tables"])
        k = counts[0]["computed"]
        assert k > 0
        assert counts == [{"computed": k, "from_spill": 0},
                          {"computed": 0, "from_spill": k}]

    def test_rerun_from_run_json_is_bit_identical(self, sample_csv, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["score", "--input", sample_csv, "--out", str(out1)]) == 0
        assert main(["score", "--config", str(out1 / "run.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()
        assert (out1 / "contributions.csv").read_bytes() \
            == (out2 / "contributions.csv").read_bytes()

    def test_svg_well_formed(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out),
                     "--format", "svg,csv"]) == 0
        tree = ET.parse(out / "score_vs_depth.svg")
        root = tree.getroot()
        assert root.tag.endswith("svg")
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "Depth" in texts and "Score" in texts
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        with open(out / "scores.csv", newline="") as fh:
            nonzero = sum(1 for row in list(csv.reader(fh))[1:] if float(row[1]) > 0)
        assert len(circles) == nonzero

    def test_missing_input_exit_code(self, tmp_path):
        assert main(["score", "--input", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("kind", ["latin-1", "long field", "directory",
                                      "empty delimiter", "long delimiter",
                                      "long delimiter in config"])
    def test_unreadable_input_exit_code(self, tmp_path, capsys, kind):
        # a delimiter that is not one character used to end in csv's TypeError
        path = tmp_path / "in.csv"
        options, message = [], "cannot read input file"
        if kind == "latin-1":
            path.write_bytes("A,B\ncaf\u00e9,x\ntea,y\n".encode("latin-1"))
        elif kind == "long field":
            path.write_text("A,B\n" + "x" * (csv.field_size_limit() + 1) + ",y\n")
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_text("A,B\na,x\nb,y\n")
            message = "delimiter must be one character"
            if kind == "long delimiter in config":
                config = tmp_path / "config.json"
                config.write_text(json.dumps({"delimiter": "ab"}))
                options = ["--config", str(config)]
            else:
                options = ["--delimiter", "" if kind == "empty delimiter" else "ab"]
        assert main(["score", "--input", str(path), "--out", str(tmp_path / "o"),
                     *options]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ingestion error: {message}")

    def test_no_input_given(self):
        assert main(["score"]) == 2

    def test_threshold_error_exit_code(self, sample_csv, tmp_path):
        rc = main(["score", "--input", sample_csv, "--out", str(tmp_path / "o"),
                   "--max-cells", "1"])
        assert rc == 3

    def test_max_len_override(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out),
                     "--max-len", "1"]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["maxlen"]["value"] == 1
        assert doc["maxlen"]["rule"] == "manual"

    def test_drop_cols_and_no_prune(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out),
                     "--drop-cols", "C", "--no-prune"]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["dataset"]["p"] == 2
        assert doc["config"]["prune"] is False

    def test_unknown_drop_cols_exit_code(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out),
                     "--drop-cols", "NOPE"]) == 2
        assert "unknown column(s): NOPE" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()

    def test_retired_threads_key_in_old_run_json(self, sample_csv, tmp_path, caplog):
        # run.json files of earlier versions hold "threads": 1
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["score", "--input", sample_csv, "--out", str(out1)]) == 0
        doc = json.loads((out1 / "run.json").read_text())
        assert "threads" not in doc["config"]
        doc["config"]["threads"] = 1
        old = tmp_path / "old-run.json"
        old.write_text(json.dumps(doc))
        assert main(["score", "--config", str(old), "--out", str(out2)]) == 0
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()
        assert "'threads' is retired and ignored" in caplog.text
        with pytest.raises(SystemExit) as err:
            main(["score", "--input", sample_csv, "--out", str(out2),
                  "--threads", "2"])
        assert err.value.code == 2

    def test_oracle_nu_equals_auto_on_small_tables(self, tmp_path):
        rows = [["x", "u"]] * 12 + [["y", "v"]] * 10 + [["x", "v"]] * 8
        path = tmp_path / "tiny.csv"
        write_csv(path, rows, header=("A", "B"))
        outs = []
        for flag in ([], ["--oracle-nu"]):
            out = tmp_path / ("o" + str(len(flag)))
            assert main(["score", "--input", str(path), "--out", str(out), *flag]) == 0
            outs.append((out / "scores.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_probability_file(self, tmp_path):
        rows = [["a"], ["a"], ["b"], ["a"], ["b"], ["a"]]
        path = tmp_path / "d.csv"
        write_csv(path, rows, header=("V",))
        probs = tmp_path / "probs.json"
        # array-of-pairs form, including an unseen level
        probs.write_text(json.dumps(
            {"V": [{"a": 0.5}, {"b": 0.3}, {"z": 0.2}]}))
        out = tmp_path / "out"
        assert main(["score", "--input", str(path), "--probs", str(probs),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["dataset"]["level_counts"] == [3]

    def test_probabilities_the_model_accepts_reach_every_table(self, tmp_path):
        # each vector sums to 1 within the model's 1e-12, and their products
        # used to fail the cell probabilities' own 1e-12 from the pairs on
        rng = np.random.default_rng(4)
        path = tmp_path / "d.csv"
        write_csv(path, rng.choice(["a", "b"], size=(200, 3)).tolist())
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({v: {"a": 0.5, "b": 0.4999999999994}
                                     for v in ("A", "B", "C")}))
        out = tmp_path / "out"
        assert main(["score", "--input", str(path), "--probs", str(probs),
                     "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["maxlen"]["value"] == 3

    def test_empty_probability_file_falls_back(self, tmp_path, capsys):
        rows = [["a"], ["b"], ["a"]]
        path = tmp_path / "d.csv"
        write_csv(path, rows, header=("V",))
        probs = tmp_path / "probs.json"
        probs.write_text("{}")
        assert main(["score", "--input", str(path), "--probs", str(probs),
                     "--out", str(tmp_path / "o")]) == 0
        assert "empirical" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ('{"V": {"a": NaN, "b": 0.5}}', "not in [0, 1]"),
        ('[{"V": {"a": 0.5, "b": 0.5}}]', "must hold a JSON object"),
        ('{"V": {"a": "abc", "b": 0.5}}', "must be numbers"),
        # strings that parse as numbers, and booleans, are not JSON numbers
        ('{"V": {"a": "0.5", "b": "0.5"}}', "must be numbers"),
        ('{"V": {"a": true, "b": false}}', "must be numbers"),
        # an integer beyond float range used to end in an OverflowError
        ('{"V": {"a": 1' + "0" * 400 + ', "b": 0.5}}', "must lie in [0, 1]"),
        ('{"V": 0.5}', "must map level labels to numbers"),
    ])
    def test_malformed_probability_file_exit_code(self, tmp_path, capsys, doc, message):
        path = tmp_path / "d.csv"
        write_csv(path, [["a"], ["b"], ["a"]], header=("V",))
        probs = tmp_path / "probs.json"
        probs.write_text(doc)
        out = tmp_path / "out"
        assert main(["score", "--input", str(path), "--probs", str(probs),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ingestion error: bad probability file")
        assert message in err
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize("mode", ["infrequent", "frequent"])
    @pytest.mark.parametrize("doc, label", [
        ({"A": {"x": 1.0, "y": 0.0}, "B": {"u": 1.0, "v": 0.0}}, "y"),
        ({"A": {"x": 0.0, "y": 1.0}}, "x")])
    def test_zero_probability_of_an_observed_level_exit_code(self, tmp_path, capsys,
                                                             mode, doc, label):
        # frequent mode used to flag such a level with sigma 0 and end in an
        # internal error (exit 1)
        path = tmp_path / "d.csv"
        write_csv(path, [[a, b] for a in "xy" for b in "uv" for _ in range(10)],
                  header=("A", "B"))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["score", "--input", str(path), "--probs", str(probs),
                     "--mode", mode, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["ingestion error: bad probability file: "
                       f"observed level '{label}' of A has probability 0"]
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"alpha": "0.05"}, "'alpha' must be of type float, got '0.05'"),
        ({"max_len": 1.5}, "'max_len' must be of type int | None, got 1.5"),
        ({"prune": 0}, "'prune' must be of type bool, got 0"),
        ({"max_cells": True}, "'max_cells' must be of type float, got True"),
        ({"format": ["csv", 1]}, "'format' must be of type tuple[str, ...]"),
    ])
    def test_config_value_of_the_wrong_type_exit_code(self, sample_csv, tmp_path, capsys,
                                                      doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--config", str(config),
                     "--out", str(out)]) == 2
        assert f"ingestion error: config file option {message}" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--r", "nan", "r must be > 0"),
        ("--max-cells", "nan", "max-cells must be a number"),
        # alphas that leave no confidence level 1 - 2*alpha in (0, 1) used to
        # pass validation and fail inside find_c
        ("--alpha", "0.5", "alpha must leave a confidence level"),
        ("--alpha", "1e-300", "alpha must leave a confidence level"),
        # an infinite r zeroed every term of length >= 2
        ("--r", "inf", "r must be finite")])
    def test_nan_option_rejected(self, sample_csv, tmp_path, capsys, option, value, message):
        # a NaN r used to write NaN scores and exit 0
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out), option, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()  # checked before --out is made

    @pytest.mark.parametrize("options, message", [
        # such caps used to pass validation and end in a threshold error
        (["--max-cells", "0"], "max-cells must be >= 1"),
        (["--max-cells", "-1"], "max-cells must be >= 1"),
        # no format used to run the whole search and write nothing
        (["--format", ""], "format must name at least one of csv, json, svg"),
        ({"format": []}, "format must name at least one of csv, json, svg"),
    ], ids=["max-cells-0", "max-cells-negative", "format-empty", "config-format-empty"])
    def test_option_rejected_before_thresholds(self, sample_csv, tmp_path, capsys,
                                               monkeypatch, options, message):
        if isinstance(options, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(options))
            options = ["--config", str(config)]

        def reached(*args, **kwargs):
            raise AssertionError("the input was read before the options were checked")

        monkeypatch.setattr(sono.cli, "read_csv", reached)
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out), *options]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("options, message", [
        # these used to exit 2 only after an empty --out was made
        ({"level_order": "sideways"}, "unknown level order 'sideways'"),
        ({"delimiter": ";;"}, "delimiter must be one character, got ';;'"),
        (["--delimiter", ";;"], "delimiter must be one character, got ';;'"),
        # this one exited 1, from a second check in RunConfig.validate
        ({"missing": "zap"}, "unknown missing policy 'zap'"),
        # these were read as one column and scored
        (["--delimiter", '"'], "delimiter cannot be a quote or a line break, got '\"'"),
        (["--delimiter", "\r"], "delimiter cannot be a quote or a line break, got '\\r'"),
        ({"delimiter": "\n"}, "delimiter cannot be a quote or a line break, got '\\n'"),
        # these ended in argparse's usage message
        (["--missing", "zap"], "unknown missing policy 'zap'"),
        (["--level-order", "sideways"], "unknown level order 'sideways'"),
    ], ids=["config-level-order", "config-delimiter", "delimiter", "config-missing",
            "quote-delimiter", "cr-delimiter", "config-lf-delimiter", "missing",
            "level-order"])
    def test_ingestion_option_rejected_before_out(self, sample_csv, tmp_path, capsys,
                                                  monkeypatch, options, message):
        if isinstance(options, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(options))
            options = ["--config", str(config)]

        def reached(*args, **kwargs):
            raise AssertionError("the input was read before the options were checked")

        monkeypatch.setattr(sono.cli, "read_csv", reached)
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out), *options]) == 2
        assert capsys.readouterr().err.splitlines() == [f"ingestion error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        (None, "cannot read probability file: "),
        ("[1, 2]", "bad probability file: it must hold a JSON object"),
        ("{", "cannot read probability file: "),
    ], ids=["missing-file", "not-an-object", "not-json"])
    def test_probability_file_checked_before_out(self, sample_csv, tmp_path, capsys,
                                                 monkeypatch, doc, message):
        # these used to exit 2 only after the input was read into a new --out
        def reached(*args, **kwargs):
            raise AssertionError("the input was read before --probs was checked")

        monkeypatch.setattr(sono.cli, "read_csv", reached)
        probs = tmp_path / "probs.json"
        if doc is not None:
            probs.write_text(doc)
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--probs", str(probs),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ingestion error: {message}")
        assert not out.exists()

    def test_header_only_input_exit_code(self, tmp_path, capsys):
        # used to say "no rows left after missing-value cleaning"
        path = tmp_path / "d.csv"
        path.write_text("A,B\n")
        assert main(["score", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "ingestion error: the table has no data rows"]

    def test_output_path_checked_before_the_input_is_read(self, sample_csv, tmp_path,
                                                           capsys, monkeypatch):
        # an --out naming a file used to fail only after the whole search
        def reached(*args, **kwargs):
            raise AssertionError("scoring started before --out was made")

        # sono.thresholds looks find_c up in sono.simci at each call
        monkeypatch.setattr(sono.simci, "find_c", reached)
        monkeypatch.setattr(sono.cli, "read_csv", reached)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["score", "--input", sample_csv, "--out", str(taken)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output failure: ")

    @pytest.mark.parametrize("mode", ["infrequent", "frequent"])
    def test_r_beyond_float_range_rejected_before_thresholds(
            self, sample_csv, tmp_path, capsys, monkeypatch, mode):
        # such an r used to run the whole search, then end in d ** r's
        # OverflowError
        monkeypatch.setattr(sono.engine, "ThresholdProvider", None)  # never reached
        assert main(["score", "--input", sample_csv, "--out", str(tmp_path / "o"),
                     "--mode", mode, "--r", "1e308"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: r must be finite")

    def test_large_finite_r_runs_with_its_warning(self, sample_csv, tmp_path):
        with pytest.warns(UserWarning, match="strongly damps longer itemsets") as record:
            assert main(["score", "--input", sample_csv, "--out", str(tmp_path / "o"),
                         "--r", "3.5"]) == 0
        assert sum("strongly damps" in str(w.message) for w in record) == 1

    def test_every_config_field_is_a_command_line_option(self, tmp_path):
        from sono.cli import _build_parser, _cli_overrides
        args = _build_parser().parse_args([
            "score", "--input", "d.csv", "--mode", "frequent", "--alpha", "0.1",
            "--r", "1", "--no-prune", "--max-len", "2", "--probs", "p.json",
            "--out", "o", "--format", "csv", "--drop-cols", "A", "--missing", "level",
            "--oracle-nu", "--delimiter", ";", "--no-header", "--missing-markers", "NA",
            "--level-order", "lexicographic", "--maxlen-rule", "all-cells",
            "--max-cells", "100"])
        overrides = _cli_overrides(args)
        assert list(overrides) == [f.name for f in dataclasses.fields(sono.RunConfig)]
        assert overrides["max_len"] == 2 and overrides["prune"] is False

    def test_missing_policy_level(self, tmp_path):
        rows = [["a"], ["?"], ["b"], ["a"]]
        path = tmp_path / "d.csv"
        write_csv(path, rows, header=("V",))
        out = tmp_path / "out"
        assert main(["score", "--input", str(path), "--missing", "level",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["dataset"]["n"] == 4
        assert doc["dataset"]["level_counts"] == [3]

    def test_no_header_and_delimiter(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tx\nb\tx\na\ty\n")
        out = tmp_path / "out"
        assert main(["score", "--input", str(path), "--no-header",
                     "--delimiter", "\t", "--out", str(out)]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["dataset"]["n"] == 3
        assert doc["dataset"]["p"] == 2

    def test_cache_dir_env(self, sample_csv, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SONO_CACHE_DIR", str(cache))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["score", "--input", sample_csv, "--out", str(out1)]) == 0
        assert list(cache.glob("thresholds-*.json"))
        assert main(["score", "--input", sample_csv, "--out", str(out2)]) == 0
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()

    def test_warm_run_leaves_the_spill_file_alone(self, sample_csv, tmp_path,
                                                  monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SONO_CACHE_DIR", str(cache))
        args = ["score", "--input", sample_csv, "--out", str(tmp_path / "out")]
        assert main([*args, "--max-len", "1"]) == 0
        (spill,) = cache.glob("thresholds-*.json")
        before = spill.stat()
        assert main([*args, "--max-len", "1"]) == 0
        after = spill.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        # a run that adds entries replaces the file by a rename, keeping the old ones
        old = json.loads(spill.read_text())
        assert main(args) == 0
        assert spill.stat().st_ino != before.st_ino
        new = json.loads(spill.read_text())
        assert new.items() > old.items()
        assert "maxlen:any-cell:10000000.0" in new
        assert sorted(p.name for p in cache.iterdir()) == [spill.name]

    def test_spill_path_that_is_a_directory(self, sample_csv, tmp_path, monkeypatch,
                                            caplog):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SONO_CACHE_DIR", str(cache))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["score", "--input", sample_csv, "--out", str(out1)]) == 0
        (spill,) = cache.glob("thresholds-*.json")
        spill.unlink()
        spill.mkdir()  # reading or replacing it raises IsADirectoryError
        assert main(["score", "--input", sample_csv, "--out", str(out2)]) == 0
        assert f"ignoring threshold cache {spill}" in caplog.text
        assert f"cannot write threshold cache {spill}" in caplog.text
        assert sorted(p.name for p in cache.iterdir()) == [spill.name]
        c1, c2 = (json.loads((o / "run.json").read_text())["thresholds"]
                  for o in (out1, out2))
        assert c1 == c2
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()

    def test_cache_dir_that_is_a_file(self, sample_csv, tmp_path, monkeypatch, caplog):
        # creating the directory raises FileExistsError, which used to end the run
        plain = tmp_path / "plain"
        assert main(["score", "--input", sample_csv, "--out", str(plain)]) == 0
        cache = tmp_path / "cache"
        cache.write_text("not a directory")
        monkeypatch.setenv("SONO_CACHE_DIR", str(cache))
        out = tmp_path / "out"
        assert main(["score", "--input", sample_csv, "--out", str(out)]) == 0
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert f"cannot use threshold cache directory {cache}" in warnings[0].getMessage()
        assert cache.read_text() == "not a directory"
        assert (out / "scores.csv").read_bytes() == (plain / "scores.csv").read_bytes()

    def test_cached_run_enforces_max_cells(self, tmp_path, monkeypatch, capsys):
        # three 8-level variables: the triple's table has 512 cells
        rows = RNG.integers(1, 9, size=(300, 3)).astype(str).tolist()
        path = tmp_path / "d.csv"
        write_csv(path, rows)
        args = ["score", "--input", str(path), "--max-len", "3"]
        monkeypatch.setenv("SONO_CACHE_DIR", str(tmp_path / "cache"))
        assert main([*args, "--out", str(tmp_path / "o1"), "--max-cells", "1e4"]) == 0
        capsys.readouterr()
        assert main([*args, "--out", str(tmp_path / "o2"), "--max-cells", "100"]) == 3
        cached = capsys.readouterr().err
        monkeypatch.delenv("SONO_CACHE_DIR")
        assert main([*args, "--out", str(tmp_path / "o3"), "--max-cells", "100"]) == 3
        uncached = capsys.readouterr().err
        assert "table over variables (0, 1, 2) has 512 cells" in uncached
        assert cached == uncached

    def test_warm_run_reads_the_decision_without_scipy(self, sample_csv, tmp_path,
                                                       monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SONO_CACHE_DIR", str(cache))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["score", "--input", sample_csv, "--out", str(out1)]) == 0
        assert list(spilled_decisions(cache)) == ["maxlen:any-cell:10000000.0"]
        warm = run_python(SCORE_WITHOUT_SCIPY, "score", "--input", sample_csv,
                          "--out", str(out2))
        assert warm.returncode == 0, warm.stderr
        for name in ("scores.csv", "contributions.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1, m2 = (json.dumps(json.loads((o / "run.json").read_text())["maxlen"])
                  for o in (out1, out2))
        assert m1 == m2

    def test_warm_run_evaluates_no_nu(self, sample_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("SONO_CACHE_DIR", str(tmp_path / "cache"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["score", "--input", sample_csv, "--out", str(out1)]) == 0

        def no_nu(*args, **kwargs):
            raise AssertionError("nu evaluated on a warm run")

        monkeypatch.setattr(sono.simci, "coverage_probability", no_nu)  # every nu's module
        assert main(["score", "--input", sample_csv, "--out", str(out2)]) == 0
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()

    def test_decision_keyed_by_rule_and_max_cells(self, sample_csv, tmp_path,
                                                  monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SONO_CACHE_DIR", str(cache))
        calls = count_calls(monkeypatch, sono.thresholds, "determine_maxlen")
        runs = [[], ["--maxlen-rule", "all-cells"], ["--max-cells", "1e6"]]
        for i, extra in enumerate(runs * 2):
            out = tmp_path / f"o{i}"
            assert main(["score", "--input", sample_csv, "--out", str(out), *extra]) == 0
            assert len(calls) == min(i + 1, len(runs))
        assert sorted(spilled_decisions(cache)) == [
            "maxlen:all-cells:10000000.0", "maxlen:any-cell:1000000.0",
            "maxlen:any-cell:10000000.0"]
        for i in range(len(runs)):
            a, b = (json.loads((tmp_path / f"o{j}" / "run.json").read_text())["maxlen"]
                    for j in (i, i + len(runs)))
            assert a == b

    def test_spill_file_without_decision_is_served(self, sample_csv, tmp_path,
                                                   monkeypatch):
        # spill files of earlier versions hold (c, gamma) entries only
        cache = tmp_path / "cache"
        monkeypatch.setenv("SONO_CACHE_DIR", str(cache))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["score", "--input", sample_csv, "--out", str(out1)]) == 0
        (spill,) = cache.glob("thresholds-*.json")
        full = json.loads(spill.read_text())
        tables = {k: v for k, v in full.items() if not k.startswith("maxlen:")}
        assert tables and len(tables) == len(full) - 1
        spill.write_text(json.dumps(tables))
        maxlen_calls = count_calls(monkeypatch, sono.thresholds, "determine_maxlen")
        table_calls = count_calls(monkeypatch, sono.thresholds, "subset_thresholds")
        assert main(["score", "--input", sample_csv, "--out", str(out2)]) == 0
        assert (len(maxlen_calls), len(table_calls)) == (1, 0)
        assert json.loads(spill.read_text()) == full
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()


class TestStartup:
    @pytest.mark.parametrize("argv", [[], ["--version"], ["--help"]],
                             ids=["import", "version", "help"])
    def test_scipy_not_imported(self, argv):
        code = ("import sys, sono.cli; assert 'scipy' not in sys.modules" if not argv
                else SCORE_WITHOUT_SCIPY)
        proc = run_python(code, *argv)
        assert proc.returncode == 0, proc.stderr
        if argv:
            assert "sono" in proc.stdout

    def test_cold_score_loads_only_the_ufunc_module(self, sample_csv, tmp_path):
        proc = run_python(COLD_SCORE_WITHOUT_SCIPY_SPECIAL, "score", "--input",
                          sample_csv, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "scores.csv").exists()

    @staticmethod
    def run_listing_modules(argv, env=None):
        proc = run_python(RUN_AND_LIST_MODULES, *argv, env=env)
        return proc, set((proc.stdout.splitlines() or [""])[-1].split())

    @pytest.mark.parametrize("command", ["import", "score", "score-cached"])
    def test_scoring_loads_no_audit_module(self, command, sample_csv, tmp_path):
        argv = ([] if command == "import"
                else ["score", "--input", sample_csv, "--out", str(tmp_path / "out")])
        cache = tmp_path / "cache"
        env = {"SONO_CACHE_DIR": str(cache) if command == "score-cached" else None}
        proc, loaded = self.run_listing_modules(argv, env)
        assert proc.returncode == 0, proc.stderr
        assert "sono.engine" in loaded
        # loaded with the scoring path when no spill file can serve the tables,
        # else by the first table that is computed
        assert "sono.simci" in loaded
        assert not loaded & NOT_FOR_SCORING
        # no OpenSSL: the spill file is named without hashlib
        assert not loaded & {"hashlib", "_hashlib"}
        if command == "score-cached":
            [spill] = cache.iterdir()
            assert re.fullmatch(r"thresholds-[0-9a-f]{16}\.json", spill.name)
            out = tmp_path / "warm"
            proc, loaded = self.run_listing_modules([*argv[:-1], str(out)], env)
            assert proc.returncode == 0, proc.stderr
            assert not loaded & {"hashlib", "_hashlib"}
            # every table and the maxlen decision come from the spill file
            assert "sono.simci" not in loaded
            tables = json.loads((out / "run.json").read_text())["results"]["tables"]
            assert tables["computed"] == 0 and tables["from_spill"] > 0

    @pytest.mark.parametrize("argv, module", [
        (["prepare", "--list"], "sono.prepare"),
        (["verify", "--suite", "coverage"], "sono.verify"),
        (["score", "--format", "svg"], "sono.plots"),
    ], ids=["prepare", "verify", "svg"])
    def test_lazily_loaded_commands_run(self, argv, module, sample_csv, tmp_path):
        if argv[0] == "score":
            argv = [*argv, "--input", sample_csv, "--out", str(tmp_path)]
        proc, loaded = self.run_listing_modules(argv)
        assert proc.returncode == 0, proc.stderr
        assert module in loaded
        if argv[0] == "prepare":
            assert "thyroid: files" in proc.stdout
        elif argv[0] == "verify":
            assert "verification PASSED" in proc.stdout
        else:
            assert ET.parse(tmp_path / "score_vs_depth.svg").getroot().tag.endswith("svg")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="threads are counted in /proc/self/task")
    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_cold_score_runs_one_thread(self, value, edgeworth_csv, tmp_path):
        proc = run_python(COLD_SCORE_THREADS, "score", "--input", edgeworth_csv,
                          "--out", str(tmp_path), env={"OPENBLAS_NUM_THREADS": value})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["1", "1"]

    def test_callers_thread_setting_is_kept(self, edgeworth_csv, tmp_path):
        setting = {}
        for value in (None, "2"):
            proc = run_python(COLD_SCORE_THREADS, "score", "--input", edgeworth_csv,
                              "--out", str(tmp_path / f"out-{value}"),
                              env={"OPENBLAS_NUM_THREADS": value})
            assert proc.returncode == 0, proc.stderr
            setting[value] = proc.stdout.split()[-2]
        assert setting == {None: "1", "2": "2"}
        scores = (tmp_path / "out-None" / "scores.csv").read_bytes()
        assert any(float(line.split(b",")[1]) > 0 for line in scores.splitlines()[1:])
        for name in ("scores.csv", "contributions.csv"):
            assert ((tmp_path / "out-None" / name).read_bytes()
                    == (tmp_path / "out-2" / name).read_bytes())

    def test_library_use_sets_no_thread_default(self, edgeworth_csv):
        proc = run_python(LIBRARY_RUN, edgeworth_csv, env={"OPENBLAS_NUM_THREADS": None})
        assert proc.returncode == 0, proc.stderr

    def test_oracle_names_resolve_on_access(self):
        # `import sono` loads no NumPy and no submodule; every public name is
        # listed by dir(sono) and resolves, through `from sono import ...` and
        # as an attribute, to the object its module defines
        code = ("import importlib, sys, sono\n"
                "assert not [m for m in sys.modules if m == 'numpy' or m.startswith('sono.')]\n"
                "assert sono.__all__ == ['__version__', *sono._LAZY]\n"
                "listed = set(dir(sono))\n"
                "for name in sono._LAZY:\n"
                "    assert name in listed, name\n"
                "    exec(f'from sono import {name} as value')\n"
                "    module = importlib.import_module('sono.' + sono._LAZY[name])\n"
                "    assert value is getattr(sono, name) is getattr(module, name), name\n"
                "assert not hasattr(sono, 'no_such_name')\n"
                "exec('from sono import *')\n")
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_main_restores_the_collector_and_registers_one_exit_freeze(self):
        proc = run_python(GC_POLICY)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "1 True"


@pytest.mark.parametrize("mode", ["infrequent", "frequent"])
@pytest.mark.parametrize("prune", [True, False], ids=["prune", "no-prune"])
def test_scoring_allocates_no_reference_cycles(mode, prune, tmp_path, monkeypatch):
    """The command line runs with the cyclic collector off, which is sound
    only while a run leaves no garbage cycles: a run that made them per subset
    would grow without bound on long runs."""
    # The first use of SciPy imports it, which leaves cycles once per process.
    import scipy.special  # noqa: F401
    monkeypatch.setenv("SONO_CACHE_DIR", str(tmp_path))
    rng = np.random.default_rng(20240901)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(3):
            ds = sono.random_dataset(rng, p_max=7)
            model = sono.empirical_model(ds)
            cfg = sono.RunConfig(mode=mode, prune=prune)
            for provider in ("fresh", "spilled"):
                gc.collect()
                sono.run_analysis(ds, model, cfg)
                assert gc.collect() == 0, f"ds{i} {provider} provider"
                assert len(list(tmp_path.glob("thresholds-*.json"))) == i + 1
    finally:
        if was_enabled:
            gc.enable()


class TestVerifyCommand:
    def test_quick_suites_pass(self, capsys):
        rc = main(["verify", "--suite", "coverage", "--datasets", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "verification PASSED" in out

    def test_small_walker_suite_passes(self):
        assert main(["verify", "--suite", "walker", "--datasets", "2"]) == 0

    def test_proposition_sweep_passes_with_documented_deviations(self, capsys):
        rc = main(["verify", "--suite", "propositions", "--p-max", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "documented boundary deviations" in out

    @pytest.mark.parametrize("argv", [["--datasets", "0"], ["--datasets", "-1"],
                                      ["--p-max", "1"], ["--p-max", "0"],
                                      ["--seed", "-1"]])
    def test_options_that_check_nothing_are_rejected(self, capsys, argv):
        # zero walker datasets or no (p, r) case used to print "verification
        # PASSED"; a negative seed ended in NumPy's traceback
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert f"argument {argv[0]}: must be >= " in capsys.readouterr().err

    def test_failure_injection_gives_nonzero_exit(self, monkeypatch, capsys):
        import sono.verify as verify_mod

        def broken(seed=0):
            return [("coverage simulation", False, "injected failure")]

        monkeypatch.setattr(verify_mod, "suite_coverage_simulation", broken)
        rc = main(["verify", "--suite", "coverage"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [(["--sims", "0"], "argument --sims: must be >= 1"),
                                           (["--seed", "-1"], "argument --seed: must be >= 0")])
def test_coverage_sweep_rejects_options_that_check_nothing(argv, message):
    # --sims 0 used to print nan coverage for every shape
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "coverage_sweep.py")
    done = subprocess.run([sys.executable, script, *argv], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2, done
    assert message in done.stderr


# The last stderr line of each failing exit code (README, "Exit codes").
_FAILURE_PREFIXES = {1: "error: ", 2: "ingestion error: ", 3: "threshold error: "}


@st.composite
def _csv_bytes(draw):
    """Delimited bytes over small level sets. Now and then (each feature on
    its own, so that many inputs still reach scoring): fields that hold
    delimiters, quotes and line breaks, quoted fields, ragged lines, a BOM,
    an undecodable byte, a field past csv.field_size_limit(); line ends mix
    LF, CRLF and CR, with blank lines between."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    width = draw(st.sampled_from([1, 2, 2, 3, 3]))
    field = st.sampled_from(["a", "b", "c", "?", ""])
    if draw(st.integers(0, 3)) == 0:
        field = st.one_of(field, st.text(alphabet='ab?,;\t"\r\n ', max_size=4))
    sizes = [width] if draw(st.integers(0, 3)) else [width, 0, width + 1]
    quoted = draw(st.integers(0, 3)) == 0
    # most inputs get a header of distinct names, the rest a drawn one
    lines = [delimiter.join("ABC"[:width]) + "\n"] if draw(st.integers(0, 3)) else []
    for _ in range(draw(st.integers(0, 40))):
        size = draw(st.sampled_from(sizes))
        fields = draw(st.lists(field, min_size=size, max_size=size))
        if quoted and draw(st.booleans()):
            fields = [f'"{f}"' for f in fields]
        lines.append(delimiter.join(fields)
                     + draw(st.sampled_from(["\n", "\r\n", "\r", "\n\r", "\r\n\r\n"])))
    if lines and draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines) - 1)),
                     "x" * (csv.field_size_limit() + 1) + "\n")
    raw = "".join(lines).encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80"])) + raw[at:]
    return delimiter, raw


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_bytes())
def test_no_input_ends_in_a_traceback(monkeypatch, case):
    # any bytes end in exit 0 or in one documented error line, in-process
    delimiter, raw = case
    monkeypatch.delenv("SONO_CACHE_DIR", raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["score", "--input", path, "--out", os.path.join(tmp, "out"),
                           "--max-len", "2", "--delimiter", delimiter])
    text = err.getvalue()
    assert "Traceback" not in text
    assert status in (0, 1, 2, 3), text
    if status:
        assert text.splitlines()[-1].startswith(_FAILURE_PREFIXES[status]), text


# Any JSON value: NaN and +-Infinity among the numbers, nested lists and objects.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)

# Per config key, values that are right or nearly so, so that many runs score.
_CONFIG_VALUES = {
    "input": st.text(max_size=3), "out": st.text(max_size=3),
    "probs": st.sampled_from(["", "nope.json", "probs.json"]),
    "mode": st.sampled_from(["infrequent", "frequent", "both"]),
    "alpha": st.sampled_from([0.05, 0.2, 0.5, 0, 1e-300, -1.0]),
    "r": st.sampled_from([0.5, 2, 3.5, 0, 1e300]),
    "prune": st.booleans(),
    "max_len": st.integers(-1, 4),
    "format": st.sampled_from(["csv", "csv,json", ["csv", "json"], [], "xml", ["csv", 1]]),
    "drop_cols": st.sampled_from([[], ["C"], "A,B,C", ["Z"], "C,C"]),
    "missing": st.sampled_from(["drop", "level", "zap"]),
    "oracle_nu": st.booleans(),
    "delimiter": st.sampled_from([",", ";", ";;", "", '"', "\n", "\r"]),
    "header": st.booleans(),
    "missing_markers": st.sampled_from([[], ["?"], "?,", ["a1"]]),
    "level_order": st.sampled_from(["first", "lexicographic", "sideways"]),
    "maxlen_rule": st.sampled_from(["any-cell", "all-cells", "some"]),
    "max_cells": st.sampled_from([1e7, 100, 1, 0.5]),
    "threads": st.integers(0, 4),  # retired: ignored with a warning
}

# The levels of _SCORED_ROWS, and a variable that it does not have.
_LEVELS = {"A": ["a1", "a2", "a3"], "B": ["b1", "b2"], "C": ["c1", "c2"], "Z": ["z1"]}
# B mostly follows A, so that some rows score.
_rng = np.random.default_rng(9)
_SCORED_ROWS = [[f"a{a}", f"b{1 + (a > 1) if r < 0.9 else 1}", f"c{c}"]
                for a, r, c in zip(_rng.integers(1, 4, size=150).tolist(),
                                   _rng.random(150).tolist(),
                                   _rng.integers(1, 3, size=150).tolist())]


@st.composite
def _config_docs(draw):
    """A config file: most hold an object of known keys, each with a likely
    value or any JSON value, some an unknown key or the object nested
    under "config" as in run.json; the rest any JSON document."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), unique=True, max_size=4))
    doc = {key: draw(_CONFIG_VALUES[key] if draw(st.integers(0, 5)) else _JSON)
           for key in keys}
    if draw(st.integers(0, 7)) == 0:
        doc[draw(st.text(max_size=5))] = draw(_JSON)
    return {"config": doc} if draw(st.integers(0, 5)) == 0 else doc


@st.composite
def _probability_docs(draw):
    """A probability file: most map variables to their levels' probabilities,
    as an object or as a list of one-entry objects, equal shares or any
    number, now and then with a level or a variable too few or too many; the
    rest any JSON document."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = {}
    names = ["A", "B", "C"] + (["Z"] if draw(st.integers(0, 7)) == 0 else [])
    for var in draw(st.lists(st.sampled_from(names), unique=True, max_size=3)):
        if draw(st.integers(0, 7)) == 0:
            doc[var] = draw(_JSON)
            continue
        labels = _LEVELS[var] + (["new"] if draw(st.booleans()) else [])
        if draw(st.integers(0, 7)) == 0:
            labels.remove(draw(st.sampled_from(labels)))
        number = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(),
                           st.booleans(), st.text(max_size=2))
        spec = {lab: draw(number) if draw(st.integers(0, 7)) == 0 else 1 / len(labels)
                for lab in labels}
        doc[var] = [{k: v} for k, v in spec.items()] if draw(st.booleans()) else spec
    return doc


@pytest.mark.filterwarnings("ignore:r=.* strongly damps longer itemsets")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.none() | _config_docs(), probs=st.none() | _probability_docs())
def test_no_config_or_probability_file_ends_in_a_traceback(monkeypatch, config, probs):
    # any --config and --probs documents end in exit 0 or in one documented
    # error line, in-process; on exit 0 each contributions row sums to its score
    monkeypatch.delenv("SONO_CACHE_DIR", raising=False)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths in a config file land here
        try:
            write_csv("in.csv", _SCORED_ROWS)
            argv = ["score", "--input", "in.csv", "--out", "out"]
            for flag, name, doc in (("--config", "config.json", config),
                                    ("--probs", "probs.json", probs)):
                if doc is not None:
                    with open(name, "w") as fh:
                        json.dump(doc, fh)
                    argv += [flag, name]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main(argv)
            text = err.getvalue()
            assert "Traceback" not in text
            assert status in (0, 1, 2, 3), text
            if status:
                assert text.splitlines()[-1].startswith(_FAILURE_PREFIXES[status]), text
            elif os.path.exists(os.path.join("out", "contributions.csv")):
                with open(os.path.join("out", "scores.csv"), newline="") as fs, \
                        open(os.path.join("out", "contributions.csv"), newline="") as fc:
                    for s_row, c_row in zip(list(csv.reader(fs))[1:],
                                            list(csv.reader(fc))[1:]):
                        assert math.isclose(math.fsum(map(float, c_row[1:])),
                                            float(s_row[1]), rel_tol=1e-9, abs_tol=1e-12)
        finally:
            os.chdir(cwd)

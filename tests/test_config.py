"""A RunConfig checks every option when it is made: the same bad option
raises the same error from a library call, a --config file or the command
line, and no generated set of options ends in a non-sono exception."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sono import RunConfig, empirical_model, load_dataset, read_csv, run_analysis
from sono.cli import main
from sono.config import merge_config
from sono.errors import DomainError, IngestionError, SonoError

from conftest import make_dataset

_PREFIX = {1: "error: ", 2: "ingestion error: "}


@pytest.mark.parametrize("name, value, error, message, argv", [
    ("alpha", "0.05", IngestionError, "option 'alpha' must be of type float, got '0.05'",
     None),
    ("max_len", 1.5, IngestionError, "option 'max_len' must be of type int | None, got 1.5",
     None),
    ("prune", "no", IngestionError, "option 'prune' must be of type bool, got 'no'", None),
    ("r", "2", IngestionError, "option 'r' must be of type float, got '2'", None),
    ("format", ["csv", 1], IngestionError,
     "option 'format' must be of type tuple[str, ...], got ['csv', 1]", None),
    ("alpha", 0.5, DomainError, "alpha must leave a confidence level 1 - 2*alpha in (0, 1), "
     "got alpha 0.5", ["--alpha", "0.5"]),
    ("mode", "sideways", DomainError, "mode must be infrequent or frequent, got 'sideways'",
     ["--mode", "sideways"]),
    ("max_len", 0, DomainError, "max-len must be >= 1", ["--max-len", "0"]),
    ("max_cells", 0.5, DomainError, "max-cells must be >= 1", ["--max-cells", "0.5"]),
    ("delimiter", ";;", IngestionError, "delimiter must be one character, got ';;'",
     ["--delimiter", ";;"]),
    ("missing", "zap", IngestionError, "unknown missing policy 'zap'", ["--missing", "zap"]),
    ("out", "o\x00", IngestionError, "option 'out' cannot name a file, got 'o\\x00'",
     ["--out", "o\x00"]),
    ("out", "o\ud800x", IngestionError, "option 'out' cannot name a file, got 'o\\ud800x'",
     ["--out", "o\ud800x"]),
    ("input", "in\x00.csv", IngestionError,
     "option 'input' cannot name a file, got 'in\\x00.csv'", ["--input", "in\x00.csv"]),
    ("input", "in\ud800.csv", IngestionError,
     "option 'input' cannot name a file, got 'in\\ud800.csv'", ["--input", "in\ud800.csv"]),
    ("probs", "p\x00.json", IngestionError,
     "option 'probs' cannot name a file, got 'p\\x00.json'", ["--probs", "p\x00.json"]),
])
def test_bad_option_raises_the_same_error_from_every_source(
        tmp_path, monkeypatch, capsys, name, value, error, message, argv):
    with pytest.raises(SonoError) as got:
        RunConfig(**{name: value})
    assert type(got.value) is error and str(got.value) == message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.csv").write_text("A,B\na,b\na,c\n")
    (tmp_path / "config.json").write_text(json.dumps({name: value}))
    base = [] if name == "input" else ["--input", "in.csv"]
    runs = [[*base, "--config", "config.json"]] + ([[*base, *argv]] if argv else [])
    for args in runs:
        assert main(["score", *args]) == (2 if error is IngestionError else 1)
        assert capsys.readouterr().err.splitlines() == [_PREFIX[2 if error is IngestionError
                                                                else 1] + message]
        assert sorted(os.listdir(tmp_path)) == ["config.json", "in.csv"]  # no --out made


@pytest.mark.parametrize("options", [
    {"alpha": "0.05"}, {"max_len": 1.5}, {"prune": "no"}, {"r": "2"}, {"format": None},
    {"alpha": 10 ** 400}, {"max_cells": -10 ** 400}, {"delimiter": "\x00"}])
def test_library_value_of_the_wrong_type_raises_an_ingestion_error(options):
    # these used to end in a TypeError or an OverflowError inside a run, to
    # fail inside the lattice walk (max_len 1.5) or to prune silently ("no")
    with pytest.raises(IngestionError):
        RunConfig(**options)


def test_config_is_frozen_and_replace_checks_again():
    cfg = RunConfig(format="csv")
    assert cfg.format == ("csv",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = 0.5
    with pytest.raises(DomainError, match="alpha must leave a confidence level"):
        dataclasses.replace(cfg, alpha=0.5)
    assert dataclasses.replace(cfg, mode="frequent").format == ("csv",)
    assert merge_config({"format": ["csv"], "max_len": None}, {"mode": "frequent"}) == \
        RunConfig(format=("csv",), mode="frequent")


# Values of every kind, whatever the field: the wrong type, NaN and +-inf,
# empty strings and lists, and strings that cannot name a file.
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, "", (), []]),
    st.text(max_size=3), st.lists(st.text(max_size=2), max_size=2),
    st.lists(st.integers(), max_size=2),
    st.sampled_from(["in\x00.csv", "o\ud800x", "\udc80", "\x00", "\ud800"]))

# Per field, values of its type that are right or nearly so, so that many
# configs are made and run.
_RIGHT = {
    "input": st.text(max_size=3), "out": st.text(max_size=3),
    "probs": st.none() | st.text(max_size=3),
    "mode": st.sampled_from(["infrequent", "frequent", "both"]),
    "alpha": st.floats(0, 0.6) | st.sampled_from([1e-300, 1e-12]),
    "r": st.floats(0, 8) | st.sampled_from([1e300, 5e-324]),
    "prune": st.booleans(), "max_len": st.none() | st.integers(-1, 5),
    "format": st.sampled_from(["csv", "csv,json", ("json", "svg"), "xml", ["csv"]]),
    "drop_cols": st.sampled_from([(), "X1", ["X2", "X3"], "X1,X2,X3", "Z"]),
    "missing": st.sampled_from(["drop", "level", "zap"]), "oracle_nu": st.booleans(),
    "delimiter": st.sampled_from([",", ";", "\t", ";;", '"', "\n"]) | st.text(max_size=1),
    "header": st.booleans(),
    "missing_markers": st.sampled_from([(), "?,", ["2"], ["", "1"]]),
    "level_order": st.sampled_from(["first", "lexicographic", "sideways"]),
    "maxlen_rule": st.sampled_from(["any-cell", "all-cells", "some"]),
    "max_cells": st.floats(0, 1e8) | st.sampled_from([1, 3, 1e7]),
}
assert set(_RIGHT) == {f.name for f in dataclasses.fields(RunConfig)}

_ROWS = [["X1", "X2", "X3"], *(["1", "1", "2"] for _ in range(6)), ["2", "1", "1"],
         ["1", "2", "1"], ["2", "2", "2"]]
_DS = make_dataset([[1, 1, 2]] * 6 + [[2, 1, 1], [1, 2, 1], [2, 2, 2]])
_MODEL = empirical_model(_DS)


@st.composite
def _options(draw):
    """Keyword arguments for some fields: mostly values of the field's type,
    now and then a value of any kind."""
    names = draw(st.lists(st.sampled_from(sorted(_RIGHT)), unique=True, max_size=8))
    return {name: draw(_ANY if draw(st.integers(0, 7)) == 0 else _RIGHT[name])
            for name in names}


@settings(max_examples=500, deadline=None)
@given(_options())
@example({"alpha": 10 ** 5000})  # integers Python will not print in full
@example({"max_cells": 10 ** 5000})
@example({"max_len": 10 ** 5000})
def test_no_generated_config_ends_in_another_exception(options):
    # a RunConfig is refused with a SonoError, or it reads and scores a
    # tiny table, or refuses it, with one
    try:
        cfg = RunConfig(**options)
    except SonoError:
        return
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"SONO_CACHE_DIR": ""}), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the advice on a large r
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.writelines(cfg.delimiter.join(row) + "\n" for row in _ROWS)
        for load in (lambda: load_dataset(_ROWS, cfg), lambda: read_csv(path, cfg)):
            try:
                load()
            except SonoError:
                pass
        try:
            run_analysis(_DS, _MODEL, cfg)
        except SonoError:
            pass


@pytest.mark.parametrize("name, message", [
    ("alpha", "option 'alpha' must be of type float, got <an integer of about 5001 digits>"),
    ("max_cells",
     "option 'max_cells' must be of type float, got <an integer of about 5001 digits>"),
    ("max_len", "max-len <an integer of about 5001 digits> exceeds p=3"),
])
def test_an_integer_too_long_to_print_is_named_by_its_length(name, message):
    with pytest.raises(SonoError) as err:
        run_analysis(_DS, _MODEL, RunConfig(**{name: 10 ** 5000}))
    assert str(err.value) == message

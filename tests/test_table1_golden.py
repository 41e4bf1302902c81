"""`sono score` on the Table-1 shapes writes what tests/golden_table1.json
recorded: maxlen, violating subset, c_by_size and the digests of scores.csv
and contributions.csv, in both modes. flare10, the slowest shape, is checked
by a CI step through scripts/table1_golden.py."""
from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
from table1_golden import score_shape  # noqa: E402

with open(os.path.join(ROOT, "tests", "golden_table1.json")) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("name", ["thyroid15", "lymph", "tumor17"])
def test_table1_shape_outputs_match_the_recorded_ones(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SONO_CACHE_DIR", raising=False)
    assert score_shape(name, str(tmp_path)) == GOLDEN[name]

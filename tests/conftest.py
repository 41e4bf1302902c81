"""Shared fixtures: tiny datasets, a stub threshold provider, UCI data
discovery, and fresh interpreters that import this checkout's sono."""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import sono
from sono import Dataset, Flags, RunConfig, load_dataset
from sono.prepare import RECIPES

UCI_ENV = "SONO_DATA_DIR"
SONO_PATH = os.path.dirname(os.path.dirname(os.path.abspath(sono.__file__)))


def run_python(code, *args, env=None):
    """Run `code` in a fresh interpreter that imports sono from this checkout.
    `env` sets environment variables; a variable it maps to None is removed."""
    full = dict(os.environ)
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    full["PYTHONPATH"] = os.pathsep.join(
        [SONO_PATH, *filter(None, [full.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *args], env=full,
                          capture_output=True, text=True, timeout=120)


def uci_raw_dir() -> str | None:
    """Directory with the raw UCI files, if the user provided one."""
    for cand in (os.environ.get(UCI_ENV),
                 os.path.join(os.path.dirname(__file__), "data", "uci")):
        if cand and os.path.isdir(cand):
            return cand
    return None


def require_uci(name: str) -> str:
    d = uci_raw_dir()
    if d is None:
        pytest.skip(f"raw UCI files not present (set ${UCI_ENV}); "
                    f"needed: {', '.join(RECIPES[name].files)}")
    for fname in RECIPES[name].files:
        if not os.path.exists(os.path.join(d, fname)):
            pytest.skip(f"raw file {fname} for {name} not in {d} "
                        f"(download from {RECIPES[name].url})")
    return d


class StubTable:
    """Duck-typed ThresholdTable with handcrafted per-cell thresholds."""

    def __init__(self, subset, sigma_by_levels, default_sigma):
        self.subset = subset
        self.by_levels = sigma_by_levels
        self._default = default_sigma

    def sigma(self, levels, mode):
        return np.array([self.by_levels.get((self.subset, tuple(lv)), self._default)
                         for lv in np.asarray(levels).tolist()], dtype=float)


class StubProvider:
    """Threshold provider for handcrafted search scenarios."""

    def __init__(self, sigma_by_levels, default_sigma):
        self.sigma_by_levels = dict(sigma_by_levels)
        self.default_sigma = default_sigma

    def get(self, subset):
        return StubTable(tuple(sorted(subset)), self.sigma_by_levels, self.default_sigma)


def flags_of(flag_sets, p) -> Flags:
    """The flag table over p variables of handcrafted per-row lists of
    (entries, supp, sigma) cells, entries the (variable, level) pairs; each
    row is its own distinct row."""
    cells: dict = {}
    rows, ids = [], []
    for i, recs in enumerate(flag_sets):
        for rec in recs:
            rows.append(i)
            ids.append(cells.setdefault(rec, len(cells)))
    levels = np.zeros((len(cells), p), dtype=np.int32)
    for k, (entries, _, _) in enumerate(cells):
        for var, level in entries:
            levels[k, var] = level
    return Flags(levels, np.array([supp for _, supp, _ in cells], dtype=np.int64),
                 np.array([sigma for _, _, sigma in cells], dtype=float),
                 np.array(rows, dtype=np.intp), np.array(ids, dtype=np.intp),
                 np.arange(len(flag_sets)))


@pytest.fixture
def toy_table():
    """The 3x2 first-appearance encoding example."""
    return load_dataset([["a", "x"], ["b", "x"], ["a", "y"]],
                        RunConfig(header=False))


def make_dataset(codes, level_counts=None) -> Dataset:
    codes = np.asarray(codes, dtype=np.int32)
    p = codes.shape[1]
    if level_counts is None:
        level_counts = tuple(int(codes[:, j].max()) for j in range(p))
    return Dataset.from_codes(
        codes,
        level_counts=tuple(level_counts),
        variable_names=tuple(f"X{j + 1}" for j in range(p)),
        level_labels=tuple(tuple(str(k + 1) for k in range(l))
                           for l in level_counts),
    )

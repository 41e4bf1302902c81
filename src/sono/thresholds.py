"""Per-itemset support thresholds and the maximum search depth.

For a variable subset S the |S|-way contingency table is a multinomial with
the Kronecker product of the per-variable probability vectors as cell
probabilities. One integer half-width c (and its gamma) is found per subset at
confidence level 1-2*alpha; the infrequent-mode threshold of a cell with
probability p_d is then n*p_d - c and the frequent-mode threshold is
n*p_d + c + 2*gamma. A `ThresholdTable` keeps only (c, gamma) and the
subset's probability vectors: `sigma` prices the cells it is shown, with p_d
from `data.cell_probs`, and `max_sigma` the infrequent threshold of the most
probable cell. The maxlen rule itself asks one question per subset,
"is c <= t = floor(n*p_ref - 2)?", which sono.simci.c_at_most answers from
c's definition, mostly from the binomial bracket at t+1 or, where t+1 is
past the exact prefix, at the Hoeffding point c_h; this module only supplies
p_ref, t and the table-size check. `ThresholdProvider` serves both the tables
and the maxlen decision, from memory or from its spill file. A provider with
a spill file names it by a BLAKE2b digest from CPython's `_blake2` module,
which loads no OpenSSL.

sono.simci, and SciPy's ufunc module behind it, are imported inside the
functions that compute (and looked up there at each call), at a run's first
table or maxlen question that must be computed. That is the one load order:
no import of the scoring path loads them, and a run whose tables and maxlen
all come from the spill file never does; the spill key reads the sources as
files.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .config import DEFAULT_MAX_CELLS, read_json_object
from .data import ProbabilityModel, cell_probs, subset_cell_probs
from .errors import DomainError, IngestionError, TableExplosion, log_warning

if TYPE_CHECKING:
    from .simci import CellSpec

SIGMA_FLOOR = 2.0


def _extreme_cell_prob(pi: Sequence[np.ndarray], largest: bool) -> float:
    """Probability of the most (or, with largest=False, least) probable cell."""
    pick = np.argmax if largest else np.argmin
    return float(cell_probs(pi, np.array([[pick(v) + 1 for v in pi]]))[0])


@dataclass(frozen=True)
class ThresholdTable:
    """The (c, gamma) of one variable subset and the thresholds it implies.

    `sigma(levels, mode)` gives the threshold of each cell named by a row of
    1-based levels; cells are never enumerated.
    """

    subset: tuple[int, ...]
    c: int
    gamma: float
    n: int
    pi: tuple[np.ndarray, ...]  # probability vectors of the subset's variables

    def _sigma(self, p, mode: str):
        """Threshold of a cell with probability p (scalar or array) in `mode`."""
        if mode == "infrequent":
            return self.n * p - self.c
        if mode == "frequent":
            return self.n * p + self.c + 2.0 * self.gamma
        raise DomainError(f"unknown mode {mode!r}")

    def sigma(self, levels: np.ndarray, mode: str) -> np.ndarray:
        """Thresholds of the cells given as rows of 1-based levels (cells x |subset|)."""
        return self._sigma(cell_probs(self.pi, levels), mode)

    def max_sigma(self) -> float:
        """Infrequent threshold of the table's most probable cell, observed or not."""
        return self._sigma(_extreme_cell_prob(self.pi, True), "infrequent")


@dataclass(frozen=True)
class MaxlenDecision:
    """Chosen maximum itemset length and the first subset that broke the rule."""

    maxlen: int
    violating_subset: tuple[int, ...] | None
    rule: str


def _check_table_cells(model: ProbabilityModel, subset: Sequence[int],
                       max_cells: float) -> None:
    """Refuse a subset whose full table has more than max_cells cells."""
    cells = 1.0
    for j in subset:
        cells *= model.level_counts[j]
    if cells > max_cells:
        raise TableExplosion(subset, cells, max_cells)


def _cell_spec(model: ProbabilityModel, n: int, subset: Sequence[int],
               max_cells: float) -> CellSpec:
    from .simci import CellSpec
    _check_table_cells(model, subset, max_cells)
    return CellSpec(probs=subset_cell_probs(model, subset), n=n)


def _table(model: ProbabilityModel, n: int, subset: tuple[int, ...],
           c: int, gamma: float) -> ThresholdTable:
    """The ThresholdTable of a sorted subset with a known (c, gamma)."""
    return ThresholdTable(
        subset=subset, c=c, gamma=gamma, n=n,
        pi=tuple(model.pi[j] for j in subset))


def subset_thresholds(model: ProbabilityModel, n: int, subset: Sequence[int],
                      alpha: float, *, method: str = "auto",
                      max_cells: float = DEFAULT_MAX_CELLS) -> ThresholdTable:
    """Threshold table for one variable subset (one c at level 1-2*alpha)."""
    from .simci import find_c
    subset = tuple(sorted(subset))
    spec = _cell_spec(model, n, subset, max_cells)
    c, gamma = find_c(spec, 1.0 - 2.0 * alpha, method)
    return _table(model, n, subset, c, gamma)


def _subset_passes(model: ProbabilityModel, n: int, subset: tuple[int, ...],
                   level: float, rule: str, method: str, max_cells: float) -> bool:
    """Does every-cell (all-cells) / some-cell (any-cell) sigma >= 2 hold?

    sigma_ref = n*p_ref - c(S) >= 2  <=>  c(S) <= t with t = floor(n*p_ref - 2),
    which simci.c_at_most answers, mostly without a nu evaluation.
    """
    from .simci import c_at_most
    p_ref = _extreme_cell_prob([model.pi[j] for j in subset], rule == "any-cell")
    if n * p_ref < SIGMA_FLOOR:
        return False  # sigma_ref < 2 for every c >= 0, no table needed
    t = math.floor(n * p_ref - SIGMA_FLOOR + 1e-9)  # <= n - 2, as p_ref <= 1
    return c_at_most(_cell_spec(model, n, subset, max_cells), level, t, method)


def determine_maxlen(model: ProbabilityModel, n: int, alpha: float, *,
                     rule: str = "any-cell", method: str = "auto",
                     max_cells: float = DEFAULT_MAX_CELLS) -> MaxlenDecision:
    """Largest M such that every subset of size <= M passes the sigma >= 2 rule.

    rule "any-cell" (default): a subset passes while its most probable cell
    keeps sigma >= 2 (a size fails once some table has every cell below 2).
    rule "all-cells": every cell of every subset must keep sigma >= 2.
    Sizes are swept upward and the first failing size stops the sweep; if even
    size 1 fails, maxlen is still 1. The rule uses the infrequent-style lower
    bounds in both modes.
    """
    if rule not in ("any-cell", "all-cells"):
        raise DomainError(f"unknown maxlen rule {rule!r}")
    p = model.p
    level = 1.0 - 2.0 * alpha
    for m in range(1, p + 1):
        for s in itertools.combinations(range(p), m):
            if not _subset_passes(model, n, s, level, rule, method, max_cells):
                return MaxlenDecision(maxlen=max(m - 1, 1),
                                      violating_subset=s, rule=rule)
    return MaxlenDecision(maxlen=p, violating_subset=None, rule=rule)


# A subset's spilled (c, gamma) is keyed by its comma-joined column indices,
# a maxlen decision by this prefix, the rule and max_cells.
_DECISION_PREFIX = "maxlen:"


def _valid_spill_key(key: str, p: int) -> bool:
    """A key in the form the provider writes: a subset's strictly increasing
    column indices in [0, p), comma-joined, or a decision's prefix, rule and
    max_cells, a float >= 1 in its repr."""
    if key.startswith(_DECISION_PREFIX):
        rule, _, cap = key[len(_DECISION_PREFIX):].partition(":")
        try:
            max_cells = float(cap)
        except ValueError:
            return False
        return rule in ("any-cell", "all-cells") and repr(max_cells) == cap and max_cells >= 1
    try:
        subset = [int(j) for j in key.split(",")]
    except ValueError:
        return False
    return (",".join(map(str, subset)) == key and 0 <= subset[0] and subset[-1] < p
            and all(a < b for a, b in zip(subset, subset[1:])))


def _valid_spill_entry(key: str, value, p: int, n: int) -> bool:
    """An entry under a key in the form the provider writes. A spilled (c,
    gamma) pair that find_c can return: an integer c in [0, n) and a gamma
    in [0, 1]. A spilled maxlen decision, [maxlen, violating_subset]: an
    integer maxlen in [1, p] and a violating subset that determine_maxlen can
    return with it, None only at maxlen p, else strictly increasing column
    indices, maxlen + 1 of them (or one, when size 1 already fails)."""
    if not isinstance(value, list) or len(value) != 2 or not _valid_spill_key(key, p):
        return False
    if key.startswith(_DECISION_PREFIX):
        maxlen, subset = value
        if type(maxlen) is not int or not 1 <= maxlen <= p:
            return False
        if subset is None:
            return maxlen == p
        return (isinstance(subset, list)
                and (len(subset) == maxlen + 1 or (maxlen == 1 and len(subset) == 1))
                and all(type(j) is int and 0 <= j < p for j in subset)
                and all(a < b for a, b in zip(subset, subset[1:])))
    c, gamma = value
    return type(c) is int and 0 <= c < n and type(gamma) in (int, float) and 0 <= gamma <= 1


def _hash_code(digest) -> None:
    """Add the code that computes spilled values to a spill key: this package's
    `*.py` files and SciPy's version file, read without importing them.
    OSError where simci.py, thresholds.py or that file are missing."""
    from importlib.util import find_spec
    package = os.path.dirname(__file__)
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    if not {"simci.py", "thresholds.py"} <= set(names):
        raise OSError(f"no sono sources in {package}")
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise OSError("SciPy not found")
    for path in [*(os.path.join(package, name) for name in names),
                 os.path.join(scipy.submodule_search_locations[0], "version.py")]:
        with open(path, "rb") as fh:
            code = fh.read()
        digest.update(f"|{os.path.basename(path)}|{len(code)}|".encode() + code)


class ThresholdProvider:
    """Caches ThresholdTables per subset and maxlen decisions per rule;
    optionally spills (c, gamma) and the decisions to one file on disk.

    `tables_computed` and `tables_from_spill` count the tables that `get`
    computed and those it built from spilled entries; memory hits count in
    neither."""

    def __init__(self, model: ProbabilityModel, n: int, alpha: float, *,
                 method: str = "auto", max_cells: float = DEFAULT_MAX_CELLS,
                 cache_dir: str | None = None):
        self.model = model
        self.n = n
        self.alpha = alpha
        self.method = method
        self.max_cells = max_cells
        self._tables: dict[tuple[int, ...], ThresholdTable] = {}
        self.tables_computed = 0
        self.tables_from_spill = 0
        self._spill_path = None
        self._spilled: dict[str, list] = {}
        # Whether the spill file differs from _spilled: entries were added,
        # or the file held what could not be used.
        self._unsaved = False
        if cache_dir:
            from _blake2 import blake2b  # hashlib would load OpenSSL's libcrypto
            digest = blake2b(digest_size=32)  # wide enough that no two keys collide
            for v in model.pi:
                digest.update(v.tobytes())
            digest.update(f"{n}|{alpha}|{method}|{model.level_counts}|{np.__version__}".encode())
            try:
                _hash_code(digest)
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as exc:
                log_warning(__name__, "cannot use threshold cache directory %s (%s); "
                                      "running without a spill file", cache_dir, exc)
            else:
                self._spill_path = os.path.join(
                    cache_dir, f"thresholds-{digest.hexdigest()}.json")
                if os.path.exists(self._spill_path):
                    self._spilled = self._load_spill()

    def _load_spill(self) -> dict[str, list]:
        """The spill file's well-formed entries; what cannot be used is reported."""
        try:
            spilled = read_json_object(self._spill_path, "it")
        except IngestionError as exc:
            log_warning(__name__, "ignoring threshold cache %s (%s); recomputing",
                        self._spill_path, exc)
            self._unsaved = True
            return {}
        bad = {key: value for key, value in spilled.items()
               if not _valid_spill_entry(key, value, self.model.p, self.n)}
        if bad:
            import reprlib  # a short repr, however long or deeply nested the entry
            key = next(iter(bad))
            log_warning(__name__, "ignoring threshold cache %s: %d malformed entries "
                                  "(first: %s: %s); recomputing them", self._spill_path,
                        len(bad), reprlib.repr(key), reprlib.repr(bad[key]))
            self._unsaved = True
        return {key: value for key, value in spilled.items() if key not in bad}

    def get(self, subset: Iterable[int]) -> ThresholdTable:
        key = tuple(sorted(subset))
        table = self._tables.get(key)
        if table is not None:
            return table
        spill_key = ",".join(map(str, key))
        if spill_key in self._spilled:
            _check_table_cells(self.model, key, self.max_cells)
            c, gamma = self._spilled[spill_key]
            table = _table(self.model, self.n, key, int(c), float(gamma))
            self.tables_from_spill += 1
        else:
            table = subset_thresholds(self.model, self.n, key, self.alpha,
                                      method=self.method, max_cells=self.max_cells)
            self._spilled[spill_key] = [table.c, table.gamma]
            self._unsaved = True
            self.tables_computed += 1
        self._tables[key] = table
        return table

    def maxlen(self, rule: str) -> MaxlenDecision:
        """determine_maxlen on this provider's inputs, or its spilled answer.

        The spill file's digest covers everything the decision depends on
        but the rule and max_cells, so the entry is keyed by those two.
        """
        key = f"{_DECISION_PREFIX}{rule}:{float(self.max_cells)!r}"
        if key in self._spilled:
            maxlen, subset = self._spilled[key]
            return MaxlenDecision(maxlen=maxlen, rule=rule,
                                  violating_subset=None if subset is None else tuple(subset))
        decision = determine_maxlen(self.model, self.n, self.alpha, rule=rule,
                                    method=self.method, max_cells=self.max_cells)
        subset = decision.violating_subset
        self._spilled[key] = [decision.maxlen, None if subset is None else list(subset)]
        self._unsaved = True
        return decision

    def flush_spill(self) -> None:
        """Write the spill file through a temp file and an atomic rename, if
        it differs from what this provider holds."""
        if not self._spill_path or not self._unsaved:
            return
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self._spill_path),
                                       prefix=".thresholds-", suffix=".tmp")
            # json.dumps encodes in C; json.dump's Python encoder leaves
            # reference cycles, which a command-line run keeps until exit.
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(self._spilled))
            os.replace(tmp, self._spill_path)
            self._unsaved = False
        except OSError as exc:
            log_warning(__name__, "cannot write threshold cache %s: %s", self._spill_path, exc)
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)

    def c_summary(self) -> dict[int, dict[str, float]]:
        """Per subset size: number of tables and the range of c values."""
        out: dict[int, dict[str, float]] = {}
        for key, table in sorted(self._tables.items()):
            d = out.setdefault(len(key), {"tables": 0, "c_min": table.c, "c_max": table.c})
            d["tables"] += 1
            d["c_min"] = min(d["c_min"], table.c)
            d["c_max"] = max(d["c_max"], table.c)
        return out

    def saturated_tables(self) -> int:
        """Tables whose largest infrequent threshold reaches n (every cell scores)."""
        return sum(1 for t in self._tables.values() if t.max_sigma() >= t.n)

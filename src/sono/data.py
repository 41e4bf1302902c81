"""Dataset container, level encoding, itemsets and the product-multinomial model.

Levels of each nominal variable are encoded as 1-based integer codes. The
probability model holds one probability vector per variable; under the
independence assumption the probability of a cell (an itemset) is the product
of its per-variable level probabilities. This module is the one home of that
product: `cell_probs` for given cells (row-wise), `subset_cell_probs` for the
full grid of a table.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, EmptyDatasetError, IngestionError

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class IngestionOptions:
    """How a raw string table is turned into coded data."""

    delimiter: str = ","
    header: bool = True
    missing_markers: tuple[str, ...] = ("?", "")
    missing_policy: str = "drop"  # "drop" (drop row) or "level" (own level)
    level_order: str = "first"  # "first" (first appearance) or "lexicographic"
    drop_cols: tuple[str, ...] = ()

    def __post_init__(self):
        if self.missing_policy not in ("drop", "level"):
            raise IngestionError(f"unknown missing policy {self.missing_policy!r}")
        if self.level_order not in ("first", "lexicographic"):
            raise IngestionError(f"unknown level order {self.level_order!r}")


@dataclass(frozen=True)
class Dataset:
    """n observations of p nominal variables, level-coded 1..level_counts[i]."""

    codes: np.ndarray  # (n, p) int32, 1-based
    level_counts: tuple[int, ...]
    variable_names: tuple[str, ...]
    level_labels: tuple[tuple[str, ...], ...]
    dropped_rows: int = 0

    def __post_init__(self):
        codes = np.ascontiguousarray(np.asarray(self.codes, dtype=np.int32))
        object.__setattr__(self, "codes", codes)
        n, p = codes.shape if codes.ndim == 2 else (0, 0)
        if n < 1 or p < 1:
            raise EmptyDatasetError("dataset needs at least one row and one variable")
        if not len(self.level_counts) == len(self.variable_names) == len(self.level_labels) == p:
            raise IngestionError("level_counts / variable_names / level_labels length mismatch")
        if len(set(self.variable_names)) != p:
            raise IngestionError("variable names must be unique")
        for i, (l, labels) in enumerate(zip(self.level_counts, self.level_labels)):
            if l < 1 or len(labels) != l:
                raise IngestionError(f"variable {self.variable_names[i]} has bad level set")
            col = codes[:, i]
            if col.min() < 1 or col.max() > l:
                raise DomainError(
                    f"codes of variable {self.variable_names[i]} outside 1..{l}"
                )
        codes.setflags(write=False)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def p(self) -> int:
        return self.codes.shape[1]

    def decode_row(self, i: int) -> tuple[str, ...]:
        return tuple(
            self.level_labels[j][self.codes[i, j] - 1] for j in range(self.p)
        )

    def with_extended_levels(self, extra_labels: Sequence[Sequence[str]]) -> "Dataset":
        """Append never-observed levels (e.g. from a user probability file)."""
        labels = []
        counts = []
        for i in range(self.p):
            merged = tuple(self.level_labels[i]) + tuple(extra_labels[i])
            if len(set(merged)) != len(merged):
                raise DomainError(f"duplicate level label for {self.variable_names[i]}")
            labels.append(merged)
            counts.append(len(merged))
        return replace(
            self, level_counts=tuple(counts), level_labels=tuple(labels)
        )


@dataclass(frozen=True)
class Itemset:
    """Canonical itemset: (variable_index, level_code) pairs, variables strictly increasing."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vars_ = [v for v, _ in self.entries]
        if not vars_:
            raise DomainError("itemset must be non-empty")
        if any(b <= a for a, b in zip(vars_, vars_[1:])):
            raise DomainError("itemset variables must be strictly increasing")

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "Itemset":
        return cls(tuple(sorted(pairs)))

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(l for _, l in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def contains(self, other: "Itemset") -> bool:
        return set(other.entries) <= set(self.entries)


@dataclass(frozen=True)
class ProbabilityModel:
    """Per-variable level probability vectors (empirical or user supplied)."""

    pi: tuple[np.ndarray, ...]
    source: str  # "empirical" or "user"
    level_counts: tuple[int, ...] = field(default=())

    def __post_init__(self):
        vecs = []
        for i, v in enumerate(self.pi):
            v = np.ascontiguousarray(np.asarray(v, dtype=float))
            if v.ndim != 1 or v.size < 1:
                raise DomainError(f"probability vector {i} must be 1-D and non-empty")
            if not np.all((v >= 0) & (v <= 1)):  # NaN fails both comparisons
                raise DomainError(f"probability vector {i} has entries not in [0, 1]")
            if abs(math.fsum(v.tolist()) - 1.0) > PROB_SUM_TOL:
                raise DomainError(f"probability vector {i} does not sum to 1")
            v.setflags(write=False)
            vecs.append(v)
        object.__setattr__(self, "pi", tuple(vecs))
        object.__setattr__(self, "level_counts", tuple(v.size for v in vecs))

    @property
    def p(self) -> int:
        return len(self.pi)


def load_dataset(rows: Sequence[Sequence[str]], options: IngestionOptions | None = None,
                 variable_names: Sequence[str] | None = None) -> Dataset:
    """Encode a rectangular table of strings into a Dataset.

    With header=True the first row names the variables. Levels are coded in
    first-appearance order unless options.level_order == "lexicographic".
    Raw strings are matched exactly (no case or whitespace normalization).
    Every name in options.drop_cols must name a column.

    Identical rows are checked, cleaned and encoded once: the distinct rows,
    in first-appearance order, meet every level in the order the rows do.
    """
    opts = options or IngestionOptions()
    rows = list(rows)
    if not rows:
        raise EmptyDatasetError("empty input table")
    if opts.header:
        names = [str(c) for c in rows[0]]
        body = rows[1:]
    else:
        names = list(variable_names) if variable_names else None
        body = rows
    index: dict[tuple, int] = {}
    group = np.array([index.setdefault(tuple(r), len(index)) for r in body],
                     dtype=np.intp)
    distinct = list(index)
    width = len(distinct[0]) if distinct else (len(names) if names else 0)
    if width == 0:
        raise EmptyDatasetError("empty input table")
    for d, r in enumerate(distinct):
        if len(r) != width:
            idx = int(np.argmax(group == d))
            raise IngestionError(f"ragged table: row {idx} has {len(r)} fields, expected {width}")
    if names is None:
        names = [f"V{i + 1}" for i in range(width)]
    if len(names) != width:
        raise IngestionError("header width does not match data width")

    unknown = [nm for nm in dict.fromkeys(opts.drop_cols) if nm not in names]
    if unknown:
        raise IngestionError(f"cannot drop unknown column(s): {', '.join(unknown)}")
    keep = [j for j, nm in enumerate(names) if nm not in set(opts.drop_cols)]
    if not keep:
        raise EmptyDatasetError("all columns dropped")
    names = [names[j] for j in keep]

    markers = set(opts.missing_markers)
    vals = [[r[j] for j in keep] for r in distinct]
    kept = np.array([opts.missing_policy != "drop" or not any(v in markers for v in r)
                     for r in vals], dtype=bool)
    cleaned = [r for r, k in zip(vals, kept) if k]
    if not cleaned:
        raise EmptyDatasetError("no rows left after missing-value cleaning")

    p = len(names)
    if opts.level_order == "lexicographic":
        vocab = [sorted({r[j] for r in cleaned}) for j in range(p)]
        maps = [{lab: k + 1 for k, lab in enumerate(v)} for v in vocab]
    else:
        maps = [dict() for _ in range(p)]
        vocab = [[] for _ in range(p)]
        for r in cleaned:
            for j, v in enumerate(r):
                if v not in maps[j]:
                    maps[j][v] = len(vocab[j]) + 1
                    vocab[j].append(v)
    distinct_codes = np.array([[maps[j][v] for j, v in enumerate(r)] for r in cleaned],
                              dtype=np.int32)
    row_kept = kept[group]
    codes = distinct_codes[(np.cumsum(kept) - 1)[group[row_kept]]]
    dropped = int(row_kept.size - np.count_nonzero(row_kept))
    return Dataset(
        codes=codes,
        level_counts=tuple(len(v) for v in vocab),
        variable_names=tuple(names),
        level_labels=tuple(tuple(v) for v in vocab),
        dropped_rows=dropped,
    )


def read_csv(path, options: IngestionOptions | None = None) -> Dataset:
    """Read a delimited UTF-8 text file and encode it."""
    opts = options or IngestionOptions()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=opts.delimiter))
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    return load_dataset(rows, opts)


def empirical_model(ds: Dataset) -> ProbabilityModel:
    """Observed level proportions, count(level)/n per variable."""
    n = ds.n
    vecs = []
    for i in range(ds.p):
        counts = np.bincount(ds.codes[:, i] - 1, minlength=ds.level_counts[i])
        vecs.append(counts.astype(float) / n)
    return ProbabilityModel(pi=tuple(vecs), source="empirical")


def user_model(ds: Dataset, mapping: Mapping[str, Mapping[str, float]]
               ) -> tuple[Dataset, ProbabilityModel]:
    """Model from a {variable: {level label: probability}} mapping.

    Variables absent from the mapping fall back to empirical proportions.
    Labels in the mapping that were never observed extend the variable's
    vocabulary (their probability participates in thresholds).
    """
    unknown = set(mapping) - set(ds.variable_names)
    if unknown:
        raise DomainError(f"probability file names unknown variables: {sorted(unknown)}")
    extra = []
    for i, name in enumerate(ds.variable_names):
        spec = mapping.get(name)
        if spec is None:
            extra.append(())
        elif not isinstance(spec, Mapping):
            raise DomainError(f"probabilities of {name} must map level labels to numbers")
        else:
            observed = set(ds.level_labels[i])
            missing = observed - set(spec)
            if missing:
                raise DomainError(
                    f"probability file for {name} misses observed levels {sorted(missing)}"
                )
            extra.append(tuple(lab for lab in spec if lab not in observed))
    ds2 = ds.with_extended_levels(extra) if any(extra) else ds
    emp = empirical_model(ds2)
    vecs = []
    for i, name in enumerate(ds2.variable_names):
        spec = mapping.get(name)
        if spec is None:
            vecs.append(emp.pi[i])
        else:
            try:
                vecs.append(np.array([float(spec[lab]) for lab in ds2.level_labels[i]]))
            except (TypeError, ValueError) as exc:
                raise DomainError(f"probabilities of {name} must be numbers: {exc}") from exc
    return ds2, ProbabilityModel(pi=tuple(vecs), source="user")


def cell_probs(pi: Sequence[np.ndarray], levels: np.ndarray) -> np.ndarray:
    """Independence product of each row of 1-based `levels` (cells x len(pi)),
    folded left from 1.0 so that every caller gets the same bits for a cell."""
    levels = np.asarray(levels)
    prob = np.ones(levels.shape[0], dtype=float)
    for j, vec in enumerate(pi):
        prob = prob * vec[levels[:, j] - 1]
    return prob


def cell_probability(model: ProbabilityModel, itemset: Itemset) -> float:
    """Independence product of the per-variable level probabilities of an itemset."""
    for var, level in itemset.entries:
        if not (0 <= var < model.p):
            raise DomainError(f"variable index {var} out of range")
        if not (1 <= level <= model.pi[var].size):
            raise DomainError(f"level {level} out of range for variable {var}")
    pi = [model.pi[var] for var in itemset.variables]
    return float(cell_probs(pi, np.array([itemset.levels]))[0])


def subset_cell_probs(model: ProbabilityModel, subset: Sequence[int]) -> np.ndarray:
    """Full Kronecker probability vector of the table over `subset` (C-order)."""
    out = np.array([1.0])
    for j in subset:
        out = np.multiply.outer(out, model.pi[j]).ravel()
    return out

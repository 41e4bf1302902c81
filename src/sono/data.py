"""Dataset container, level encoding and the product-multinomial model.

Levels are 1-based integer codes; a `Dataset` keeps each distinct row of codes
once, with each observation's distinct row. Rows are grouped one way,
numbered by first appearance (`_first_appearance`), whether they arrive as
raw strings (`load_dataset`) or as codes (`Dataset.from_codes`). The
probability model holds one probability vector per variable; under
independence the probability of a cell (an itemset) is the product of its
per-variable level probabilities. This module is the one home of that
product: `cell_probs` for given cells (row-wise), `subset_cell_probs` for the
full grid of a table.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import RunConfig
from .errors import DomainError, EmptyDatasetError, IngestionError

PROB_SUM_TOL = 1e-12


def _first_appearance(keys: Iterable) -> tuple[list, np.ndarray]:
    """The distinct keys, in first-appearance order, and each key's index
    among them."""
    index: dict = {}
    group = np.fromiter((index.setdefault(k, len(index)) for k in keys), dtype=np.intp)
    return list(index), group


@dataclass(frozen=True)
class Dataset:
    """n observations of p nominal variables, level-coded 1..level_counts[i].

    Each distinct row is kept once: observation i is `rows[group[i]]`, and
    `weight` counts each distinct row's observations. `codes`, the n x p
    matrix, is built on each access; `from_codes` groups one.
    """

    rows: np.ndarray  # (distinct, p) int32, 1-based: each distinct row once
    group: np.ndarray  # (n,) intp: each observation's distinct row
    level_counts: tuple[int, ...]
    variable_names: tuple[str, ...]
    level_labels: tuple[tuple[str, ...], ...]
    dropped_rows: int = 0
    weight: np.ndarray = field(init=False)  # (distinct,) bincount(group), in __post_init__

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.int32))
        distinct, p = rows.shape if rows.ndim == 2 else (0, 0)
        if distinct < 1 or p < 1:
            raise EmptyDatasetError("dataset needs at least one row and one variable")
        group = np.asarray(self.group)
        if group.ndim != 1 or group.size == 0 or group.dtype.kind not in "iu":
            raise DomainError("the row map must be a 1-D, non-empty integer array")
        if group.min() < 0 or group.max() >= distinct:
            raise DomainError(f"the row map names distinct rows outside 0..{distinct - 1}")
        group = np.ascontiguousarray(group, dtype=np.intp)
        weight = np.bincount(group, minlength=distinct)
        if not weight.all():
            raise DomainError(f"distinct row {int(np.argmin(weight))} has no observation")
        if not len(self.level_counts) == len(self.variable_names) == len(self.level_labels) == p:
            raise IngestionError("level_counts / variable_names / level_labels length mismatch")
        if len(set(self.variable_names)) != p:
            raise IngestionError("variable names must be unique")
        for i, (l, labels) in enumerate(zip(self.level_counts, self.level_labels)):
            if l < 1 or len(labels) != l:
                raise IngestionError(f"variable {self.variable_names[i]} has bad level set")
            if rows[:, i].min() < 1 or rows[:, i].max() > l:
                raise DomainError(f"codes of variable {self.variable_names[i]} outside 1..{l}")
        for name, value in (("rows", rows), ("group", group), ("weight", weight)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def from_codes(cls, codes, level_counts: tuple[int, ...],
                   variable_names: tuple[str, ...],
                   level_labels: tuple[tuple[str, ...], ...]) -> "Dataset":
        """A Dataset from a full (n, p) code matrix, its identical rows grouped."""
        codes = np.asarray(codes, dtype=np.int32)
        # a matrix of another rank is passed on as it is, for the rows check to reject
        rows, group = (_first_appearance(map(tuple, codes.tolist())) if codes.ndim == 2
                       else (codes, []))
        return cls(rows, group, level_counts, variable_names, level_labels)

    @property
    def codes(self) -> np.ndarray:
        """The (n, p) code matrix, `rows[group]`, built on each access."""
        return self.rows[self.group]

    @property
    def n(self) -> int:
        return self.group.size

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    def decode_row(self, i: int) -> tuple[str, ...]:
        row = self.rows[self.group[i]]
        return tuple(self.level_labels[j][row[j] - 1] for j in range(self.p))

    def with_extended_levels(self, extra_labels: Sequence[Sequence[str]]) -> "Dataset":
        """Append never-observed levels (e.g. from a user probability file)."""
        labels = tuple(tuple(own) + tuple(extra)
                       for own, extra in zip(self.level_labels, extra_labels))
        for name, merged in zip(self.variable_names, labels):
            if len(set(merged)) != len(merged):
                raise DomainError(f"duplicate level label for {name}")
        return replace(self, level_counts=tuple(map(len, labels)), level_labels=labels)


@dataclass(frozen=True)
class ProbabilityModel:
    """Per-variable level probability vectors (empirical or user supplied)."""

    pi: tuple[np.ndarray, ...]
    level_counts: tuple[int, ...] = field(init=False)  # from pi, in __post_init__

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


def load_dataset(rows: Iterable[Sequence[str]], cfg: RunConfig | None = None) -> Dataset:
    """Encode a rectangular table of strings into a Dataset.

    With header=True the first row names the variables, and a record of
    another width is reported as ragged; without a header they are named
    V1..Vp. Levels are coded in first-appearance order unless
    cfg.level_order == "lexicographic".
    Raw strings are matched exactly (no case or whitespace normalization).
    Every name in cfg.drop_cols must name a column. Of `cfg` (None means
    `RunConfig()`), only the ingestion options are read.

    `rows` is read once, as a stream, and only its distinct rows are kept:
    they are checked, cleaned and encoded once each, in first-appearance
    order, so they meet every level in the order the rows do. They become
    the Dataset's `rows`, and each kept row's distinct-row index its `group`;
    no n x p matrix is built.
    """
    cfg = cfg or RunConfig()
    cfg.check_ingestion()
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise EmptyDatasetError("empty input table")
    if cfg.header:
        names = [str(c) for c in first]
    else:
        names = None
        rows = itertools.chain([first], rows)
    distinct, group = _first_appearance(map(tuple, rows))
    if not distinct:
        raise EmptyDatasetError("the table has no data rows")
    width = len(names) if cfg.header else len(distinct[0])
    if width == 0:
        raise EmptyDatasetError("empty input table")
    for d, r in enumerate(distinct):
        if len(r) != width:
            idx = int(np.argmax(group == d))
            raise IngestionError(f"ragged table: row {idx} has {len(r)} fields, expected {width}")
    if names is None:
        names = [f"V{i + 1}" for i in range(width)]

    unknown = [nm for nm in dict.fromkeys(cfg.drop_cols) if nm not in names]
    if unknown:
        raise IngestionError(f"cannot drop unknown column(s): {', '.join(unknown)}")
    drop = set(cfg.drop_cols)
    keep = [j for j, nm in enumerate(names) if nm not in drop]
    if not keep:
        raise EmptyDatasetError("all columns dropped")
    names = [names[j] for j in keep]
    if len(keep) < width:  # rows that differ only in dropped columns become one
        distinct, merged = _first_appearance(tuple(r[j] for j in keep) for r in distinct)
        group = merged[group]

    markers = set(cfg.missing_markers)
    kept = np.array([cfg.missing != "drop" or not any(v in markers for v in r)
                     for r in distinct], dtype=bool)
    cleaned = [r for r, k in zip(distinct, kept) if k]
    if not cleaned:
        raise EmptyDatasetError("no rows left after missing-value cleaning")

    p = len(names)
    if cfg.level_order == "lexicographic":
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
    row_kept = kept[group]
    group = (np.cumsum(kept) - 1)[group[row_kept]]
    return Dataset(
        rows=np.array([[maps[j][v] for j, v in enumerate(r)] for r in cleaned],
                      dtype=np.int32),
        group=group,
        level_counts=tuple(len(v) for v in vocab),
        variable_names=tuple(names),
        level_labels=tuple(tuple(v) for v in vocab),
        dropped_rows=int(row_kept.size - group.size),
    )


def read_csv(path, cfg: RunConfig | None = None) -> Dataset:
    """Read a delimited UTF-8 text file and encode it; blank lines are skipped.

    It is decoded as UTF-8 whatever the locale, and a leading byte-order mark
    is dropped. The records stream into `load_dataset`, which keeps each
    distinct one once; a record ended by LF, CRLF or CR is the same record.
    The ingestion options of `cfg` are checked before the file is opened.
    """
    cfg = cfg or RunConfig()
    cfg.check_ingestion()
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return load_dataset((r for r in csv.reader(fh, delimiter=cfg.delimiter) if r), cfg)


def empirical_model(ds: Dataset) -> ProbabilityModel:
    """Observed level proportions, count(level)/n per variable, counted over
    the distinct rows with their weights (integer sums, so exact)."""
    return ProbabilityModel(pi=tuple(
        np.bincount(ds.rows[:, i] - 1, weights=ds.weight, minlength=l) / ds.n
        for i, l in enumerate(ds.level_counts)))


def user_model(ds: Dataset, mapping: Mapping[str, Mapping[str, float]
                                             | Sequence[Mapping[str, float]]]
               ) -> tuple[Dataset, ProbabilityModel]:
    """Model from a {variable: levels} mapping, where levels is either
    {level label: probability} or a list [{level label: probability}, ...],
    whose entries are merged in order. `mapping` itself is not changed.

    Variables absent from the mapping fall back to empirical proportions.
    Labels in the mapping that were never observed extend the variable's
    vocabulary (their probability participates in thresholds, and may be 0).
    An observed level may not have probability 0.
    """
    mapping = {name: ({k: v for entry in spec for k, v in entry.items()}
                      if isinstance(spec, list) and all(isinstance(e, Mapping) for e in spec)
                      else spec)
               for name, spec in mapping.items()}
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
            values = [spec[lab] for lab in ds2.level_labels[i]]
            for lab, value in zip(ds2.level_labels[i], values):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise DomainError(f"probabilities of {name} must be numbers, "
                                      f"got {value!r}")
                if value == 0 and lab in ds.level_labels[i]:
                    raise DomainError(f"observed level {lab!r} of {name} has probability 0")
            try:
                vecs.append(np.array(values, dtype=float))
            except OverflowError as exc:  # an integer beyond float range
                raise DomainError(f"probabilities of {name} must lie in [0, 1]: {exc}") from exc
    return ds2, ProbabilityModel(pi=tuple(vecs))


def cell_probs(pi: Sequence[np.ndarray], levels: np.ndarray) -> np.ndarray:
    """Independence product of each row of 1-based `levels` (cells x len(pi)),
    folded left from 1.0 so that every caller gets the same bits for a cell."""
    levels = np.asarray(levels)
    prob = np.ones(levels.shape[0], dtype=float)
    for j, vec in enumerate(pi):
        prob = prob * vec[levels[:, j] - 1]
    return prob


def subset_cell_probs(model: ProbabilityModel, subset: Sequence[int]) -> np.ndarray:
    """Full Kronecker probability vector of the table over `subset` (C-order)."""
    out = np.array([1.0])
    for j in subset:
        out = np.multiply.outer(out, model.pi[j]).ravel()
    return out

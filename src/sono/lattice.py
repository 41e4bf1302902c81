"""Support counting and pruned traversal of the itemset lattice.

Infrequent mode walks lengths 1..maxlen bottom-up and, with pruning on, never
tests a cell that contains an already-flagged itemset (supersets of flagged
itemsets are dropped). Frequent mode walks maxlen..1 top-down; with pruning
on, every subset of a flagged itemset is marked flagged without testing and
still recorded with its true support and threshold.

A row's flags depend only on its levels, so the search runs over the
distinct rows of the data (`Dataset.row_groups`), each weighted by how often
it occurs: a cell's support is the weighted count of the distinct rows that
hold it. Pruning state is kept per (subset, distinct row) as boolean masks:
bottom-up, whether the row's cell contains a flagged itemset; top-down,
whether it is flagged. A row's cell is its projection, so the masks
propagate level by level with ORs over neighbouring subsets. Both searches
return a `Flags` table.

A subset's observed cells are grouped by `subset_codes`, an integer key that
only this module knows; each cell's levels, which price it and name its
itemset, are read from one of its rows.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, Itemset
from .thresholds import ThresholdProvider


@dataclass(frozen=True)
class FlagRecord:
    """One flagged itemset: the cell, its support and its threshold."""

    itemset: Itemset
    supp: int
    sigma: float

    @property
    def length(self) -> int:
        return len(self.itemset)

    def key(self) -> tuple:
        return (self.itemset.entries, self.supp, self.sigma)


@dataclass
class SearchStats:
    """Instrumentation counters exposed to the CLI performance report."""

    subsets_materialized: int = 0
    subsets_skipped: int = 0
    cells_tested: int = 0
    cells_pruned: int = 0
    cells_flagged: int = 0
    deepest_level_tested: int = 0


@dataclass(frozen=True, eq=False)
class Flags:
    """The flagged cells of a search and the distinct rows that contain them.

    `records` holds the flagged cells in search order. Observation i is
    distinct row `group[i]`. Incidence k says that distinct row `row[k]`
    contains cell `records[cell[k]]`; incidences run subset by subset and by
    row within a subset, so every row meets its cells in search order.
    """

    records: tuple[FlagRecord, ...]
    row: np.ndarray
    cell: np.ndarray
    group: np.ndarray

    @property
    def n(self) -> int:
        """Number of observations."""
        return self.group.size

    @property
    def distinct(self) -> int:
        """Number of distinct rows."""
        return int(self.group.max(initial=-1)) + 1

    def by_row(self) -> list[list[FlagRecord]]:
        """Per-observation lists of flagged cells, each in search order."""
        out: list[list[FlagRecord]] = [[] for _ in range(self.distinct)]
        for i, k in zip(self.row.tolist(), self.cell.tolist()):
            out[i].append(self.records[k])
        return [list(out[d]) for d in self.group.tolist()]


def subset_codes(codes: np.ndarray, level_counts: Sequence[int],
                 subset: Sequence[int]) -> np.ndarray:
    """Every row's cell over `subset` as one integer, a grouping key that is
    never decoded: codes are equal iff cells are, and sort like level tuples."""
    out = np.zeros(codes.shape[0], dtype=np.int64)
    for j in subset:  # Horner: code = code * l_j + (x_j - 1)
        out *= level_counts[j]
        out += codes[:, j]
        out -= 1
    return out


def _observed_cells(codes: np.ndarray, weight: np.ndarray, level_counts: Sequence[int],
                    subset: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The observed cells over `subset` of rows with multiplicities `weight`,
    in level-tuple order: their 1-based levels (cells x |subset|), each row's
    cell index and each cell's support, the weighted count of its rows."""
    uniq, inv = np.unique(subset_codes(codes, level_counts, subset), return_inverse=True)
    rep = np.empty(uniq.size, dtype=np.intp)
    rep[inv] = np.arange(codes.shape[0])
    supports = np.bincount(inv, weights=weight, minlength=uniq.size).astype(np.int64)
    return codes[rep[:, None], subset], inv, supports


def _neighbour_mask(masks: dict[tuple[int, ...], np.ndarray], subset: tuple[int, ...],
                    p: int, n: int, up: bool) -> np.ndarray:
    """OR of the row masks of the drop-one subsets of `subset` (or, with `up`,
    of its add-one supersets); neighbours without a mask add nothing."""
    if up:
        near = (tuple(sorted(subset + (j,))) for j in range(p) if j not in subset)
    else:
        near = (subset[:d] + subset[d + 1:] for d in range(len(subset)))
    out = np.zeros(n, dtype=bool)
    for other in near:
        mask = masks.get(other)
        if mask is not None:
            out |= mask
    return out


class _Search:
    """One search's counters and the flagged cells and incidences found so far."""

    def __init__(self, ds: Dataset, provider: ThresholdProvider, mode: str):
        self.provider, self.mode, self.level_counts = provider, mode, ds.level_counts
        self.codes, self.group, self.weight = ds.row_groups
        self.stats = SearchStats()
        self.records: list[FlagRecord] = []
        self.rows: list[np.ndarray] = []
        self.cells: list[np.ndarray] = []

    def visit(self, subset: tuple[int, ...], near: np.ndarray) -> np.ndarray:
        """Materialize one subset's observed cells, flag them and record the flags.

        A cell holding a row of `near` is decided without a test: pruned in
        infrequent mode (it contains a flagged itemset), flagged in frequent
        mode (it lies under one). Returns the distinct-row mask of the
        flagged cells.
        """
        stats = self.stats
        levels, inv, counts = _observed_cells(self.codes, self.weight, self.level_counts,
                                              subset)
        stats.subsets_materialized += 1
        stats.deepest_level_tested = max(stats.deepest_level_tested, len(subset))
        decided = np.zeros(counts.size, dtype=bool)
        decided[inv[near]] = True
        n_decided = int(decided.sum())
        stats.cells_pruned += n_decided
        stats.cells_tested += counts.size - n_decided
        sigma = self.provider.get(subset).sigma(levels, self.mode)
        if self.mode == "infrequent":
            flagged = ~decided & (counts.astype(float) <= sigma)
        else:
            flagged = decided | (counts.astype(float) >= sigma)
        pos = np.flatnonzero(flagged)
        stats.cells_flagged += pos.size
        hit = flagged[inv]
        if pos.size:
            cell_id = np.cumsum(flagged) - 1 + len(self.records)
            for k, cell in zip(pos.tolist(), levels[pos].tolist()):
                self.records.append(FlagRecord(
                    itemset=Itemset(tuple(zip(subset, cell))),
                    supp=int(counts[k]),
                    sigma=float(sigma[k]),
                ))
            rows = np.flatnonzero(hit)
            self.rows.append(rows)
            self.cells.append(cell_id[inv[rows]])
        return hit

    def result(self) -> tuple[Flags, SearchStats]:
        def cat(parts: list[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
        flags = Flags(tuple(self.records), cat(self.rows), cat(self.cells), self.group)
        return flags, self.stats


def search_infrequent(ds: Dataset, provider: ThresholdProvider, maxlen: int,
                      prune: bool = True) -> tuple[Flags, SearchStats]:
    """Bottom-up search for cells with supp <= sigma."""
    search = _Search(ds, provider, "infrequent")
    rows, p = search.codes.shape
    dead_prev: dict[tuple[int, ...], np.ndarray] = {}
    for size in range(1, min(maxlen, p) + 1):
        dead_cur: dict[tuple[int, ...], np.ndarray] = {}
        live = []
        for subset in itertools.combinations(range(p), size):
            dead = _neighbour_mask(dead_prev, subset, p, rows, up=False)
            if dead.all():
                search.stats.subsets_skipped += 1
                dead_cur[subset] = dead
            else:
                live.append((subset, dead))
        if not live:
            break  # nothing alive at this size; supersets are dead too
        for subset, dead in live:
            hit = search.visit(subset, dead)
            if prune:
                dead_cur[subset] = dead | hit
        dead_prev = dead_cur
    return search.result()


def search_frequent(ds: Dataset, provider: ThresholdProvider, maxlen: int,
                    prune: bool = True) -> tuple[Flags, SearchStats]:
    """Top-down search for cells with supp >= sigma.

    With pruning on, subsets of a flagged itemset are recorded as flagged
    without being tested (their own supp and sigma are still reported): a
    cell is implied when one of its rows lies in a flagged cell, tested or
    implied, of a direct superset.
    """
    search = _Search(ds, provider, "frequent")
    rows, p = search.codes.shape
    hit_prev: dict[tuple[int, ...], np.ndarray] = {}
    for size in range(min(maxlen, p), 0, -1):
        hit_cur: dict[tuple[int, ...], np.ndarray] = {}
        for subset in itertools.combinations(range(p), size):
            implied = _neighbour_mask(hit_prev, subset, p, rows, up=True)
            hit = search.visit(subset, implied)
            if prune:
                hit_cur[subset] = hit
        hit_prev = hit_cur
    return search.result()

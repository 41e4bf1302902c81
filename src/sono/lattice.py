"""Support counting and a pruned, level-wise walk of the itemset lattice.

Both searches are one walk (`_walk`) over the subsets of the variables, one
size at a time: infrequent mode goes up from size 1 and, with pruning on,
never tests a cell that contains an already-flagged itemset; frequent mode
goes down from maxlen and, with pruning on, marks every subset of a flagged
itemset flagged without testing it, still recorded with its true support
and threshold.

A row's flags depend only on its levels, so the walk runs over the distinct
rows of the data (`Dataset.rows`), each weighted by how often it occurs
(`Dataset.weight`): a cell's support is the weighted count of the distinct
rows that hold it. The one kept state is a boolean mask per (subset, distinct
row) of the previous size, keyed by the subset's variable bitmask: the rows
whose cell is decided (in infrequent mode it contains a flagged itemset, in
frequent mode it lies under one) or flagged. A row's cell is its projection,
so a subset's decided rows are the OR of the masks of its neighbours one
variable away. Both searches return a `Flags` table of arrays, the one form
of a flagged cell; audits read it back per observation with
`oracle.flag_keys`.

A subset's observed cells are grouped by `subset_codes`, an integer key that
only this module knows; each cell's levels, which price it and name its
itemset, are read from one of its rows.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .thresholds import ThresholdProvider


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

    Cell k, in search order, has levels `levels[k]` (0 off its itemset),
    support `supp[k]` and threshold `sigma[k]`. Observation i is distinct row
    `group[i]`. Incidence j says that distinct row `row[j]` contains cell
    `cell[j]`; incidences run subset by subset and by row within a subset, so
    every row meets its cells in search order.
    """

    levels: np.ndarray
    supp: np.ndarray
    sigma: np.ndarray
    row: np.ndarray
    cell: np.ndarray
    group: np.ndarray

    @property
    def distinct(self) -> int:
        """Number of distinct rows."""
        return int(self.group.max(initial=-1)) + 1


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


def _walk(ds: Dataset, provider: ThresholdProvider, maxlen: int, prune: bool,
          mode: str) -> tuple[Flags, SearchStats]:
    """Visit sizes 1..maxlen in infrequent mode, maxlen..1 in frequent mode.

    With pruning on, a visited subset keeps its decided rows and the rows of
    its flagged cells. Infrequent mode alone skips a subset whose rows are
    all decided (keeping them all) and stops at a size where it visited
    nothing: every larger subset is then all decided too.
    """
    codes, weight = ds.rows, ds.weight
    rows, p = codes.shape
    top = min(maxlen, p)
    infrequent = mode == "infrequent"
    stats = SearchStats()
    # per flagging subset, after an empty one: cell levels, supp, sigma, row, cell
    parts = tuple([np.zeros(shape, dtype)] for shape, dtype in (
        ((0, p), codes.dtype), (0, np.int64), (0, float), (0, np.intp), (0, np.intp)))
    prev: dict[int, np.ndarray] = {}  # kept rows per variable bitmask, one size
    for size in range(1, top + 1) if infrequent else range(top, 0, -1):
        cur: dict[int, np.ndarray] = {}
        visited = False
        for subset in itertools.combinations(range(p), size):
            bits = sum(1 << j for j in subset)
            near = np.zeros(rows, dtype=bool)
            for j in range(p):
                kept = prev.get(bits ^ (1 << j))
                if kept is not None:
                    near |= kept
            if infrequent and near.all():
                stats.subsets_skipped += 1
                cur[bits] = near
                continue
            visited = True
            levels, inv, counts = _observed_cells(codes, weight, ds.level_counts, subset)
            stats.subsets_materialized += 1
            stats.deepest_level_tested = max(stats.deepest_level_tested, size)
            decided = np.zeros(counts.size, dtype=bool)
            decided[inv[near]] = True
            n_decided = int(decided.sum())
            stats.cells_pruned += n_decided
            stats.cells_tested += counts.size - n_decided
            sigma = provider.get(subset).sigma(levels, mode)
            if infrequent:
                flagged = ~decided & (counts.astype(float) <= sigma)
            else:
                flagged = decided | (counts.astype(float) >= sigma)
            pos = np.flatnonzero(flagged)
            hit = flagged[inv]
            if pos.size:
                cell_id = np.cumsum(flagged) - 1 + stats.cells_flagged
                block = np.zeros((pos.size, p), dtype=codes.dtype)
                block[:, subset] = levels[pos]
                hit_rows = np.flatnonzero(hit)
                for part, new in zip(parts, (block, counts[pos], sigma[pos], hit_rows,
                                             cell_id[inv[hit_rows]])):
                    part.append(new)
            stats.cells_flagged += pos.size
            if prune:
                cur[bits] = near | hit
        if not visited:
            break
        prev = cur
    joined = []
    for part in parts:
        joined.append(np.concatenate(part))
        part.clear()  # at most one array's parts stay alive beside the joined arrays
    return Flags(*joined, ds.group), stats


def search_infrequent(ds: Dataset, provider: ThresholdProvider, maxlen: int,
                      prune: bool = True) -> tuple[Flags, SearchStats]:
    """Bottom-up search for cells with supp <= sigma.

    With pruning on, a cell that contains a flagged itemset is not tested
    (supersets of flagged itemsets are dropped).
    """
    return _walk(ds, provider, maxlen, prune, "infrequent")


def search_frequent(ds: Dataset, provider: ThresholdProvider, maxlen: int,
                    prune: bool = True) -> tuple[Flags, SearchStats]:
    """Top-down search for cells with supp >= sigma.

    With pruning on, subsets of a flagged itemset are recorded as flagged
    without being tested (their own supp and sigma are still reported): a
    cell is implied when one of its rows lies in a flagged cell, tested or
    implied, of a direct superset.
    """
    return _walk(ds, provider, maxlen, prune, "frequent")

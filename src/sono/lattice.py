"""Support counting and pruned traversal of the itemset lattice.

Infrequent mode walks lengths 1..maxlen bottom-up and, with pruning on, never
tests a cell that contains an already-flagged itemset (supersets of flagged
itemsets are dropped). Frequent mode walks maxlen..1 top-down; with pruning
on, every subset of a flagged itemset is marked flagged without testing and
still recorded with its true support and threshold.

Pruning state is kept per (subset, row) as boolean "dead" masks: whether a
cell contains a flagged itemset is a property of the cell, and a row's cell is
its projection, so the per-row masks propagate level by level with ORs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, Itemset, subset_strides
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


def subset_codes(ds: Dataset, subset: Sequence[int]) -> np.ndarray:
    """C-order cell code of every row's projection onto `subset`."""
    subset = tuple(subset)
    strides = subset_strides(ds.level_counts, subset)
    codes = np.zeros(ds.n, dtype=np.int64)
    for stride, j in zip(strides, subset):
        codes += (ds.codes[:, j].astype(np.int64) - 1) * stride
    return codes


def count_support(ds: Dataset, subset: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Exact observed-cell supports of the table over `subset`, one data pass."""
    subset = tuple(sorted(subset))
    codes = subset_codes(ds, subset)
    uniq, counts = np.unique(codes, return_counts=True)
    strides = subset_strides(ds.level_counts, subset)
    out = {}
    for code, cnt in zip(uniq.tolist(), counts.tolist()):
        levels = tuple(int(code // strides[j]) % ds.level_counts[subset[j]] + 1
                       for j in range(len(subset)))
        out[levels] = int(cnt)
    return out


def _parent_dead(dead_prev: dict, subset: tuple[int, ...], n: int) -> np.ndarray:
    """OR of the dead masks of all drop-one sub-subsets."""
    if len(subset) == 1:
        return np.zeros(n, dtype=bool)
    out = None
    for drop in range(len(subset)):
        sub = subset[:drop] + subset[drop + 1:]
        mask = dead_prev[sub]
        out = mask.copy() if out is None else (out | mask)
    return out


def search_infrequent(ds: Dataset, provider: ThresholdProvider, maxlen: int,
                      prune: bool = True
                      ) -> tuple[list[list[FlagRecord]], SearchStats]:
    """Bottom-up search for cells with supp <= sigma; returns per-row flag lists."""
    n, p = ds.n, ds.p
    flag_sets: list[list[FlagRecord]] = [[] for _ in range(n)]
    stats = SearchStats()
    dead_prev: dict[tuple[int, ...], np.ndarray] = {}
    for size in range(1, min(maxlen, p) + 1):
        subsets = list(itertools.combinations(range(p), size))
        dead_cur: dict[tuple[int, ...], np.ndarray] = {}
        live_subsets = []
        parents = {}
        for subset in subsets:
            parent = _parent_dead(dead_prev, subset, n) if prune \
                else np.zeros(n, dtype=bool)
            parents[subset] = parent
            if prune and parent.all():
                stats.subsets_skipped += 1
                dead_cur[subset] = parent
            else:
                live_subsets.append(subset)
        if not live_subsets:
            dead_prev = dead_cur
            if prune:
                break  # nothing alive at this size; supersets are dead too
            continue
        for subset in live_subsets:
            parent = parents[subset]
            codes = subset_codes(ds, subset)
            uniq, inv, counts = np.unique(codes, return_inverse=True,
                                          return_counts=True)
            stats.subsets_materialized += 1
            stats.deepest_level_tested = max(stats.deepest_level_tested, size)
            if prune:
                tested = np.zeros(uniq.size, dtype=bool)
                tested[np.unique(inv[~parent])] = True
            else:
                tested = np.ones(uniq.size, dtype=bool)
            stats.cells_pruned += int(uniq.size - tested.sum())
            stats.cells_tested += int(tested.sum())
            table = provider.get(subset)
            sigma = table.sigma_codes(uniq, "infrequent")
            flagged = tested & (counts.astype(float) <= sigma)
            if flagged.any():
                stats.cells_flagged += int(flagged.sum())
                level_tuples = table.decode_codes(uniq[flagged])
                for pos, levels in zip(np.where(flagged)[0], level_tuples):
                    record = FlagRecord(
                        itemset=Itemset(tuple(zip(subset, levels))),
                        supp=int(counts[pos]),
                        sigma=float(sigma[pos]),
                    )
                    for row in np.where(inv == pos)[0]:
                        flag_sets[row].append(record)
            if prune:
                dead_cur[subset] = parent | flagged[inv]
        dead_prev = dead_cur
    return flag_sets, stats


def _project_flagged(flagged_levels: dict[tuple[int, ...], set[tuple[int, ...]]],
                     subset: tuple[int, ...], p: int) -> set[tuple[int, ...]]:
    """Cells of `subset` implied flagged by flagged cells of its direct supersets."""
    implied: set[tuple[int, ...]] = set()
    member = set(subset)
    for j in range(p):
        if j in member:
            continue
        sup = tuple(sorted(subset + (j,)))
        cells = flagged_levels.get(sup)
        if not cells:
            continue
        drop = sup.index(j)
        for levels in cells:
            implied.add(levels[:drop] + levels[drop + 1:])
    return implied


def search_frequent(ds: Dataset, provider: ThresholdProvider, maxlen: int,
                    prune: bool = True
                    ) -> tuple[list[list[FlagRecord]], SearchStats]:
    """Top-down search for cells with supp >= sigma.

    With pruning on, subsets of a flagged itemset are recorded as flagged
    without being tested (their own supp and sigma are still reported).
    """
    n, p = ds.n, ds.p
    flag_sets: list[list[FlagRecord]] = [[] for _ in range(n)]
    stats = SearchStats()
    flagged_levels: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    top = min(maxlen, p)
    for size in range(top, 0, -1):
        for subset in itertools.combinations(range(p), size):
            codes = subset_codes(ds, subset)
            uniq, inv, counts = np.unique(codes, return_inverse=True,
                                          return_counts=True)
            stats.subsets_materialized += 1
            stats.deepest_level_tested = max(stats.deepest_level_tested, size)
            table = provider.get(subset)
            sigma = table.sigma_codes(uniq, "frequent")
            level_tuples = table.decode_codes(uniq)
            pos_of = {lv: i for i, lv in enumerate(level_tuples)}
            implied = _project_flagged(flagged_levels, subset, p) if prune else set()
            implied &= set(pos_of)  # projections of observed cells are observed
            tested = np.ones(uniq.size, dtype=bool)
            for lv in implied:
                tested[pos_of[lv]] = False
            stats.cells_pruned += len(implied)
            stats.cells_tested += int(tested.sum())
            flagged = (~tested) | (tested & (counts.astype(float) >= sigma))
            if flagged.any():
                stats.cells_flagged += int(flagged.sum())
                for pos in np.where(flagged)[0]:
                    record = FlagRecord(
                        itemset=Itemset(tuple(zip(subset, level_tuples[pos]))),
                        supp=int(counts[pos]),
                        sigma=float(sigma[pos]),
                    )
                    for row in np.where(inv == pos)[0]:
                        flag_sets[row].append(record)
                if prune:
                    flagged_levels[subset] = {level_tuples[pos]
                                              for pos in np.where(flagged)[0]}
    return flag_sets, stats

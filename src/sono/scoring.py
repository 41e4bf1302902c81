"""Observation scores, outlyingness depths and the variable contribution matrix.

Infrequent mode: each flagged itemset d adds sigma_d / (supp(d) * |d|^r) to
the score of every observation containing d, and sigma_d / (supp(d) *
|d|^(r+1)) to each participating variable's contribution. Frequent mode uses
supp(d) / (sigma_d * (maxlen - |d| + 1)^r), split equally across the |d|
variables. Depth is the mean flagged length (infrequent) or its top-down
complement maxlen - |d| + 1 (frequent); observations with no flags get 0.

`build_report` computes each flagged cell's term, share and depth length
from the arrays of `lattice.Flags` and scatters them to the distinct rows
that contain it. Each distinct row is scored once, and the report keeps the
results at that size: a `ScoreReport` holds one score, depth and
contribution row per distinct row plus the row map `group`, and builds the
per-observation arrays only when they are read. The arrays are the only form
of a flagged cell here; audits read them back per observation with
`oracle.flag_keys`, which scoring never imports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .lattice import Flags


def validate_exponent(r: float) -> None:
    if r <= 0:
        raise DomainError("length exponent r must be > 0")


@dataclass(frozen=True)
class ScoreReport:
    """Scores, depths and contributions of one run, kept per distinct row.

    Observation i is distinct row `group[i]`. `scores`, `depths` and the
    n x p `contributions` are the per-observation arrays, gathered from the
    distinct rows on each access.
    """

    distinct_scores: np.ndarray
    distinct_depths: np.ndarray
    distinct_contributions: np.ndarray
    group: np.ndarray

    @property
    def scores(self) -> np.ndarray:
        return self.distinct_scores[self.group]

    @property
    def depths(self) -> np.ndarray:
        return self.distinct_depths[self.group]

    @property
    def contributions(self) -> np.ndarray:
        return self.distinct_contributions[self.group]


def _power(base: np.ndarray, e: float) -> np.ndarray:
    """base ** e elementwise, as a Python float computed once per base value."""
    values, inv = np.unique(base, return_inverse=True)
    return np.array([v ** e for v in values.tolist()])[inv]


def build_report(flags: Flags, r: float, mode: str, maxlen: int) -> ScoreReport:
    """Scores, depths and contributions of every row from the flagged-cell table.

    Scores are compensated sums (`math.fsum`, independent of order); depths
    are exact integer sums over counts; contributions add each share per
    (row, variable) in search order, starting from 0.0. So the results are
    bit-identical to summing each row's flagged cells one by one in search
    order. They are computed and kept per distinct row, with `flags.group`
    as the row map.
    """
    validate_exponent(r)
    supp, sigma = flags.supp, flags.sigma
    member = flags.levels > 0
    d = member.sum(axis=1)
    if (supp < 1).any():
        raise InternalConsistencyError(f"flagged record with supp={supp[supp < 1][0]}")
    if mode == "infrequent":
        terms = sigma / (supp * _power(d, r))
        shares = sigma / (supp * _power(d, r + 1.0))
        lengths = d
    else:
        if (sigma <= 0.0).any():
            raise InternalConsistencyError(
                f"frequent-mode flagged record with sigma={sigma[sigma <= 0.0][0]}")
        lengths = maxlen - d + 1
        k_r = _power(lengths, r)
        terms = supp / (sigma * k_r)
        shares = supp / (sigma * k_r * d)
    distinct, row, cell, p = flags.distinct, flags.row, flags.cell, member.shape[1]

    per_row = np.bincount(row, minlength=distinct)
    ends = np.cumsum(per_row).tolist()
    ordered = terms[cell[np.argsort(row)]]  # each row's terms, rows in turn
    scores = np.array([math.fsum(ordered[a:b].tolist())
                       for a, b in zip([0] + ends[:-1], ends)])

    depth_sum = np.bincount(row, weights=lengths.astype(float)[cell], minlength=distinct)
    depths = np.zeros(distinct)
    np.divide(depth_sum, per_row, out=depths, where=per_row > 0)

    # bincount adds its weights in incidence order, which is search order
    # within each row
    weight = shares[cell]
    contributions = np.zeros((distinct, p))
    for var in range(p):
        inside = member[cell, var]
        contributions[:, var] = np.bincount(row[inside], weights=weight[inside],
                                            minlength=distinct)
    return ScoreReport(distinct_scores=scores, distinct_depths=depths,
                       distinct_contributions=contributions, group=flags.group)


def max_score_bound(n: int, p: int, r: float, maxlen: int) -> float:
    """Largest attainable infrequent-mode score: (n-1) max_k C(p,k)/k^r.

    k runs over 1..min(maxlen, p). Each term is the unit-support
    configuration of all C(p,k) itemsets of one length (k = 1 is the p
    singletons), and no mixed-length configuration beats the best of them.
    The maximum is searched rather than read off the closed form
    k = floor((p - r)/2) or the p < 2^(r+1) + 1 threshold: both are wrong at
    some boundary points, e.g. (p=10, r=2) and (p=14, r=3).
    """
    if n < 1 or p < 1:
        raise DomainError("need n >= 1 and p >= 1")
    validate_exponent(r)
    k_max = max(1, min(maxlen, p))
    return (n - 1) * max(math.comb(p, k) / k ** r for k in range(1, k_max + 1))

"""Independent, slow, transparent reference implementations.

These exist so every fast-path result can be audited: a nested-loop lattice
walker that recomputes flags, scores, depths and contributions from the
definitions, with `flag_keys` reading a fast-path `Flags` table back into the
walker's per-observation sets of (entries, supp, sigma) keys, the one audit
view of the flag arrays; the maxlen rule by its definition (sigma_ref read
from every subset's own threshold table); an exact coverage probability (a
cell-by-cell convolution of its own plus a multinomial enumeration
self-check); the literal clamped sweep for the half-width c; the two-sided
simultaneous intervals and their Monte Carlo coverage; truncated-Poisson
moments by direct summation; and exact checkers for the two maximum-score
propositions, which search every flag configuration (no sampling).
Deliberately single-threaded and cache-free. The size caps are fixed
constants (WALKER_MAX_N, WALKER_MAX_P, WALKER_MAX_CELLS, EXACT_NU_WORK_CAP,
ENUMERATION_STATE_CAP): past them the oracle raises OracleRefusal.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import simci
from .data import Dataset, ProbabilityModel
from .errors import CISearchFailure, DomainError, OracleRefusal
from .lattice import Flags
from .scoring import ScoreReport
from .simci import (CONVOLUTION_WORK_CAP, CellSpec, _computes_exactly,
                    coverage_probability, poisson_log_pmf)
from .thresholds import SIGMA_FLOOR, MaxlenDecision, subset_thresholds


# Size caps: beyond them the oracle raises OracleRefusal instead of running
# for hours. The walker loops over every row, subset and cell of a table.
WALKER_MAX_N = 500
WALKER_MAX_P = 8
WALKER_MAX_CELLS = 1e5
# exact_nu's convolution is refused above this many array cells of work, and
# its enumeration self-check runs only up to this many count vectors.
EXACT_NU_WORK_CAP = 1e7
ENUMERATION_STATE_CAP = 1e6


# ---------------------------------------------------------------------------
# Exact coverage probability
# ---------------------------------------------------------------------------

def _snap(x):
    """x with each entry within 1e-9 (relative) of an integer replaced by that
    integer, so that endpoints the construction puts on a lattice point stay
    on it through floor and ceil."""
    r = np.round(x)
    return np.where(np.abs(x - r) <= 1e-9 * (1.0 + np.abs(x)), r, x)


def _literal_bounds(spec: CellSpec, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected counts m = n * p and the truncation bounds at half-width c, by
    their definition: a = max(0, ceil(m - c)) and b = min(floor(m + c), n),
    where m - c and m + c are first snapped (`_snap`). Written out here rather
    than read from CellSpec.bounds, so the grid the fast path keeps is
    audited, not shared.
    """
    m = spec.n * spec.probs
    return (m, np.maximum(0.0, np.ceil(_snap(m - c))),
            np.minimum(np.floor(_snap(m + c)), float(spec.n)))


def _coverage_enumeration(spec: CellSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Direct multinomial rectangle probability over the counts a <= x <= b
    (a <= b in every cell), term-by-term enumeration."""
    k = spec.k
    n = spec.n
    lo = a.astype(int).tolist()
    hi = b.astype(int).tolist()
    probs = spec.probs.tolist()
    log_nf = math.lgamma(n + 1)
    terms: list[float] = []

    def rec(i: int, rem: int, acc: float) -> None:
        if i == k - 1:
            x = rem
            if lo[i] <= x <= hi[i]:
                if probs[i] == 0.0:
                    if x == 0:
                        terms.append(math.exp(log_nf + acc - math.lgamma(x + 1)))
                    return
                terms.append(math.exp(
                    log_nf + acc + x * math.log(probs[i]) - math.lgamma(x + 1)))
            return
        for x in range(lo[i], min(hi[i], rem) + 1):
            if probs[i] == 0.0 and x != 0:
                continue
            contrib = -math.lgamma(x + 1) + (
                x * math.log(probs[i]) if probs[i] > 0 else 0.0)
            rec(i + 1, rem - x, acc + contrib)

    rec(0, n, 0.0)
    return min(max(math.fsum(terms), 0.0), 1.0)


def _sequential_convolution(spec: CellSpec, m: np.ndarray, a: np.ndarray, b: np.ndarray,
                            work_cap: float) -> float:
    """Exact nu: convolve the truncated Poisson pmfs one cell at a time, on
    the expected counts m and the bounds [a, b] of `_literal_bounds`.

    Independent of the fast path's product tree. Width-1 cells contribute a
    deterministic shift and a scalar mass factor. After every step the
    accumulator is rescaled to maximum 1 and the log of the factor carried,
    so it cannot overflow on large tables. Refused above the array-work cap.
    """
    if np.any(a > b):
        return 0.0
    if np.all((a == 0.0) & (b == float(spec.n))):
        return 1.0
    widths = (b - a).astype(np.int64)
    wide = widths > 0
    log_scale = float(poisson_log_pmf(a[~wide], m[~wide]).sum())
    if not np.isfinite(log_scale):
        return 0.0
    order = np.where(wide)[0]
    total_range = int(widths.sum())
    if (total_range + 1.0) * max(len(order), 1) > work_cap:
        raise OracleRefusal(
            f"exact convolution needs ~{(total_range + 1) * len(order):.2g} array cells, "
            f"cap is {work_cap:.2g}")
    acc = np.ones(1)
    for i in order:
        y = np.arange(int(a[i]), int(b[i]) + 1, dtype=float)
        lp = poisson_log_pmf(y, m[i])
        mx = float(lp.max())
        acc = np.convolve(acc, np.exp(lp - mx))
        top = float(acc.max())
        log_scale += mx + math.log(top)
        acc /= top
    idx = spec.n - int(a.sum())
    if idx < 0 or idx >= acc.size or acc[idx] <= 0.0:
        return 0.0
    val = math.exp(math.log(acc[idx]) + log_scale - float(poisson_log_pmf(spec.n, spec.n)))
    return min(max(val, 0.0), 1.0)


def exact_nu(spec: CellSpec, c: int) -> float:
    """Exact nu(c) by truncated-Poisson convolution, self-checked by enumeration.

    The convolution is refused above EXACT_NU_WORK_CAP array cells of work;
    whenever the full multinomial enumeration is feasible (at most
    ENUMERATION_STATE_CAP count vectors in the truncation box) it is run too
    and must agree within 1e-12.
    """
    if spec.k == 1:
        return 1.0
    m, a, b = _literal_bounds(spec, c)
    val = _sequential_convolution(spec, m, a, b, EXACT_NU_WORK_CAP)
    if np.any(a > b):
        return val
    with np.errstate(over="ignore"):  # beyond float range: inf states, never enumerated
        states = float(np.exp(np.log(b - a + 1.0).sum()))
    if states <= ENUMERATION_STATE_CAP:
        other = _coverage_enumeration(spec, a, b)
        if abs(val - other) > 1e-12:
            raise OracleRefusal(
                f"exact-nu self-check failed: conv={val!r} enum={other!r}")
    return val


def sweep_find_c(spec: CellSpec, level: float, method: str = "auto") -> tuple[int, float]:
    """Reference find_c: the literal clamped sweep over c = 0, 1, 2, ...

    nu(c) is clamped against its running maximum; c is one below the first j
    whose clamped nu exceeds the level, and gamma interpolates between the
    clamped values at j-1 and j. Wherever the fast path's rule
    (simci._computes_exactly) has `method` compute nu exactly, nu comes from
    the cell-by-cell convolution above; elsewhere it comes from
    coverage_probability (Edgeworth for "auto", a refusal for "exact").
    """
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must be in (0, 1)")
    if method not in ("auto", "exact"):
        raise DomainError(f"unknown coverage method {method!r}")

    def nu(c: int) -> float:
        if spec.k == 1:
            return 1.0
        if _computes_exactly(spec, c, method):
            return _sequential_convolution(spec, *_literal_bounds(spec, c),
                                           CONVOLUTION_WORK_CAP)
        return coverage_probability(spec, c, method)

    prev = nu(0)
    if prev >= level:
        return 0, 0.0
    for c in range(0, spec.n):
        nxt = max(prev, nu(c + 1))
        if nxt > level:
            gamma = (level - prev) / (nxt - prev) if nxt > prev else 0.0
            return c, float(gamma)
        prev = nxt
    raise CISearchFailure(
        f"no c in [0, {spec.n}] brackets level {level} (nu capped at {prev})")


# ---------------------------------------------------------------------------
# Simultaneous intervals, for the coverage simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimultaneousCI:
    """Simultaneous interval endpoints plus the (c, gamma) pair behind them."""

    c: int
    gamma: float
    lower: np.ndarray
    upper: np.ndarray


def simultaneous_intervals(spec: CellSpec, alpha: float) -> SimultaneousCI:
    """Two-sided simultaneous intervals for all cell proportions at level
    1-alpha: (p_i - c/n, p_i + (c+2*gamma)/n). Endpoints are the raw formula
    values, not clamped to [0, 1].

    (c, gamma) come from the fast path's simci.find_c: the coverage
    simulation audits the c that scoring uses, not sweep_find_c's.
    """
    if not (0.0 < alpha <= 0.5):
        raise DomainError("alpha must be in (0, 0.5]")
    c, gamma = simci.find_c(spec, 1.0 - alpha)
    return SimultaneousCI(c=c, gamma=gamma, lower=spec.probs - c / spec.n,
                          upper=spec.probs + (c + 2.0 * gamma) / spec.n)


def simulated_coverage(spec: CellSpec, alpha: float, sims: int, rng: np.random.Generator
                       ) -> tuple[SimultaneousCI, float, float]:
    """Monte Carlo simultaneous coverage of the two-sided intervals.

    Returns the intervals, the share of `sims` multinomial draws from `rng`
    whose counts all lie inside them, and the exact probability of that
    event: the multinomial box probability of the same count bounds, by
    `_sequential_convolution`. The endpoints are mapped to integer count
    bounds through `_snap`: the construction puts them exactly on lattice
    points, where a raw float comparison loses whole layers.
    """
    ci = simultaneous_intervals(spec, alpha)
    lo = np.ceil(_snap(spec.n * ci.lower))
    hi = np.floor(_snap(spec.n * ci.upper))
    draws = rng.multinomial(spec.n, spec.probs, size=sims)
    rate = float(np.all((draws >= lo) & (draws <= hi), axis=1).mean())
    exact = _sequential_convolution(spec, spec.n * spec.probs, np.maximum(lo, 0.0),
                                    np.minimum(hi, float(spec.n)), EXACT_NU_WORK_CAP)
    return ci, rate, exact


# ---------------------------------------------------------------------------
# Truncated-Poisson moments by direct summation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedPoissonMoments:
    """Mean, central moments 2-4 and mass of a Poisson truncated to [a, b]."""

    lam: float
    a: int
    b: int
    m1: float
    mu2: float
    mu3: float
    mu4: float
    mass: float


def truncated_poisson_moments(lam: float, a: int, b: int) -> TruncatedPoissonMoments:
    """Exact moments of Y | a <= Y <= b for Y ~ Poisson(lam), by direct summation.

    The log-pmf is shifted by its maximum before summation; moments use the
    normalized weights, so the result is exact up to floating point for any
    finite lam > 0 and [a, b]. `sono verify` audits the Edgeworth kernel's
    cell moments against it.
    """
    if not (0.0 < lam < math.inf):  # NaN fails too
        raise DomainError("lam must be positive and finite")
    if a < 0 or b < a:
        raise DomainError("need 0 <= a <= b")
    y = np.arange(a, b + 1, dtype=float)
    logw = poisson_log_pmf(y, lam)
    peak = float(logw.max())
    w = np.exp(logw - peak)
    total = float(w.sum())
    w /= total
    m1 = float(np.dot(y, w))
    d = y - m1
    mu2, mu3, mu4 = (float(np.dot(d ** r, w)) for r in (2, 3, 4))
    return TruncatedPoissonMoments(lam=float(lam), a=int(a), b=int(b), m1=m1, mu2=mu2,
                                   mu3=mu3, mu4=mu4, mass=math.exp(peak + math.log(total)))


# ---------------------------------------------------------------------------
# Nested-loop walker
# ---------------------------------------------------------------------------

def _row_contains(codes: np.ndarray, row: int, entries: tuple) -> bool:
    return all(codes[row, var] == level for var, level in entries)


def reference_subset_passes(model: ProbabilityModel, n: int, subset: Sequence[int],
                            alpha: float, rule: str = "any-cell",
                            method: str = "auto") -> bool:
    """The maxlen rule's test of one subset by its definition: sigma_ref >= 2.

    sigma_ref is read from the subset's own threshold table: the infrequent
    threshold of its most probable cell ("any-cell") or least probable cell
    ("all-cells"). The 1e-9 allowance for float fuzz in n*p is the one the
    fast rule's t = floor(n*p_ref - 2) carries too.
    """
    pick = {"any-cell": np.argmax, "all-cells": np.argmin}[rule]
    table = subset_thresholds(model, n, subset, alpha, method=method)
    cell = np.array([[pick(v) + 1 for v in table.pi]])
    return bool(table.sigma(cell, "infrequent")[0] >= SIGMA_FLOOR - 1e-9)


def reference_maxlen(model: ProbabilityModel, n: int, alpha: float,
                     rule: str = "any-cell", method: str = "auto") -> MaxlenDecision:
    """The maxlen rule by its definition, for determine_maxlen to be held to.

    Sizes are swept upward, every subset is judged by reference_subset_passes,
    and the sweep stops at the first subset that fails.
    """
    for size in range(1, model.p + 1):
        for subset in itertools.combinations(range(model.p), size):
            if not reference_subset_passes(model, n, subset, alpha, rule, method):
                return MaxlenDecision(maxlen=max(size - 1, 1),
                                      violating_subset=subset, rule=rule)
    return MaxlenDecision(maxlen=model.p, violating_subset=None, rule=rule)


@dataclass
class WalkerResult:
    report: ScoreReport
    # per observation, its flagged cells as (entries, supp, sigma) in search order
    flag_sets: list[list[tuple]]
    maxlen: int


def flag_keys(flags: Flags) -> list[frozenset]:
    """Each observation's flagged cells as a set of (entries, supp, sigma)
    keys, the walker's form, read from the arrays of a `Flags` table. The
    entries of a cell are its (variable, level) pairs, variables ascending."""
    keys = [(tuple((j, v) for j, v in enumerate(lv) if v), s, g) for lv, s, g in
            zip(flags.levels.tolist(), flags.supp.tolist(), flags.sigma.tolist())]
    per_row: list[set] = [set() for _ in range(flags.distinct)]
    for i, k in zip(flags.row.tolist(), flags.cell.tolist()):
        per_row[i].add(keys[k])
    sets = list(map(frozenset, per_row))
    return [sets[d] for d in flags.group.tolist()]


def walker(ds: Dataset, model: ProbabilityModel, alpha: float, r: float,
           mode: str = "infrequent", prune: bool = True,
           max_len: int | None = None) -> WalkerResult:
    """Reference scorer: every subset and cell via nested loops, no caching.

    Applies the same flagging and pruning rules as the fast path and
    recomputes scores, depths and contributions from their definitions. A
    flagged cell is the plain tuple (entries, supp, sigma), its entries the
    (variable, level) pairs; one itemset contains another iff its entries
    include the other's.
    maxlen, unless given, is reference_maxlen's under the default rule and
    method. Refused above WALKER_MAX_N rows, WALKER_MAX_P variables or
    WALKER_MAX_CELLS cells in the full table.
    """
    total_cells = 1.0
    for l in model.level_counts:
        total_cells *= l
    if ds.n > WALKER_MAX_N or ds.p > WALKER_MAX_P or total_cells > WALKER_MAX_CELLS:
        raise OracleRefusal(
            f"walker caps exceeded (n={ds.n}, p={ds.p}, cells={total_cells:.3g})")
    n, p, codes = ds.n, ds.p, ds.codes  # ds.codes is built on each access
    if max_len is not None:
        maxlen = max_len
    else:
        maxlen = reference_maxlen(model, n, alpha).maxlen
    maxlen = min(maxlen, p)

    flagged: list[tuple] = []
    if mode == "infrequent":
        sizes = range(1, maxlen + 1)
    elif mode == "frequent":
        sizes = range(maxlen, 0, -1)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    for size in sizes:
        for subset in itertools.combinations(range(p), size):
            table = subset_thresholds(model, n, subset, alpha)
            # observed cells, one slow pass per subset
            seen: dict[tuple[int, ...], int] = {}
            for i in range(n):
                cell = tuple(int(codes[i, j]) for j in subset)
                seen[cell] = seen.get(cell, 0) + 1
            cells = sorted(seen)
            sigmas = table.sigma(np.array(cells), mode).tolist()
            for cell, sigma in zip(cells, sigmas):
                entries = tuple(zip(subset, cell))
                supp = seen[cell]
                if mode == "infrequent":
                    if prune and any(set(f[0]) <= set(entries) for f in flagged):
                        continue
                    if supp <= sigma:
                        flagged.append((entries, supp, sigma))
                else:
                    if prune and any(set(entries) <= set(f[0]) for f in flagged):
                        flagged.append((entries, supp, sigma))
                    elif supp >= sigma:
                        flagged.append((entries, supp, sigma))

    flag_sets: list[list[tuple]] = [[] for _ in range(n)]
    for rec in flagged:
        for i in range(n):
            if _row_contains(codes, i, rec[0]):
                flag_sets[i].append(rec)

    # literal score / depth / contribution recomputation
    scores = np.zeros(n)
    depths = np.zeros(n)
    contrib = np.zeros((n, p))
    for i in range(n):
        terms = []
        lengths = []
        for entries, supp, sigma in flag_sets[i]:
            d = len(entries)
            if mode == "infrequent":
                terms.append(sigma / (supp * d ** r))
                share = sigma / (supp * d ** (r + 1.0))
                lengths.append(d)
            else:
                terms.append(supp / (sigma * (maxlen - d + 1) ** r))
                share = supp / (sigma * (maxlen - d + 1) ** r * d)
                lengths.append(maxlen - d + 1)
            for var, _ in entries:
                contrib[i, var] += share
        scores[i] = math.fsum(terms)
        depths[i] = math.fsum(lengths) / len(lengths) if lengths else 0.0
    report = ScoreReport(distinct_scores=scores, distinct_depths=depths,
                         distinct_contributions=contrib, group=np.arange(n))
    return WalkerResult(report=report, flag_sets=flag_sets, maxlen=maxlen)


# ---------------------------------------------------------------------------
# Proposition checks
# ---------------------------------------------------------------------------

@dataclass
class PropositionCase:
    p: int
    r: float
    # the best single-length boundary value, max over k = 2..p of C(p, k)/k^r
    boundary: float
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)
    # the lengths k maximizing C(p, k)/k^r, where the closed form is checked
    argmax: frozenset[int] | None = None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _best_configuration(p: int, r: float) -> float:
    """Largest total unit-support score (in units of n-1) of any flag configuration.

    A configuration covers, for each itemset length k = 2..p, either no
    variables or a group of a_k in [k, p] of them with unit support on all
    C(a_k, k) of their length-k itemsets, with sum a_k <= p; the uncovered
    variables are unit-support singletons. It scores
    p - sum a_k + sum C(a_k, k)/k^r. A group knapsack over the number of
    variables used visits every configuration: best[u] is the largest
    sum C(a_k, k)/k^r over the configurations covering exactly u variables.
    """
    best = np.full(p + 1, -np.inf)
    best[0] = 0.0
    for k in range(2, p + 1):
        grown = best.copy()
        for a in range(k, p + 1):
            grown[a:] = np.maximum(grown[a:], best[:p + 1 - a] + math.comb(a, k) / k ** r)
        best = grown
    return float(max((p - u) + best[u] for u in range(p + 1)))


def check_propositions(p_range=range(2, 61), r_set=(1.0, 2.0, 3.0)) -> list[PropositionCase]:
    """Verify the maximum-score location and closed form exactly.

    For each (p, r) the best of every flag configuration comes from
    `_best_configuration` (an exhaustive search, no sampling). Below the
    p < 2^(r+1)+1 threshold the all-singletons configuration must reach it;
    at or above it the best single-length boundary configuration must; and
    the closed-form argmax_k C(p,k)/k^r = floor((p-r)/2) must hold.
    """
    cases = []
    for p in p_range:
        if p > 60:
            raise OracleRefusal("proposition checks capped at p <= 60")
        for r in r_set:
            case = PropositionCase(p=p, r=float(r), boundary=max(
                math.comb(p, k) / k ** r for k in range(2, p + 1)))
            threshold = 2.0 ** (r + 1.0) + 1.0
            best_config = _best_configuration(p, r)
            singletons = float(p)  # every a_k = 0
            if p < threshold:
                ok = singletons >= best_config - 1e-9
                case.checks["singletons_dominate"] = bool(ok)
                case.details["singletons_dominate"] = (
                    f"p={p} vs best configuration {best_config:.6g}")
            else:
                ok = case.boundary >= best_config - 1e-9
                case.checks["boundary_dominates"] = bool(ok)
                case.details["boundary_dominates"] = (
                    f"boundary {case.boundary:.6g} vs best configuration {best_config:.6g}")
                if r == int(r):  # exact rational arithmetic, no tie fuzz
                    from fractions import Fraction
                    values = [Fraction(math.comb(p, k), k ** int(r))
                              for k in range(1, p + 1)]
                    best = max(values)
                    argmaxes = {k + 1 for k, v in enumerate(values) if v == best}
                else:
                    values = [math.comb(p, k) / k ** r for k in range(1, p + 1)]
                    best = max(values)
                    argmaxes = {k + 1 for k, v in enumerate(values)
                                if v >= best * (1 - 1e-12)}
                case.argmax = frozenset(argmaxes)
                expect = math.floor((p - r) / 2.0)
                case.checks["argmax_closed_form"] = expect in argmaxes
                case.details["argmax_closed_form"] = (
                    f"argmax set {sorted(argmaxes)} vs floor((p-r)/2)={expect}")
            cases.append(case)
    return cases


# ---------------------------------------------------------------------------
# Randomized dataset generator for the audit suites
# ---------------------------------------------------------------------------

def random_dataset(rng: np.random.Generator, *, n_max: int = 200, p_max: int = 6,
                   l_max: int = 4) -> Dataset:
    """Random product-multinomial dataset within the oracle's desk scale."""
    n = int(rng.integers(20, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    level_counts = [int(rng.integers(2, l_max + 1)) for _ in range(p)]
    if rng.random() < 0.1:
        level_counts[int(rng.integers(0, p))] = 1
    codes = np.empty((n, p), dtype=np.int32)
    for j, l in enumerate(level_counts):
        if rng.random() < 0.5:
            w = rng.dirichlet(np.ones(l))
        else:
            w = rng.dirichlet(np.full(l, 0.35))
        w = np.maximum(w, 1e-3)
        w = w / w.sum()
        codes[:, j] = rng.choice(l, size=n, p=w) + 1
    labels = tuple(tuple(f"v{j}l{k + 1}" for k in range(l))
                   for j, l in enumerate(level_counts))
    return Dataset.from_codes(
        codes,
        level_counts=tuple(level_counts),
        variable_names=tuple(f"X{j + 1}" for j in range(p)),
        level_labels=labels,
    )

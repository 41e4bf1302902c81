"""Simultaneous multinomial confidence machinery.

The coverage probability nu(c) = P(all k multinomial cell counts fall within
+-c of their expected counts) is computed through the exact factorization of a
multinomial rectangle probability into a product of truncated-Poisson masses
times the pmf of their sum conditioned to total n, normalized by the
Poisson(n) atom at n.  Method "exact" computes the sum pmf by convolution;
"auto" does so while the truncation grid is small and otherwise uses a
fourth-order Edgeworth series, with the cells that dominate the variance
convolved exactly.  _computes_exactly is the one rule for that choice.  The
integer half-width c and the interpolation weight gamma then give the support
thresholds (sono.thresholds) and the simultaneous intervals of the coverage
simulation (sono.oracle).

The exact path reads one entry of the sum pmf: all cells' log-pmfs come from
one vectorized call, cells are combined pairwise in a product tree (direct
convolution for small batches, batched FFT for large ones), and every partial
product is cut at that entry and rescaled to maximum 1 with its log scale
carried.  find_c keeps the definition of c by a clamped linear sweep, but
where nu is exact (a prefix of c) it finds the sweep's crossing by galloping
and bisection; the literal sweep lives on in sono.oracle as the reference.

Each cell count is marginally binomial, so the one-cell binomial coverages on
the same truncation bounds (_binomial_bounds) bracket the exact nu without a
convolution: from below by Bonferroni, from above by the least-covered cell.
By Hoeffding the Bonferroni bound provably exceeds the level at a half-width
c_h (_hoeffding_point) of order sqrt(n). find_c searches down from the first
c whose Bonferroni bound exceeds the level, bisected below c_h. The maxlen
rule (sono.thresholds) asks c_at_most "is c <= t?" with t ~ n * p_ref,
usually far above c: the bracket at t + 1 settles most questions with no nu
at all, and where t + 1 is past the exact prefix, the question is asked
first at c_h, by its bracket or by one nu on a window about c_h wide.

Expected counts m_i = n * p_i (possibly non-integer) are used both as Poisson
rates and as interval centers; truncation bounds are a_i = max(0, ceil(m_i-c))
and b_i = min(floor(m_i+c), n). A CellSpec computes m once and the bounds
once per c (CellSpec.bounds), and every nu, binomial bracket and path
decision at c reads those arrays; no caller passes bounds around.

SciPy is loaded only when nu or a binomial bound is first evaluated: importing
sono never loads it, and a run whose thresholds and maxlen all come from the
spill file loads neither it nor this module. Even then the fast path needs
only three compiled ufuncs (gammaln, pdtr, bdtr), and _ufuncs loads the
compiled module that holds them, with its compiled helpers, without running
the package inits of scipy, scipy._lib or scipy.special: they import
subprocess, sysconfig, SciPy's test utilities and NumPy submodules sono
never uses. A later `import scipy.special` runs those inits and gets the same
ufunc objects; if the direct load fails, _ufuncs imports scipy.special as
usual. The Edgeworth kernel's dominant-cell branch normalizes each dominant
cell's truncated pmf with _logsumexp, which follows scipy.special.logsumexp's
formula bit for bit, so no scoring path imports the package.
"""
from __future__ import annotations

import importlib
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CISearchFailure, DomainError, OracleRefusal

# Array-work cap of method "exact", which refuses beyond it.
CONVOLUTION_WORK_CAP = 2e8
# Method "auto" convolves (else uses Edgeworth) while the product of truncation
# widths, or the squared sum of widths that bounds the work, is within these.
CONVOLUTION_AUTO_CAP = 1e5
CONVOLUTION_AUTO_WORK = 4e7
_SNAP = 1e-9
_VAR_EPS = 1e-9
_LOG_TINY_TAIL = -45.0  # ~1e-20: treat the truncation as a no-op above this
# A cell holding more than this share of the aggregate variance breaks the
# central-limit behaviour of the sum; such cells are convolved exactly
# against an Edgeworth remainder.
_DOMINANCE_SHARE = 0.5
_DOMINANCE_MAX_CELLS = 4
# A batch of row pairs whose direct convolution takes at most this many
# multiply-adds (rows x width^2) is convolved directly, a larger one by FFT.
_DIRECT_MAX_WORK = 3e4
# The binomial bracket settles c_at_most only when it clears the level by
# this much: far above the 1e-12 to which exact nu is held (sono verify), so
# a bound that clears the level means exact nu is on the same side.
_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class CellSpec:
    """A k-cell multinomial: cell probabilities and the sample size.

    `m` holds the expected counts n * p_i, `bounds(c)` the truncation bounds
    at half-width c and `log_norm` nu's normalizer log P(Poisson(n) = n),
    each computed once per spec.
    """

    probs: np.ndarray
    n: int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise DomainError("cell probabilities must be a non-empty vector")
        if not np.all((v >= 0) & (v <= 1)):  # NaN fails both comparisons
            raise DomainError("cell probabilities must lie in [0, 1]")
        # wide enough for any product of vectors that ProbabilityModel accepts
        # (each within 1e-12 of 1)
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise DomainError("cell probabilities must sum to 1")
        if self.n < 1:
            raise DomainError("sample size must be >= 1")
        v.setflags(write=False)
        m = self.n * v
        m.setflags(write=False)
        object.__setattr__(self, "probs", v)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_grid", {})

    @property
    def k(self) -> int:
        return self.probs.size

    @cached_property
    def log_norm(self) -> float:
        return float(poisson_log_pmf(self.n, self.n))

    def bounds(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Truncation bounds (a, b) at half-width c, read-only.

        a_i = max(0, ceil(m_i - c)) and b_i = min(floor(m_i + c), n), with
        values within float fuzz of an integer snapped to it first. Computed
        on first request and kept: every nu, binomial bracket and path
        decision at c reads the same arrays.
        """
        ab = self._grid.get(c)
        if ab is None:
            a = np.maximum(0.0, np.ceil(_snap_int(self.m - c)))
            b = np.minimum(np.floor(_snap_int(self.m + c)), float(self.n))
            a.setflags(write=False)
            b.setflags(write=False)
            ab = self._grid[c] = (a, b)
        return ab


def _snap_int(x: np.ndarray) -> np.ndarray:
    """Round values that are within float fuzz of an integer."""
    r = np.round(x)
    return np.where(np.abs(x - r) <= _SNAP * (1.0 + np.abs(x)), r, x)


def _ufuncs():
    """scipy.special's compiled ufunc module, which holds gammaln, pdtr and bdtr.

    The module is imported while unexecuted modules made from the specs of
    scipy, scipy._lib and scipy.special (each found once its parent's
    stand-in is in place) stand in for the packages that are not loaded yet,
    so none of their __init__.py files run: the module loads with only its
    helper extensions. The stand-ins are removed afterwards, and a later
    `import scipy.special` runs the package inits and picks up this same
    module. Once the module is loaded, by this or by the package, it is
    returned from sys.modules. If the direct import fails, the package is
    imported as usual.
    """
    ufuncs = sys.modules.get("scipy.special._ufuncs")
    if ufuncs is not None:
        return ufuncs
    if "scipy.special" not in sys.modules:
        stand_ins = {}
        try:
            for name in ("scipy", "scipy._lib", "scipy.special"):
                if name not in sys.modules:
                    spec = importlib.util.find_spec(name)
                    sys.modules[name] = stand_ins[name] = importlib.util.module_from_spec(spec)
            return importlib.import_module("scipy.special._ufuncs")
        except (ImportError, AttributeError):  # a SciPy whose layout differs
            pass
        finally:
            for name, stand_in in stand_ins.items():
                if sys.modules.get(name) is stand_in:
                    del sys.modules[name]
    import scipy.special
    return scipy.special._ufuncs


def poisson_log_pmf(y, lam):
    gammaln = _ufuncs().gammaln
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    safe = np.where(lam > 0, lam, 1.0)
    out = np.where(
        lam > 0,
        y * np.log(safe) - lam - gammaln(y + 1.0),
        np.where(y == 0, 0.0, -np.inf),
    )
    return out


def _poisson_cdf(k, lam):
    """P(Y <= k) for Y ~ Poisson(lam), k and lam arrays of one shape; the
    entries with k < 0 are 0, and pdtr is not evaluated on them."""
    k = np.asarray(k, dtype=float)
    out = np.zeros_like(k)
    ok = k >= 0
    out[ok] = _ufuncs().pdtr(k[ok], lam[ok])
    return out


def _logsumexp(a: np.ndarray) -> np.floating:
    """log(sum(exp(a))) of a finite 1-D array, bit-identical to
    scipy.special.logsumexp: the elements tied at the maximum are taken out
    of the shifted sum and counted, and log1p keeps the precision of a sum
    near one."""
    a_max = a.max()
    tied = a == a_max
    m = np.count_nonzero(tied)
    s = np.exp(np.where(tied, -np.inf, a) - a_max).sum() / m
    return np.log1p(s) + np.log(m) + a_max


def _edgeworth_value(mean: float, var: float, k3: float, k4: float, x):
    """Fourth-order Edgeworth density (skewness, kurtosis, skewness^2 terms).

    x may be a scalar or an array.
    """
    sd = math.sqrt(var)
    z = (np.asarray(x, dtype=float) - mean) / sd
    g1 = k3 / var ** 1.5
    g2 = k4 / var ** 2
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    h3 = z ** 3 - 3 * z
    h4 = z ** 4 - 6 * z ** 2 + 3
    h6 = z ** 6 - 15 * z ** 4 + 45 * z ** 2 - 15
    out = phi * (1.0 + g1 * h3 / 6.0 + g2 * h4 / 24.0 + g1 * g1 * h6 / 72.0) / sd
    return float(out) if np.ndim(x) == 0 else out


def _cell_moment_arrays(lam: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per-cell cumulants + log-mass over many truncated Poisson cells.

    Cells whose truncation provably removes < ~1e-20 of mass (a == 0 and the
    upper tail beyond b is negligible) use untruncated analytic moments and are
    folded into scalar totals (a Poisson's cumulants are all lam); the rest go
    through the factorial-moment identity with Poisson cdf calls and keep
    per-cell values. Returns None when some mass is zero, else a dict with
    trivial totals, the non-trivial index and its per-cell cumulant arrays.
    """
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Chernoff-style bound: log P(Y > b) <= -lam + (b+1)(1 + log(lam/(b+1)))
        bp1 = b + 1.0
        logtail = -lam + bp1 * (1.0 + np.log(np.where(lam > 0, lam, 1e-300) / bp1))
    trivial = (a == 0) & ((lam <= 0) | (logtail < _LOG_TINY_TAIL))
    trivial_sum = float(lam[trivial].sum())

    idx = np.where(~trivial)[0]
    m1 = mu2 = mu3 = k4c = np.zeros(0)
    sum_log_mass = 0.0
    if idx.size:
        la, aa, bb = lam[idx], a[idx], b[idx]
        mass = _poisson_cdf(bb, la) - _poisson_cdf(aa - 1.0, la)
        if np.any(mass <= 0.0):
            return None
        f = []
        for r in range(1, 5):
            num = _poisson_cdf(bb - r, la) - _poisson_cdf(aa - 1.0 - r, la)
            f.append(la ** r * num / mass)
        f1, f2, f3, f4 = f
        m1 = f1
        mu2 = f2 + f1 - f1 ** 2
        mu3 = f3 + f2 * (3.0 - 3.0 * f1) + f1 - 3.0 * f1 ** 2 + 2.0 * f1 ** 3
        mu4 = (f4 + f3 * (6.0 - 4.0 * f1) + f2 * (7.0 - 12.0 * f1 + 6.0 * f1 ** 2)
               + f1 - 4.0 * f1 ** 2 + 6.0 * f1 ** 3 - 3.0 * f1 ** 4)
        k4c = mu4 - 3.0 * mu2 ** 2
        sum_log_mass = float(np.log(mass).sum())
    return {
        "trivial_sum": trivial_sum,  # contributes lam to mean, var, k3 and k4
        "idx": idx, "m1": m1, "mu2": mu2, "mu3": mu3, "k4": k4c,
        "sum_log_mass": sum_log_mass,
    }


def _computes_exactly(spec: CellSpec, c: int, method: str) -> bool:
    """The path rule: does `method` compute nu(c) by the exact convolution?

    "auto" does while the truncation grid is small, "exact" while it stays
    within the work cap (beyond it, it refuses). Bounds with a > b (nu = 0 on
    every path) count as exact. The widths b - a + 1 only grow with c, so the
    rule holds on a prefix of c.
    """
    a, b = spec.bounds(c)
    widths = b - a + 1.0
    if np.any(widths <= 0.0):
        return True
    if method == "exact":
        return _convolution_work(a, b) <= CONVOLUTION_WORK_CAP
    width_sum = float(widths.sum())
    return float(np.log(widths).sum()) <= math.log(CONVOLUTION_AUTO_CAP) \
        or width_sum * width_sum <= CONVOLUTION_AUTO_WORK


def _convolution_work(a: np.ndarray, b: np.ndarray) -> float:
    """Array-work estimate of the exact convolution, checked against its cap."""
    widths = b - a
    return (float(widths.sum()) + 1.0) * max(int((widths > 0).sum()), 1)


def _pair_products(u: np.ndarray, v: np.ndarray, width: int) -> np.ndarray:
    """Row-wise linear convolutions of u and v (rows x w), first `width` <= 2w-1 columns.

    Small batches are convolved directly, which keeps every entry accurate
    relative to itself; large ones go through one batched real FFT, accurate
    relative to the row maximum, with round-off below zero clipped.
    """
    rows, w = u.shape
    if rows * w * w <= _DIRECT_MAX_WORK:
        padded = np.zeros((rows, 3 * w - 2))
        padded[:, w - 1:2 * w - 1] = v
        step_row, step = padded.strides
        # windows[r, k] = padded[r, k:k + w], read-only views inside padded
        windows = np.lib.stride_tricks.as_strided(
            padded, (rows, width, w), (step_row, step, step), writeable=False)
        return np.einsum("rt,rkt->rk", u[:, ::-1], windows)
    nfft = 1 << (2 * w - 2).bit_length()  # a power of two >= 2w - 1: no wrap-around
    spec = np.fft.rfft(u, nfft, axis=1) * np.fft.rfft(v, nfft, axis=1)
    return np.maximum(np.fft.irfft(spec, nfft, axis=1)[:, :width], 0.0)


def _log_product_entry(lo: np.ndarray, lam: np.ndarray, lens: np.ndarray, cut: int) -> float:
    """log of entry cut-1 of the convolution of Poisson(lam_i) pmfs on lo_i + [0, lens_i).

    The log-pmf of every cell is computed in one call on a zero-padded grid.
    Every wide cell's window at half-width c holds between c + 1 and 2c + 2
    counts, so the padding at most doubles the O(sum of lens) memory. Rows are
    then combined pairwise, level by level, in a product tree: an odd row out
    is paired with the unit pmf. Every partial product is truncated to `cut`
    entries and rescaled by its maximum, whose log is carried, so nothing
    overflows.
    """
    w = int(lens.max())
    col = np.arange(w)
    lp = poisson_log_pmf(lo[:, None] + col, lam[:, None])
    lp[col >= lens[:, None]] = -np.inf
    peak = lp.max(axis=1)
    log_scale = float(peak.sum())
    rows = np.exp(lp - peak[:, None])
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            unit = np.zeros((1, w))
            unit[0, 0] = 1.0
            rows = np.vstack((rows, unit))
        w = min(2 * w - 1, cut)
        rows = _pair_products(rows[0::2], rows[1::2], w)
        peak = rows.max(axis=1)
        if not np.all(peak > 0.0):
            return -math.inf
        log_scale += float(np.log(peak).sum())
        rows /= peak[:, None]
    entry = float(rows[0, cut - 1])
    return math.log(entry) + log_scale if entry > 0.0 else -math.inf


def _coverage_convolution(spec: CellSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Exact nu: the truncated-Poisson sum's pmf at n, by a rescaled product tree.

    a, b are spec's truncation bounds at some c (a <= b, not full coverage).
    Width-1 cells contribute a deterministic shift and a scalar mass factor;
    only wider cells are convolved, and only the entries up to the one read
    off (index n minus the summed lower bounds) are kept.
    """
    m = spec.m
    wide = b > a
    log_scale = float(poisson_log_pmf(a[~wide], m[~wide]).sum())
    if not np.isfinite(log_scale):
        return 0.0
    target = spec.n - int(a.sum())
    if not 0 <= target <= int((b - a).sum()):
        return 0.0
    if wide.any():
        lens = np.minimum(b[wide] - a[wide] + 1.0, target + 1.0).astype(np.int64)
        log_scale += _log_product_entry(a[wide], m[wide], lens, target + 1)
        if not np.isfinite(log_scale):
            return 0.0
    val = math.exp(log_scale - spec.log_norm)
    return min(max(val, 0.0), 1.0)


def _sum_density(mean: float, var: float, k3: float, k4: float, x) -> np.ndarray:
    """Edgeworth density with the zero-variance atom convention, vectorized."""
    x = np.asarray(x, dtype=float)
    if var <= _VAR_EPS:
        return (np.abs(x - mean) <= 0.5).astype(float)
    return np.maximum(_edgeworth_value(mean, var, k3, k4, x), 0.0)


def _coverage_edgeworth(spec: CellSpec, a: np.ndarray, b: np.ndarray) -> float:
    """nu through the Edgeworth density of the truncated-Poisson sum.

    a, b are spec's truncation bounds at some c (a <= b, not full coverage).
    Cells holding more than half of the remaining aggregate variance (the
    regime where the sum is nowhere near normal) are convolved exactly and
    only the remainder is approximated.
    """
    m = spec.m
    cells = _cell_moment_arrays(m, a, b)
    if cells is None:
        return 0.0
    trivial = cells["trivial_sum"]
    m1, mu2, mu3, k4 = cells["m1"], cells["mu2"], cells["mu3"], cells["k4"]
    mean = trivial + float(m1.sum())
    var = trivial + float(mu2.sum())
    k3v = trivial + float(mu3.sum())
    k4v = trivial + float(k4.sum())
    sum_log_mass = cells["sum_log_mass"]

    top: list[int] = []
    rest_var = var
    rest_mu2 = mu2.copy()
    while len(top) < _DOMINANCE_MAX_CELLS and rest_mu2.size:
        j = int(np.argmax(rest_mu2))
        if rest_var <= _VAR_EPS or rest_mu2[j] <= _DOMINANCE_SHARE * rest_var:
            break
        rest_var -= rest_mu2[j]
        rest_mu2[j] = -np.inf
        top.append(j)

    if not top:
        fw = float(_sum_density(mean, var, k3v, k4v, float(spec.n)))
    else:
        keep = np.ones(mu2.size, dtype=bool)
        keep[top] = False
        rest = (trivial + float(m1[keep].sum()), trivial + float(mu2[keep].sum()),
                trivial + float(mu3[keep].sum()), trivial + float(k4[keep].sum()))
        pmf = None
        offset = 0
        for j in top:
            i = int(cells["idx"][j])
            y = np.arange(int(a[i]), int(b[i]) + 1, dtype=float)
            lp = poisson_log_pmf(y, m[i])
            lp -= _logsumexp(lp)  # normalized truncated pmf
            w = np.exp(lp)
            offset += int(a[i])
            pmf = w if pmf is None else np.convolve(pmf, w)
        args = spec.n - (offset + np.arange(pmf.size, dtype=float))
        fw = float(np.dot(pmf, _sum_density(*rest, args)))

    if fw <= 0.0:
        return 0.0
    log_ratio = sum_log_mass + math.log(fw) - spec.log_norm
    return min(max(math.exp(log_ratio), 0.0), 1.0)


def coverage_probability(spec: CellSpec, c: int, method: str = "auto") -> float:
    """nu(c) = P(all cell counts within +-c of their expected counts), in [0, 1].

    nu is 0 where some truncation bound a > b and 1 at full coverage.
    Otherwise _computes_exactly picks the path: the exact convolution, or for
    "auto" the Edgeworth kernel, while "exact" refuses beyond the
    convolution's work cap.
    """
    if c < 0:
        raise DomainError("c must be >= 0")
    if method not in ("auto", "exact"):
        raise DomainError(f"unknown coverage method {method!r}")
    if spec.k == 1:
        return 1.0
    a, b = spec.bounds(c)
    if np.any(a > b):
        return 0.0
    if np.all((a == 0.0) & (b == float(spec.n))):
        return 1.0
    if _computes_exactly(spec, c, method):
        return _coverage_convolution(spec, a, b)
    if method == "exact":
        raise OracleRefusal(f"exact convolution needs ~{_convolution_work(a, b):.2g} "
                            f"array cells, cap is {CONVOLUTION_WORK_CAP:.2g}")
    return _coverage_edgeworth(spec, a, b)


def _bisect(pred, lo: int, hi: int) -> int:
    """Smallest c in (lo, hi] with pred(c), for pred false at lo and true at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _binomial_bounds(spec: CellSpec, c: int) -> tuple[float, float]:
    """The bounds that one-cell binomial coverages at half-width c put on nu(c).

    Each cell count is Binomial(n, p_i), so cover_i = P(a_i <= X_i <= b_i) on
    the snapped truncation bounds that nu itself uses. nu(c) is the
    probability that every cell is covered, so it lies between the Bonferroni
    bound 1 - sum_i (1 - cover_i) and min_i cover_i. Both bound the exact nu,
    not its Edgeworth approximation. Returns (lower, upper).
    """
    bdtr = _ufuncs().bdtr
    a, b = spec.bounds(c)
    p = spec.probs
    low = np.where(a > 0, bdtr(np.maximum(a - 1.0, 0.0), spec.n, p), 0.0)
    cover = bdtr(b, spec.n, p) - low
    return 1.0 - float(np.sum(1.0 - cover)), float(cover.min())


def _hoeffding_point(spec: CellSpec, level: float) -> int:
    """A c, at most n, at which the Bonferroni bound on nu exceeds level.

    By Hoeffding (1963) each cell count leaves +-c of its mean with
    probability at most 2 exp(-2 c^2 / n), so the Bonferroni bound of
    _binomial_bounds is at least 1 - 2k exp(-2 c^2 / n), above the level from
    one past the root of the equality on (at c = n every coverage is 1).
    """
    root = math.sqrt(spec.n * math.log(2.0 * spec.k / (1.0 - level)) / 2.0)
    return min(math.ceil(root) + 1, spec.n)


def _bonferroni_start(spec: CellSpec, level: float) -> int:
    """Smallest c in [1, n] whose Bonferroni bound on nu exceeds level.

    The bound comes from _binomial_bounds and never exceeds exact nu, so where
    nu(c) is exact the first c with nu(c) > level lies at or below the result.
    The bisection runs on [0, _hoeffding_point] rather than [0, n].
    """
    def above(c: int) -> bool:
        return _binomial_bounds(spec, c)[0] > level

    return _bisect(above, 0, _hoeffding_point(spec, level))


def _first_above(spec: CellSpec, level: float, method: str,
                 nu: dict[int, float]) -> tuple[bool, int]:
    """First j >= 1 with nu(j) > level among the c that `method` computes exactly.

    Returns (True, j), or (False, j) when nu(j) <= level where the search
    ends: at the end of the exact prefix, or at the Bonferroni start if float
    error put it below the crossing. nu holds nu(0) <= level on entry and
    every value evaluated on return, nu(j - 1) and nu(j) among them. The
    search gallops down from _bonferroni_start, or from the end of the exact
    prefix if the start lies beyond it, and bisects: exact nu is
    nondecreasing on the prefix.
    """
    def above(c: int) -> bool:
        if c not in nu:
            nu[c] = coverage_probability(spec, c, method)
        return nu[c] > level

    def inexact(c: int) -> bool:
        return not _computes_exactly(spec, c, method)

    hi = _bonferroni_start(spec, level)
    if inexact(hi):
        hi = _bisect(inexact, 0, hi) - 1  # at c = 0 every width is 0 or 1: exact
        if not above(hi):
            return False, hi
    lo, step = hi - 1, 1
    while above(lo):  # nu(0) <= level ends this
        hi, step = lo, 2 * step
        lo = max(hi - step, 0)
    j = _bisect(above, lo, hi)
    return above(j), j


def find_c(spec: CellSpec, level: float, method: str = "auto") -> tuple[int, float]:
    """Smallest integer c with nu(c) < level < nu(c+1), plus the gamma weight.

    Defined by a sweep that starts at c = 0 and clamps nu against its running
    maximum, so the sequence is nondecreasing even where the Edgeworth
    approximation wiggles: c is one below the first j whose clamped nu(j)
    exceeds the level, and gamma = (level - nu(j-1)) / (nu(j) - nu(j-1)).
    If nu(0) already reaches the level, (0, 0.0) is returned.

    The values of c where nu comes from the exact convolution form a prefix
    [0, c_e] (see _computes_exactly). Exact nu is nondecreasing, so there the
    first j is found by galloping down from the Bonferroni start and
    bisecting, in O(log n) evaluations, and the clamp changes nothing. Only
    if nu is still below the level where that search ends does the literal
    sweep run, from there on.
    """
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must be in (0, 1)")
    prev = coverage_probability(spec, 0, method)
    if prev >= level:
        return 0, 0.0
    nu = {0: prev}
    found, j = _first_above(spec, level, method, nu)
    if found:
        return j - 1, float((level - nu[j - 1]) / (nu[j] - nu[j - 1]))
    prev = nu[j]
    for c in range(j, spec.n):
        nxt = max(prev, coverage_probability(spec, c + 1, method))
        if nxt > level:
            gamma = (level - prev) / (nxt - prev) if nxt > prev else 0.0
            return c, float(gamma)
        prev = nxt
    raise CISearchFailure(
        f"no c in [0, {spec.n}] brackets level {level} (nu capped at {prev})"
    )


def c_at_most(spec: CellSpec, level: float, t: int, method: str = "auto") -> bool:
    """Is find_c(spec, level, method)[0] <= t? Usually without running find_c.

    c >= 0, so no t < 0 holds. For t >= 0, by the clamped-sweep definition
    of c, c <= t holds as soon as the clamped nu(j) exceeds the level at any
    j <= t+1; the clamped nu is never below the raw one.

    Where nu(t+1) is exact, the whole prefix up to it is exact and
    nondecreasing, so the clamp changes nothing, and the one-cell binomial
    bracket of exact nu (_binomial_bounds) settles the question without a
    convolution once it clears the level by _BOUND_MARGIN: a lower bound
    above holds, an upper bound below fails. The lower bound never decreases
    in c, so no smaller j would do better.

    Where t+1 lies past the exact prefix, a j < t+1 is asked first: the
    Hoeffding point c_h (_hoeffding_point), where the Bonferroni bound
    provably clears the level, usually far below t+1 ~ n*p_ref. If c_h is
    exact and its lower bound clears the level by _BOUND_MARGIN, c <= t holds
    with no nu; otherwise raw nu(c_h) is evaluated once, on windows about c_h
    wide rather than t wide, and c <= t holds if it is above the level.

    If neither settles it, raw nu(t+1) is evaluated once: above the level
    holds; exactly computed and below the level fails. Any other value
    (Edgeworth and not above the level, or equal to it) is settled by find_c
    itself.
    """
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must be in (0, 1)")
    if t < 0:
        return False
    exact = _computes_exactly(spec, t + 1, method)
    j = _hoeffding_point(spec, level)
    if not exact and j <= t:
        if _computes_exactly(spec, j, method) \
                and _binomial_bounds(spec, j)[0] > level + _BOUND_MARGIN:
            return True
        if coverage_probability(spec, j, method) > level:
            return True
    if exact:
        lower, upper = _binomial_bounds(spec, t + 1)
        if lower > level + _BOUND_MARGIN:
            return True
        if upper < level - _BOUND_MARGIN:
            return False
    v = coverage_probability(spec, t + 1, method)
    if v > level:
        return True
    if v < level and exact:
        return False
    return find_c(spec, level, method)[0] <= t

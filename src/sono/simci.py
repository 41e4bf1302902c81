"""Simultaneous multinomial confidence machinery.

The coverage probability nu(c) = P(all k multinomial cell counts fall within
+-c of their expected counts) is computed through the exact factorization of a
multinomial rectangle probability into a product of truncated-Poisson masses
times the pmf of their sum conditioned to total n, normalized by the
Poisson(n) atom at n.  The sum pmf is either computed exactly by convolution
(small truncation grids) or approximated by a fourth-order Edgeworth series
(everything else).  The integer half-width c and the interpolation weight
gamma then give two-sided and one-sided simultaneous intervals.

Expected counts m_i = n * p_i (possibly non-integer) are used both as Poisson
rates and as interval centers; truncation bounds are a_i = max(0, ceil(m_i-c))
and b_i = min(floor(m_i+c), n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, pdtr

from .errors import CISearchFailure, DomainError, OracleRefusal

# Below this product of truncation widths, nu is computed exactly by
# convolution instead of the Edgeworth approximation.
CONVOLUTION_AUTO_CAP = 1e5
# The convolution is also used whenever its estimated work (bounded by the
# squared sum of truncation widths) stays below this.
CONVOLUTION_AUTO_WORK = 4e7
# Array-work cap for an explicitly requested exact convolution.
CONVOLUTION_WORK_CAP = 2e8
_SNAP = 1e-9
_VAR_EPS = 1e-9
_LOG_TINY_TAIL = -45.0  # ~1e-20: treat the truncation as a no-op above this
# A cell holding more than this share of the aggregate variance breaks the
# central-limit behaviour of the sum; such cells are convolved exactly
# against an Edgeworth remainder.
_DOMINANCE_SHARE = 0.5
_DOMINANCE_MAX_CELLS = 4


@dataclass(frozen=True)
class CellSpec:
    """A k-cell multinomial: cell probabilities and the sample size."""

    probs: np.ndarray
    n: int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise DomainError("cell probabilities must be a non-empty vector")
        if np.any(v < 0) or np.any(v > 1):
            raise DomainError("cell probabilities must lie in [0, 1]")
        if abs(float(v.sum()) - 1.0) > 1e-12:
            raise DomainError("cell probabilities must sum to 1")
        if self.n < 1:
            raise DomainError("sample size must be >= 1")
        v.setflags(write=False)
        object.__setattr__(self, "probs", v)

    @property
    def k(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class SimultaneousCI:
    """Simultaneous interval endpoints plus the (c, gamma) pair behind them."""

    c: int
    gamma: float
    alpha: float
    lower: np.ndarray
    upper: np.ndarray
    sidedness: str  # "two-sided", "upper-one-sided", "lower-one-sided"


def _snap_int(x: np.ndarray) -> np.ndarray:
    """Round values that are within float fuzz of an integer."""
    r = np.round(x)
    return np.where(np.abs(x - r) <= _SNAP * (1.0 + np.abs(x)), r, x)


def poisson_log_pmf(y, lam):
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
    """P(Y <= k) for Y ~ Poisson(lam); k may be negative."""
    k = np.asarray(k, dtype=float)
    return np.where(k < 0, 0.0, pdtr(np.maximum(k, 0.0), lam))


def truncation_bounds(spec: CellSpec, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected counts and per-cell integer truncation bounds for half-width c."""
    m = spec.n * spec.probs
    a = np.maximum(0.0, np.ceil(_snap_int(m - c)))
    b = np.minimum(np.floor(_snap_int(m + c)), float(spec.n))
    return m, a, b


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


def _log_width_product(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.log(b - a + 1.0).sum())


def _coverage_convolution(spec: CellSpec, c: int, work_cap: float = CONVOLUTION_WORK_CAP) -> float:
    """Exact nu(c): convolve unnormalized truncated Poisson pmfs; read off at n.

    Width-1 cells contribute a deterministic shift and a scalar mass factor;
    only wider cells are actually convolved.
    """
    m, a, b = truncation_bounds(spec, c)
    if np.any(a > b):
        return 0.0
    if np.all((a == 0.0) & (b == float(spec.n))):
        return 1.0
    widths = (b - a).astype(np.int64)
    wide = widths > 0
    shift = int(a[~wide].sum())
    log_scale = float(poisson_log_pmf(a[~wide], m[~wide]).sum())
    if not np.isfinite(log_scale):
        return 0.0
    order = np.where(wide)[0]
    total_range = int(widths.sum())
    if (total_range + 1.0) * max(len(order), 1) > work_cap:
        raise OracleRefusal(
            f"exact convolution needs ~{(total_range + 1) * len(order):.2g} array cells, "
            f"cap is {work_cap:.2g}"
        )
    acc = None
    for i in order:
        y = np.arange(int(a[i]), int(b[i]) + 1, dtype=float)
        lp = poisson_log_pmf(y, m[i])
        mx = float(lp.max())
        log_scale += mx
        v = np.exp(lp - mx)
        shift += int(a[i])
        acc = v if acc is None else np.convolve(acc, v)
    if acc is None:  # every cell is width 1: the sum is an atom at `shift`
        fw_log = 0.0 if shift == spec.n else -np.inf
    else:
        idx = spec.n - shift
        if idx < 0 or idx >= acc.size or acc[idx] <= 0.0:
            fw_log = -np.inf
        else:
            fw_log = float(np.log(acc[idx]))
    val = math.exp(fw_log + log_scale - float(poisson_log_pmf(spec.n, spec.n))) \
        if np.isfinite(fw_log) else 0.0
    return min(max(val, 0.0), 1.0)


def _sum_density(mean: float, var: float, k3: float, k4: float, x) -> np.ndarray:
    """Edgeworth density with the zero-variance atom convention, vectorized."""
    x = np.asarray(x, dtype=float)
    if var <= _VAR_EPS:
        return (np.abs(x - mean) <= 0.5).astype(float)
    return np.maximum(_edgeworth_value(mean, var, k3, k4, x), 0.0)


def _coverage_edgeworth(spec: CellSpec, c: int, split_dominant: bool = False) -> float:
    """nu(c) through the Edgeworth density of the truncated-Poisson sum.

    With split_dominant, cells holding more than half of the remaining
    aggregate variance (the regime where the sum is nowhere near normal) are
    convolved exactly and only the remainder is approximated.
    """
    m, a, b = truncation_bounds(spec, c)
    if np.any(a > b):
        return 0.0
    if np.all((a == 0.0) & (b == float(spec.n))):
        return 1.0
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
    if split_dominant and cells["idx"].size:
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
            lp -= logsumexp(lp)  # normalized truncated pmf
            w = np.exp(lp)
            offset += int(a[i])
            pmf = w if pmf is None else np.convolve(pmf, w)
        args = spec.n - (offset + np.arange(pmf.size, dtype=float))
        fw = float(np.dot(pmf, _sum_density(*rest, args)))

    if fw <= 0.0:
        return 0.0
    log_ratio = sum_log_mass + math.log(fw) - float(poisson_log_pmf(spec.n, spec.n))
    return min(max(math.exp(log_ratio), 0.0), 1.0)


def coverage_probability(spec: CellSpec, c: int, method: str = "auto") -> float:
    """nu(c) = P(all cell counts within +-c of their expected counts), in [0, 1].

    method: "auto" uses exact convolution while the product of truncation
    widths is <= CONVOLUTION_AUTO_CAP and the Edgeworth approximation beyond;
    "edgeworth" and "exact" force one path.
    """
    if c < 0:
        raise DomainError("c must be >= 0")
    if spec.k == 1:
        return 1.0
    if method == "exact":
        return _coverage_convolution(spec, c)
    if method == "edgeworth":
        return _coverage_edgeworth(spec, c)
    if method != "auto":
        raise DomainError(f"unknown coverage method {method!r}")
    m, a, b = truncation_bounds(spec, c)
    if np.any(a > b):
        return 0.0
    width_sum = float((b - a + 1.0).sum())
    if _log_width_product(a, b) <= math.log(CONVOLUTION_AUTO_CAP) \
            or width_sum * width_sum <= CONVOLUTION_AUTO_WORK:
        return _coverage_convolution(spec, c)
    return _coverage_edgeworth(spec, c, split_dominant=True)


def find_c(spec: CellSpec, level: float, method: str = "auto") -> tuple[int, float]:
    """Smallest integer c with nu(c) < level < nu(c+1), plus the gamma weight.

    The sweep starts at c = 0 and clamps nu against its running maximum so the
    sequence is nondecreasing even where the Edgeworth approximation wiggles.
    If nu(0) already reaches the level, (0, 0.0) is returned.
    """
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must be in (0, 1)")
    prev = coverage_probability(spec, 0, method)
    if prev >= level:
        return 0, 0.0
    for c in range(0, spec.n):
        nxt = max(prev, coverage_probability(spec, c + 1, method))
        if nxt > level:
            gamma = (level - prev) / (nxt - prev) if nxt > prev else 0.0
            return c, float(gamma)
        prev = nxt
    raise CISearchFailure(
        f"no c in [0, {spec.n}] brackets level {level} (nu capped at {prev})"
    )


def simultaneous_intervals(spec: CellSpec, alpha: float, sidedness: str = "two-sided",
                           method: str = "auto") -> SimultaneousCI:
    """Simultaneous interval endpoints for all cell proportions.

    two-sided uses level 1-alpha: (p_i - c/n, p_i + (c+2*gamma)/n).
    One-sided variants use level 1-2*alpha: upper-one-sided keeps
    (p_i - c/n, 1); lower-one-sided keeps (0, p_i + (c+2*gamma)/n).
    Endpoints are the raw formula values, not clamped to [0, 1].
    """
    if not (0.0 < alpha <= 0.5):
        raise DomainError("alpha must be in (0, 0.5]")
    if sidedness not in ("two-sided", "upper-one-sided", "lower-one-sided"):
        raise DomainError(f"unknown sidedness {sidedness!r}")
    level = 1.0 - alpha if sidedness == "two-sided" else 1.0 - 2.0 * alpha
    if not (0.0 < level < 1.0):
        raise DomainError(f"resulting confidence level {level} is outside (0, 1)")
    c, gamma = find_c(spec, level, method)
    n = spec.n
    if sidedness == "two-sided":
        lower = spec.probs - c / n
        upper = spec.probs + (c + 2.0 * gamma) / n
    elif sidedness == "upper-one-sided":
        lower = spec.probs - c / n
        upper = np.ones_like(spec.probs)
    else:
        lower = np.zeros_like(spec.probs)
        upper = spec.probs + (c + 2.0 * gamma) / n
    return SimultaneousCI(c=c, gamma=gamma, alpha=alpha, lower=lower, upper=upper,
                          sidedness=sidedness)

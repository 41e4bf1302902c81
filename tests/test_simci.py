import math

import numpy as np
import pytest
import scipy.stats as st_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from sono import (CellSpec, DomainError, coverage_probability, exact_nu, find_c,
                  simultaneous_intervals, truncated_poisson_moments)
from sono.oracle import _literal_bounds, _sequential_convolution, sweep_find_c
import sono.simci
import sono.verify
from conftest import run_python
from sono.simci import (CONVOLUTION_WORK_CAP, _cell_moment_arrays, _computes_exactly,
                        _coverage_edgeworth, _edgeworth_value, _hoeffding_point,
                        _logsumexp, c_at_most)
from sono.verify import MOMENT_TOL, NU_BATTERY, battery_spec, kronecker_spec, suite_nu_accuracy


def direct_moments(lam, a, b):
    """Independent direct-summation oracle for truncated Poisson moments."""
    ys = np.arange(a, b + 1)
    w = np.array([math.exp(-lam + y * math.log(lam) - math.lgamma(y + 1)) for y in ys])
    mass = w.sum()
    w = w / mass
    m1 = float((ys * w).sum())
    cmom = [float((((ys - m1) ** k) * w).sum()) for k in (2, 3, 4)]
    return m1, *cmom, float(mass)


class TestTruncatedPoissonMoments:
    def test_untruncated_limit(self):
        m = truncated_poisson_moments(2.0, 0, 200)
        assert m.m1 == pytest.approx(2.0, abs=1e-9)
        assert m.mu2 == pytest.approx(2.0, abs=1e-9)
        assert m.mass == pytest.approx(1.0, abs=1e-9)

    def test_point_truncation(self):
        m = truncated_poisson_moments(3.0, 3, 3)
        assert m.m1 == 3.0
        assert m.mu2 == 0.0
        assert m.mass == pytest.approx(math.exp(-3) * 27 / 6)

    def test_against_direct_summation(self):
        m = truncated_poisson_moments(5.0, 2, 8)
        m1, mu2, mu3, mu4, mass = direct_moments(5.0, 2, 8)
        assert m.m1 == pytest.approx(m1, rel=1e-12)
        assert m.mu2 == pytest.approx(mu2, rel=1e-12)
        assert m.mu3 == pytest.approx(mu3, rel=1e-10)
        assert m.mu4 == pytest.approx(mu4, rel=1e-10)
        assert m.mass == pytest.approx(mass, rel=1e-12)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            truncated_poisson_moments(0.0, 0, 5)
        for lam in (math.nan, math.inf):  # used to surface as a zero-mass error
            with pytest.raises(DomainError):
                truncated_poisson_moments(lam, 0, 5)
        with pytest.raises(DomainError):
            truncated_poisson_moments(1.0, 5, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 40.0), st.integers(0, 30), st.integers(0, 40))
    def test_fast_aggregate_matches_public_op(self, lam, below, above):
        # windows that bracket the mean, the regime the coverage machinery uses
        a = max(0, math.floor(lam) - below)
        b = math.ceil(lam) + above
        cells = _cell_moment_arrays(
            np.array([lam]), np.array([float(a)]), np.array([float(b)]))
        if cells is None:
            return
        m = truncated_poisson_moments(lam, a, b)
        if cells["idx"].size:
            mean, var, k3, k4 = (float(cells[key][0])
                                 for key in ("m1", "mu2", "mu3", "k4"))
            assert cells["trivial_sum"] == 0.0
        else:  # negligible truncation: a Poisson's cumulants are all lam
            mean = var = k3 = k4 = cells["trivial_sum"]
        assert mean == pytest.approx(m.m1, rel=1e-8, abs=1e-10)
        assert var == pytest.approx(m.mu2, rel=1e-7, abs=1e-9)
        assert k3 == pytest.approx(m.mu3, rel=1e-6, abs=1e-7)
        assert k4 == pytest.approx(m.mu4 - 3 * m.mu2 ** 2, rel=1e-5, abs=1e-6)
        assert cells["sum_log_mass"] == pytest.approx(math.log(m.mass),
                                                      rel=1e-9, abs=1e-11)


def sum_density(cells, target):
    """The Edgeworth kernel's density at target of a sum of independent
    truncated Poissons, from their directly summed moments."""
    return _edgeworth_value(math.fsum(m.m1 for m in cells), math.fsum(m.mu2 for m in cells),
                            math.fsum(m.mu3 for m in cells),
                            math.fsum(m.mu4 - 3.0 * m.mu2 ** 2 for m in cells), float(target))


class TestEdgeworthSumDensity:
    def test_poisson_sum_pmf(self):
        cells = [truncated_poisson_moments(5.0, 0, 200) for _ in range(20)]
        approx = sum_density(cells, 100)
        exact = math.exp(-100 + 100 * math.log(100) - math.lgamma(101))
        assert approx == pytest.approx(exact, abs=1e-3)

    def test_against_convolution_oracle(self):
        lams = [1.0, 2.0, 3.0, 4.0, 5.0]
        cells = [truncated_poisson_moments(l, 0, 12) for l in lams]
        # dynamic-programming convolution of the normalized truncated pmfs
        pmf = np.array([1.0])
        for l in lams:
            ys = np.arange(0, 13)
            w = np.array([math.exp(-l + y * math.log(l) - math.lgamma(y + 1))
                          for y in ys])
            pmf = np.convolve(pmf, w / w.sum())
        assert sum_density(cells, 15) == pytest.approx(pmf[15], abs=1e-3)


def test_moment_audit_fails_on_a_kernel_with_a_wrong_mu3(monkeypatch):
    # mu3 off by 100 times its tolerance moves nu far less than NU_TOL, so
    # only the moment check can see it
    kernel = sono.simci._cell_moment_arrays

    def skewed(lam, a, b):
        cells = kernel(lam, a, b)
        if cells is not None:
            cells["mu3"] = cells["mu3"] * (1.0 + 100.0 * MOMENT_TOL["mu3"])
        return cells

    monkeypatch.setattr(sono.simci, "_cell_moment_arrays", skewed)  # the kernel's nu
    monkeypatch.setattr(sono.verify, "_cell_moment_arrays", skewed)  # the audit
    checks = {name: ok for name, ok, _ in suite_nu_accuracy()}
    assert checks.pop("Edgeworth cell moments") is False
    assert checks and all(checks.values()), checks


def enumeration_nu(probs, n, c):
    """Exhaustive multinomial oracle for small tables."""
    from itertools import product
    spec = CellSpec(probs=np.array(probs), n=n)
    a, b = spec.bounds(c)
    k = len(probs)
    total = 0.0
    rngs = [range(int(a[i]), int(b[i]) + 1) for i in range(k - 1)]
    for xs in product(*rngs):
        last = n - sum(xs)
        if not (a[k - 1] <= last <= b[k - 1]):
            continue
        logterm = math.lgamma(n + 1)
        for x, p in zip((*xs, last), probs):
            logterm += x * math.log(p) - math.lgamma(x + 1)
        total += math.exp(logterm)
    return total


class TestCoverageProbability:
    def test_full_coverage(self):
        spec = CellSpec(probs=np.array([0.5, 0.3, 0.2]), n=15)
        for method in ("auto", "exact"):
            assert coverage_probability(spec, 15, method) == 1.0
            assert coverage_probability(spec, 40, method) == 1.0

    def test_nan_probability_rejected(self):
        with pytest.raises(DomainError, match="lie in"):
            CellSpec(probs=np.array([np.nan, 0.5, 0.5]), n=10)

    def test_single_cell_is_one(self):
        spec = CellSpec(probs=np.array([1.0]), n=10)
        assert coverage_probability(spec, 0) == 1.0

    def test_three_equiprobable_vs_enumeration(self):
        spec = CellSpec(probs=np.full(3, 1 / 3), n=10)
        exact = enumeration_nu([1 / 3] * 3, 10, 3)
        assert exact == pytest.approx(0.9068739521414403, rel=1e-12)
        assert coverage_probability(spec, 3, "auto") == pytest.approx(exact, abs=2e-3)
        edgeworth = _coverage_edgeworth(spec, *spec.bounds(3))
        assert edgeworth == pytest.approx(exact, abs=2e-3)

    def test_binomial_identity(self):
        spec = CellSpec(probs=np.array([0.5, 0.5]), n=20)
        exact = float(st_stats.binom.cdf(12, 20, 0.5) - st_stats.binom.cdf(7, 20, 0.5))
        assert coverage_probability(spec, 2, "auto") == pytest.approx(exact, abs=2e-3)
        assert coverage_probability(spec, 2, "exact") == pytest.approx(exact, rel=1e-10)

    def test_nu_at_n_is_exactly_one(self):
        spec = CellSpec(probs=np.array([0.6, 0.3, 0.1]), n=23)
        assert coverage_probability(spec, 23) == 1.0

    def test_poisson_cdf_skips_pdtr_below_zero(self, monkeypatch):
        # P(Y <= k) is 0 for k < 0: pdtr sees only the entries with k >= 0,
        # and each value equals pdtr(max(k, 0), lam) masked to 0 where k < 0
        ufuncs = sono.simci._ufuncs()
        cdf_args, pdtr_k = [], []

        class Recorder:
            gammaln, bdtr = ufuncs.gammaln, ufuncs.bdtr

            @staticmethod
            def pdtr(k, lam):
                pdtr_k.append(np.array(k, dtype=float))
                return ufuncs.pdtr(k, lam)

        run_cdf = sono.simci._poisson_cdf
        monkeypatch.setattr(sono.simci, "_ufuncs", lambda: Recorder)
        monkeypatch.setattr(sono.simci, "_poisson_cdf",
                            lambda k, lam: cdf_args.append((k, lam)) or run_cdf(k, lam))
        spec = CellSpec(probs=np.full(3, 1 / 3), n=10)
        _coverage_edgeworth(spec, *spec.bounds(3))
        k = np.concatenate([k for k, _ in cdf_args])
        assert (k < 0).any()
        assert np.array_equal(np.concatenate(pdtr_k), k[k >= 0])
        for k, lam in cdf_args:
            masked = np.where(k < 0, 0.0, ufuncs.pdtr(np.maximum(k, 0.0), lam))
            assert run_cdf(k, lam).tobytes() == masked.tobytes()

    def test_dominant_cell_regression(self):
        # one cell carrying ~97% of the variance: an Edgeworth series over the
        # whole sum is off by ~12% here, so the kernel convolves that cell
        # exactly; auto must match the exact value
        probs = np.array([0.973] + [0.0] * 3 + [0.00675] * 4)
        probs = probs / probs.sum()
        spec = CellSpec(probs=probs, n=148)
        prev = 0.0
        for c in range(0, 149, 7):
            auto = coverage_probability(spec, c, "auto")
            exact = coverage_probability(spec, c, "exact")
            assert auto == pytest.approx(exact, abs=2e-3)
            assert auto >= prev - 1e-12  # monotone where it matters
            prev = max(prev, auto)

    def test_split_edgeworth_quality_on_big_table_regime(self):
        # auto convolves this table at every c, so the kernel is called directly
        spec = CellSpec(probs=np.array([0.4, 0.3, 0.15, 0.1, 0.05]), n=100)
        for c in range(5, 101, 5):
            split = _coverage_edgeworth(spec, *spec.bounds(c))
            exact = coverage_probability(spec, c, "exact")
            assert split == pytest.approx(exact, abs=2e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5), st.integers(5, 40), st.integers(0, 123))
    def test_clamped_sweep_nondecreasing_and_bounded(self, k, n, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k))
        spec = CellSpec(probs=probs, n=n)
        prev = 0.0
        for c in range(0, n + 1):
            v = coverage_probability(spec, c)
            assert 0.0 <= v <= 1.0
            prev = max(prev, v)
        assert prev == 1.0  # nu(n) = 1 exactly


def grid_specs():
    """The nu battery and 20 seeded product tables of 1 to 4 variables."""
    rng = np.random.default_rng(2718)
    specs = [battery_spec(*args) for args in NU_BATTERY]
    for seed in range(20):
        levels = tuple(int(l) for l in rng.integers(2, 8, size=int(rng.integers(1, 5))))
        specs.append(kronecker_spec(levels, int(rng.integers(10, 1500)), seed))
    return specs


class TestTruncationGrid:
    def test_bounds_equal_the_literal_formula(self):
        rng = np.random.default_rng(31)
        for spec in grid_specs():
            assert spec.m.tobytes() == (spec.n * spec.probs).tobytes()
            cs = np.arange(spec.n + 1)
            cs = rng.permutation(np.concatenate([cs, rng.choice(cs, spec.n // 2 + 1)]))
            for c in cs.tolist():  # shuffled, with repeats
                a, b = spec.bounds(c)
                _, a_ref, b_ref = _literal_bounds(spec, c)
                assert a.tobytes() == a_ref.tobytes() and b.tobytes() == b_ref.tobytes(), c

    def test_bounds_are_computed_once_and_read_only(self):
        spec = kronecker_spec((7, 6, 4), 1389, seed=3)
        a, b = spec.bounds(25)
        assert spec.bounds(25)[0] is a and spec.bounds(25)[1] is b
        for array in (a, b, spec.m):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_c_at_most_is_find_c_at_most_t(self, method):
        # the battery, plus a table whose nu(0) is 1, so c = 0 and t = -1
        specs = [battery_spec(*args) for args in NU_BATTERY]
        for spec in specs + [CellSpec(probs=np.array([1.0, 0.0]), n=10)]:
            for level in (0.9, 0.95):
                c = find_c(spec, level, method)[0]
                for t in (c - 1, c, c + 1):
                    assert c_at_most(spec, level, t, method) == (c <= t), (spec, level, t)
        # n = 30000 tables of k = 2, 4, 16, 64 cells, also at the maxlen rule's
        # t = floor(n * p_max - 2) >> c, where auto's t + 1 is past the exact
        # prefix and the question is asked at the Hoeffding point first: by
        # its bracket for k = 2 and 4, by an Edgeworth nu for k = 16 and 64
        probes = set()
        for levels in ((2,), (2, 2), (2,) * 4, (2,) * 6):
            spec = kronecker_spec(levels, 30000, seed=3)
            for level in (0.9, 0.95):
                c = find_c(spec, level, method)[0]
                t_rule = math.floor(spec.n * spec.probs.max() - 2)
                assert t_rule > 20 * c
                if method == "auto":
                    assert not _computes_exactly(spec, t_rule + 1, method)
                    probes.add(_computes_exactly(spec, _hoeffding_point(spec, level), method))
                for t in (c - 1, c, c + 1, t_rule):
                    assert c_at_most(spec, level, t, method) == (c <= t), (spec, level, t)
        assert probes == ({True, False} if method == "auto" else set())


class TestFindC:
    def test_degenerate_single_cell(self):
        spec = CellSpec(probs=np.array([1.0]), n=50)
        assert find_c(spec, 0.95) == (0, 0.0)

    def test_five_equiprobable_matches_exact_sweep(self):
        spec = CellSpec(probs=np.full(5, 0.2), n=100)
        c_auto, gamma_auto = find_c(spec, 0.95, "auto")
        c_exact, _ = find_c(spec, 0.95, "exact")
        assert c_auto == c_exact == 9  # frozen from the exact-convolution sweep
        assert 0.0 <= gamma_auto < 1.0

    def test_skewed_within_one_of_exact(self):
        spec = CellSpec(probs=np.array([0.6, 0.3, 0.1]), n=50)
        c_auto, _ = find_c(spec, 0.90, "auto")
        c_exact, _ = find_c(spec, 0.90, "exact")
        assert abs(c_auto - c_exact) <= 1
        assert c_exact == 5  # frozen from the exact-convolution sweep

    def test_bracketing_invariant(self):
        spec = CellSpec(probs=np.array([0.4, 0.35, 0.25]), n=60)
        level = 0.9
        c, gamma = find_c(spec, level)
        if c > 0:
            sweep = []
            prev = 0.0
            for cc in range(0, c + 2):
                prev = max(prev, coverage_probability(spec, cc))
                sweep.append(prev)
            assert sweep[c] < level
            assert sweep[c + 1] > level
        assert 0.0 <= gamma < 1.0

    def test_level_monotonicity(self):
        spec = CellSpec(probs=np.array([0.5, 0.5]), n=40)
        c_lo, _ = find_c(spec, 0.5)
        c_hi, _ = find_c(spec, 0.95)
        assert c_lo <= c_hi

    def test_bad_level(self):
        spec = CellSpec(probs=np.array([0.5, 0.5]), n=10)
        with pytest.raises(DomainError):
            find_c(spec, 0.0)
        for level in (0.0, 1.0):  # no c exists, and at 1 c_h would divide by zero
            with pytest.raises(DomainError):
                c_at_most(spec, level, 5)


def big_oracle_nu(spec, c):
    """The oracle's cell-by-cell convolution at the fast path's work cap, with
    no enumeration self-check, for tables far beyond exact_nu's caps."""
    return _sequential_convolution(spec, *_literal_bounds(spec, c), CONVOLUTION_WORK_CAP)


class TestFastExactCoverage:
    """The product-tree exact nu and the bracketed find_c against the oracle."""

    def test_matches_oracle_on_battery(self):
        for k, n, shape in NU_BATTERY:
            spec = battery_spec(k, n, shape)
            for c in range(0, n + 1):
                assert coverage_probability(spec, c, "exact") == pytest.approx(
                    exact_nu(spec, c), abs=1e-12), (k, n, shape, c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 1000), st.integers(1, 2000),
           st.sampled_from([0.1, 0.6, 5.0]), st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 3.0))
    def test_matches_oracle_on_dirichlet_tables(self, k, n, conc, seed, spread):
        probs = np.random.default_rng(seed).dirichlet(np.full(k, conc))
        spec = CellSpec(probs=probs / probs.sum(), n=n)
        # around the half-widths find_c visits: a few sd of a mean-sized cell
        c = int(round(spread * (math.sqrt(n / k) + 1.0) * 3.0))
        assert coverage_probability(spec, c, "exact") == pytest.approx(
            big_oracle_nu(spec, c), abs=1e-12)

    def test_large_table_does_not_overflow(self):
        # the unscaled accumulator used to overflow here: inf * 0 gave NaN and
        # nu read 0.0 at every c in 2..11, so the exact sweep never ended
        spec = CellSpec(probs=np.full(1000, 1 / 1000), n=1389)
        for c in range(2, 12):
            fast = coverage_probability(spec, c, "exact")
            assert fast > 0.0
            assert fast == pytest.approx(big_oracle_nu(spec, c), abs=1e-12)
        assert find_c(spec, 0.9, "exact")[0] == find_c(spec, 0.9, "auto")[0] == 5

    def test_find_c_matches_literal_sweep_on_battery(self):
        for k, n, shape in NU_BATTERY:
            spec = battery_spec(k, n, shape)
            for level in (0.5, 0.9, 0.95):
                for method in ("auto", "exact"):
                    c, gamma = find_c(spec, level, method)
                    c_ref, gamma_ref = sweep_find_c(spec, level, method)
                    assert c == c_ref, (k, n, shape, level, method)
                    assert gamma == pytest.approx(gamma_ref, abs=1e-9)

    @pytest.mark.parametrize("levels", [(7, 6, 4, 2), (6, 4, 3, 3), (7, 6, 4, 3),
                                        (7, 6, 4)])
    def test_find_c_matches_literal_sweep_across_paths(self, levels):
        # flare-shaped tables; all but the last cross from the exact
        # convolution to the Edgeworth path before the level is reached
        spec = kronecker_spec(levels, 1389, seed=3)
        for method in ("auto", "exact"):
            c, gamma = find_c(spec, 0.9, method)
            c_ref, gamma_ref = sweep_find_c(spec, 0.9, method)
            assert c == c_ref
            assert gamma == pytest.approx(gamma_ref, abs=1e-9)
        c = find_c(spec, 0.9, "auto")[0]
        crosses = not _computes_exactly(spec, c + 1, "auto")
        assert crosses == (levels != (7, 6, 4))

    @pytest.mark.parametrize("below_crossing", [False, True])
    def test_find_c_from_a_start_below_the_crossing(self, monkeypatch, below_crossing):
        # The Bonferroni start never lies below the crossing c + 1 where nu is
        # exact; a start that does (1, or c) takes the fallback sweep, which
        # must return the same (c, gamma) to the bit.
        specs = [battery_spec(*args) for args in NU_BATTERY]
        specs.append(kronecker_spec((7, 6, 4, 2), 1389, 3))
        for spec in specs:
            for level in (0.9, 0.95):
                for method in ("auto", "exact"):
                    c, gamma = find_c(spec, level, method)
                    start = max(c, 1) if below_crossing else 1
                    with monkeypatch.context() as m:
                        m.setattr(sono.simci, "_bonferroni_start", lambda *_: start)
                        got = find_c(spec, level, method)
                    assert (got[0], got[1].hex()) == (c, gamma.hex()), (spec, level, method)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.integers(5, 400), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 0.9, 0.95, 0.99]),
           st.sampled_from(["auto", "exact"]))
    def test_find_c_matches_literal_sweep_on_dirichlet_tables(self, k, n, seed, level,
                                                              method):
        probs = np.random.default_rng(seed).dirichlet(np.full(k, 0.6))
        spec = CellSpec(probs=probs / probs.sum(), n=n)
        c, gamma = find_c(spec, level, method)
        c_ref, gamma_ref = sweep_find_c(spec, level, method)
        assert c == c_ref
        assert gamma == pytest.approx(gamma_ref, abs=1e-9)


class TestSimultaneousIntervals:
    def test_upper_one_sided_endpoints(self):
        # The upper one-sided intervals at alpha, (p_i - c/n, 1), are the
        # lower ends of the two-sided ones at 2*alpha: level 0.90 here, the
        # c behind the infrequent thresholds n*p_i - c.
        spec = CellSpec(probs=np.array([0.5, 0.5]), n=100)
        for method in ("exact", "auto"):
            assert find_c(spec, 0.90, method)[0] == 7  # frozen: exact bracketing
        ci = simultaneous_intervals(spec, 0.10)
        assert ci.c == 7
        assert ci.lower.tolist() == pytest.approx([0.5 - 0.07, 0.5 - 0.07])

    def test_two_sided_alpha_half_allowed(self):
        spec = CellSpec(probs=np.array([0.5, 0.5]), n=30)
        ci_half = simultaneous_intervals(spec, 0.5)
        ci_strict = simultaneous_intervals(spec, 0.05)
        assert ci_half.c <= ci_strict.c

    def test_degenerate_single_cell(self):
        spec = CellSpec(probs=np.array([1.0]), n=25)
        ci = simultaneous_intervals(spec, 0.05)
        assert (ci.c, ci.gamma) == (0, 0.0)
        assert ci.lower.tolist() == [1.0]
        assert ci.upper.tolist() == [1.0]

    def test_endpoints_not_clamped(self):
        # a rare cell with a large c gives a negative raw lower endpoint
        spec = CellSpec(probs=np.array([0.02, 0.49, 0.49]), n=50)
        ci = simultaneous_intervals(spec, 0.05)
        assert ci.lower.min() < 0.0


# Loads the ufuncs through simci._ufuncs in a fresh process and checks that no
# SciPy package init ran and no stand-in was left; then that scipy.special,
# imported after it, exports the same objects, whose values on a grid are
# bit-identical.
DIRECT_UFUNCS = """
import sys
import numpy as np
from sono.simci import _ufuncs
u = _ufuncs()
assert sys.modules["scipy.special._ufuncs"] is u
left = {"scipy", "scipy._lib", "scipy.special"} & set(sys.modules)
assert not left, f"a package init ran or a stand-in was left: {left}"
k = np.arange(-2.0, 60.0, 0.5)
lam = np.array([0.0, 1e-3, 0.5, 3.0, 17.25, 59.0])
p = np.array([0.0, 1e-4, 0.05, 0.3, 0.5, 0.99, 1.0])
grid = {"gammaln": (np.linspace(-3.5, 400.0, 1619),),
        "pdtr": (k[:, None], lam),
        "bdtr": (k[:, None], 59, p)}
values = {f: getattr(u, f)(*args) for f, args in grid.items()}
import scipy.special
for f, args in grid.items():
    public = getattr(scipy.special, f)
    assert public is getattr(u, f), f
    assert public(*args).tobytes() == values[f].tobytes(), f
"""

# Makes the direct load fail, by the import of the ufunc module raising
# ImportError ("import") or by find_spec finding no scipy._lib ("spec"), then
# checks that simci._ufuncs imported the scipy.special package instead and
# left the packages themselves, not stand-ins, in sys.modules.
FALLBACK_UFUNCS = """
import importlib, importlib.util, sys
import_module, find_spec = importlib.import_module, importlib.util.find_spec

def refuse(name, *args):
    if name == "scipy.special._ufuncs":
        raise ImportError("moved in this SciPy")
    return import_module(name, *args)

def find_no_lib(name, *args):
    return None if name == "scipy._lib" else find_spec(name, *args)

if sys.argv[1] == "import":
    importlib.import_module = refuse
else:
    importlib.util.find_spec = find_no_lib
from sono.simci import _ufuncs
u = _ufuncs()
importlib.import_module, importlib.util.find_spec = import_module, find_spec
for name, attr in (("scipy", "__version__"), ("scipy._lib", "test"),
                   ("scipy.special", "logsumexp")):
    assert attr in vars(sys.modules[name]), f"a stand-in for {name} was left in sys.modules"
special = sys.modules["scipy.special"]
import scipy.special
assert scipy.special is special and u is special._ufuncs
assert special.gammaln is u.gammaln
"""


class TestUfuncLoader:
    """simci._ufuncs: scipy.special's compiled ufuncs without the package inits."""

    def test_after_the_package_it_returns_the_package_module(self):
        import scipy.special
        assert sono.simci._ufuncs() is scipy.special._ufuncs

    def test_direct_load_gives_the_public_ufuncs(self):
        proc = run_python(DIRECT_UFUNCS)
        assert proc.returncode == 0, proc.stderr

    def test_failed_direct_load_falls_back_to_the_package(self):
        proc = run_python(FALLBACK_UFUNCS, "import")
        assert proc.returncode == 0, proc.stderr

    def test_missing_package_spec_falls_back_to_the_package(self):
        proc = run_python(FALLBACK_UFUNCS, "spec")
        assert proc.returncode == 0, proc.stderr


# Evaluates the Edgeworth kernel at every nu-battery point whose truncation is
# neither empty nor full, counting the dominant-cell branch's normalizations,
# and prints each nu as float.hex; the scipy.special package stays unimported.
BATTERY_KERNEL = """
import sys
import numpy as np
import sono.simci as simci
from sono.verify import NU_BATTERY, battery_spec
normalized = []
run_logsumexp = simci._logsumexp
simci._logsumexp = lambda a: normalized.append(a) or run_logsumexp(a)
values = []
for k, n, shape in NU_BATTERY:
    spec = battery_spec(k, n, shape)
    for c in range(n + 1):
        a, b = spec.bounds(c)
        if np.all(a <= b) and not np.all((a == 0) & (b == n)):
            values.append(simci._coverage_edgeworth(spec, a, b).hex())
assert len(normalized) > 100, len(normalized)
assert "scipy.special" not in sys.modules, "scipy.special was imported"
print(*values)
"""


class TestLogsumexp:
    """simci._logsumexp: scipy.special.logsumexp's value, without the package."""

    def test_bytes_equal_scipy_on_seeded_vectors(self):
        from scipy.special import logsumexp
        rng = np.random.default_rng(20241)
        ties = 0
        for _ in range(5000):
            n = int(rng.integers(1, 300))
            a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n)
            if rng.random() < 0.3:
                a[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = a.max()
            if rng.random() < 0.2:
                a = np.round(a)
            ties += np.count_nonzero(a == a.max()) > 1
            assert _logsumexp(a).tobytes() == logsumexp(a).tobytes(), a
        assert ties > 1000

    def test_dominant_cell_kernel_matches_scipy_without_the_package(self, monkeypatch):
        from scipy.special import logsumexp
        proc = run_python(BATTERY_KERNEL)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr(sono.simci, "_logsumexp", logsumexp)
        expected = []
        for k, n, shape in NU_BATTERY:
            spec = battery_spec(k, n, shape)
            for c in range(n + 1):
                a, b = spec.bounds(c)
                if np.all(a <= b) and not np.all((a == 0) & (b == n)):
                    expected.append(_coverage_edgeworth(spec, a, b).hex())
        assert proc.stdout.split() == expected

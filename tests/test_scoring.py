import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import sono.engine
from sono import (DomainError, InternalConsistencyError, RunConfig, build_report,
                  empirical_model, max_score_bound, random_dataset, run_analysis)

from conftest import flags_of, make_dataset


def rec(entries, supp, sigma):
    """A flagged cell as the tuple (entries, supp, sigma), variables ascending."""
    return tuple(sorted(entries)), supp, sigma


def report_of(flag_sets, r=2.0, mode="infrequent", maxlen=3, p=6):
    return build_report(flags_of(flag_sets, p), r=r, mode=mode, maxlen=maxlen)


class TestScore:
    def test_single_term(self):
        flags = [[rec([(0, 1)], supp=2, sigma=10.0)]]
        assert report_of(flags, r=2.0, mode="infrequent", maxlen=3).scores[0] == 5.0

    def test_empty_is_zero(self):
        assert report_of([[]], r=2.0, mode="infrequent", maxlen=3).scores[0] == 0.0

    def test_frequent_term(self):
        flags = [[rec([(0, 1), (1, 2)], supp=30, sigma=10.0)]]
        # maxlen 3, |d| = 2 -> (3 - 2 + 1)^r = 4
        assert report_of(flags, r=2.0, mode="frequent", maxlen=3).scores[0] \
            == pytest.approx(30 / 40.0)

    def test_infrequent_terms_at_least_inverse_length_power(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            ds = random_dataset(rng, n_max=80, p_max=4)
            model = empirical_model(ds)
            _, _, flags = run_analysis(ds, model, RunConfig(r=2.0))
            length = (flags.levels > 0).sum(axis=1)
            terms = flags.sigma / (flags.supp * length ** 2.0)
            assert np.all(terms >= 1.0 / length ** 2.0 - 1e-12)

    def test_frequent_nonpositive_sigma_is_internal_error(self):
        flags = [[rec([(0, 1)], supp=5, sigma=0.0)]]
        with pytest.raises(InternalConsistencyError):
            report_of(flags, r=1.0, mode="frequent", maxlen=2)

    def test_r_validation(self):
        with pytest.raises(DomainError):
            report_of([[]], r=0.0, mode="infrequent", maxlen=1)
        ds = make_dataset([[1, 1], [1, 2], [2, 1], [1, 1]] * 10)
        with pytest.warns(UserWarning, match="not recommended") as caught:
            run_analysis(ds, empirical_model(ds), RunConfig(r=5.0))
        assert caught[0].filename == __file__  # names run_analysis's caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report_of([[]], r=5.0, mode="infrequent", maxlen=1)
            max_score_bound(n=10, p=4, r=5.0, maxlen=2)

    def test_large_r_warns_before_threshold_work(self, monkeypatch):
        def no_thresholds(*args, **kwargs):
            raise RuntimeError("threshold work started")

        monkeypatch.setattr(sono.engine, "ThresholdProvider", no_thresholds)
        ds = make_dataset([[1, 1], [1, 2], [2, 1], [1, 1]] * 10)
        with pytest.warns(UserWarning, match="strongly damps"), \
                pytest.raises(RuntimeError, match="threshold work started"):
            run_analysis(ds, empirical_model(ds), RunConfig(r=4.0))

    def test_large_r_warns_once_per_run(self):
        ds = make_dataset([[1, 1], [1, 2], [2, 1], [1, 1]] * 10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_analysis(ds, empirical_model(ds), RunConfig(r=4.0))
        assert [str(w.message) for w in caught
                if issubclass(w.category, UserWarning)] == [
            "r=4.0 strongly damps longer itemsets; values much above 3.0 "
            "are not recommended"]


class TestDepth:
    def test_worked_example_bottom_up(self):
        flags = [[rec([(0, 1)], 1, 5.0),
                  rec([(0, 1), (1, 1), (2, 1)], 1, 4.0)]]
        assert report_of(flags, mode="infrequent", maxlen=3).depths[0] == 2.0

    def test_worked_example_top_down(self):
        flags = [[rec([(0, 1), (1, 1)], 9, 5.0), rec([(2, 1)], 9, 4.0)]]
        assert report_of(flags, mode="frequent", maxlen=3).depths[0] == 2.5

    def test_single_record(self):
        flags = [[rec([(1, 2)], 3, 7.0)]]
        assert report_of(flags, mode="infrequent", maxlen=4).depths[0] == 1.0

    def test_zero_depth_iff_zero_score(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ds = random_dataset(rng, n_max=70, p_max=4)
            model = empirical_model(ds)
            report, info, _ = run_analysis(ds, model, RunConfig())
            assert np.array_equal(report.depths == 0, report.scores == 0)
            nz = report.depths[report.depths > 0]
            assert np.all(nz >= 1.0)
            assert np.all(nz <= info.maxlen)


class TestContributions:
    def test_equal_split(self):
        flags = [[rec([(1, 1), (4, 2)], supp=1, sigma=8.0)]]
        mat = report_of(flags, r=1.0, mode="infrequent", maxlen=3, p=6).contributions
        assert mat[0, 1] == pytest.approx(2.0)
        assert mat[0, 4] == pytest.approx(2.0)
        assert mat[0].sum() == pytest.approx(4.0)  # equals the score term 8/(1*2)
        assert mat[0, 0] == 0.0

    def test_empty_row_is_zero(self):
        mat = report_of([[]], r=2.0, mode="infrequent", maxlen=2, p=3).contributions
        assert np.all(mat == 0)

    def test_nonnegative_and_row_sums_match_scores(self):
        rng = np.random.default_rng(13)
        for mode in ("infrequent", "frequent"):
            for _ in range(4):
                ds = random_dataset(rng, n_max=80, p_max=5)
                model = empirical_model(ds)
                report, _, _ = run_analysis(ds, model, RunConfig(mode=mode, r=1.5))
                assert np.all(report.contributions >= 0)
                np.testing.assert_allclose(report.contributions.sum(axis=1),
                                           report.scores, rtol=1e-9, atol=1e-12)


class TestMaxScoreBound:
    def test_small_p_branch(self):
        assert max_score_bound(n=10, p=2, r=2.0, maxlen=2) == 18.0

    def test_closed_form_branch(self):
        assert max_score_bound(n=2, p=20, r=2.0, maxlen=20) \
            == pytest.approx(math.comb(20, 9) / 81)

    def test_maxlen_caps_k(self):
        assert max_score_bound(n=2, p=20, r=2.0, maxlen=4) \
            == pytest.approx(math.comb(20, 4) / 16)

    # The closed form floor((p-r)/2) is an asymptotic approximation of the
    # exact bracketing solution; it is off by one at exactly two boundary
    # points in the tested grid.
    BOUNDARY_OFF_BY_ONE = {(10, 2.0): 3, (17, 3.0): 6}

    @staticmethod
    def _brute_force(p, r, maxlen):
        """Exact max_{1<=k<=min(maxlen,p)} C(p,k)/k^r for integer r."""
        return max(Fraction(math.comb(p, k), k ** int(r))
                   for k in range(1, min(maxlen, p) + 1))

    def test_formula_contract(self):
        for r in (1.0, 2.0, 3.0):
            lo = int(2 ** (r + 1) + 1)
            for p in range(lo, 61, 7):
                for maxlen in (2, p // 2, p):
                    assert max_score_bound(2, p, r, maxlen) \
                        == pytest.approx(float(self._brute_force(p, r, maxlen)),
                                         rel=1e-12)

    def test_matches_brute_force_except_documented_boundary(self):
        # The bound is exact everywhere, including the points where the
        # closed form floor((p-r)/2) is off by one (BOUNDARY_OFF_BY_ONE) and
        # where a single length beats the singletons below the threshold.
        for r in (1.0, 2.0, 3.0):
            for p in range(2, 61):
                for maxlen in (1, p // 2, p):
                    best = self._brute_force(p, r, maxlen)
                    assert max_score_bound(2, p, r, maxlen) \
                        == pytest.approx(float(best), rel=1e-12)

    def test_closed_form_argmax_true_characterization(self):
        from fractions import Fraction
        for r in (1, 2, 3):
            for p in range(int(2 ** (r + 1) + 1), 61):
                values = [Fraction(math.comb(p, k), k ** r)
                          for k in range(1, p + 1)]
                best = max(values)
                argmaxes = {k + 1 for k, v in enumerate(values) if v == best}
                expect = math.floor((p - r) / 2)
                if (p, float(r)) in self.BOUNDARY_OFF_BY_ONE:
                    assert argmaxes == {self.BOUNDARY_OFF_BY_ONE[(p, float(r))]}
                    assert all(abs(a - expect) == 1 for a in argmaxes)
                else:
                    assert expect in argmaxes


class TestScaleFree:
    def test_doubling_rows_doubles_supports(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, n_max=50, p_max=4)
        codes = ds.codes
        doubled = make_dataset(np.vstack([codes, codes]), level_counts=ds.level_counts)
        doubled_codes = doubled.codes
        for subset in ((0,), tuple(range(ds.p))):
            base = Counter(map(tuple, codes[:, subset].tolist()))
            twice = Counter(map(tuple, doubled_codes[:, subset].tolist()))
            assert twice == {cell: 2 * cnt for cell, cnt in base.items()}
        # empirical proportions unchanged
        m1 = empirical_model(ds)
        m2 = empirical_model(doubled)
        for a, b in zip(m1.pi, m2.pi):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


class TestBuildReport:
    def test_fields_round_trip(self):
        flags = [[rec([(0, 1)], 1, 3.0)], []]
        report = build_report(flags_of(flags, 2), r=2.0, mode="infrequent", maxlen=2)
        assert report.scores.shape == (2,)
        assert report.contributions.shape == (2, 2)
        assert report.scores[1] == 0.0

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as st_stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sono.oracle
import sono.simci
from sono import (CellSpec, OracleRefusal, RunConfig,
                  check_propositions, empirical_model, exact_nu, load_dataset,
                  random_dataset, run_analysis, user_model, walker)
from sono.oracle import (_best_configuration, _coverage_enumeration, flag_keys,
                         simulated_coverage)
from sono.verify import suite_coverage_simulation

from conftest import flags_of, make_dataset


class TestExactNu:
    def test_binomial_identity(self):
        spec = CellSpec(probs=np.array([0.3, 0.7]), n=25)
        for c in (0, 1, 3, 7):
            lo, hi = math.ceil(25 * 0.3 - c), math.floor(25 * 0.3 + c)
            lo = max(lo, 0)
            want = float(st_stats.binom.cdf(hi, 25, 0.3)
                         - st_stats.binom.cdf(lo - 1, 25, 0.3)) if lo <= hi else 0.0
            # the other cell's window must also hold; for k=2 they coincide
            assert exact_nu(spec, c) == pytest.approx(want, abs=1e-12)

    def test_enumeration_self_check_runs(self):
        # k=3 equiprobable n=10: 66 in-range outcomes at c=3; the conv/enum
        # self-check inside exact_nu raises on any disagreement > 1e-12
        spec = CellSpec(probs=np.full(3, 1 / 3), n=10)
        assert exact_nu(spec, 3) == pytest.approx(0.9068739521414403, rel=1e-12)

    def test_full_coverage_is_one(self):
        spec = CellSpec(probs=np.array([0.25, 0.25, 0.5]), n=12)
        assert exact_nu(spec, 12) == 1.0
        assert exact_nu(spec, 30) == 1.0

    def test_refusal_beyond_caps(self):
        # the convolution would need about 1.7e7 array cells, over the 1e7 cap
        spec = CellSpec(probs=np.full(200, 1 / 200), n=5000)
        with pytest.raises(OracleRefusal, match="cap is 1e"):
            exact_nu(spec, 400)


class TestWalker:
    def test_caps(self):
        # one past each cap: 501 rows, 9 variables, 18^4 = 104,976 table cells
        rng = np.random.default_rng(0)
        for n, level_counts in ((501, (2, 2)), (20, (2,) * 9), (20, (18,) * 4)):
            codes = np.column_stack([rng.integers(1, l + 1, size=n) for l in level_counts])
            ds = make_dataset(codes, level_counts)
            with pytest.raises(OracleRefusal, match="walker caps exceeded"):
                walker(ds, empirical_model(ds), 0.05, 2.0)

    def test_single_variable_matches_fast_path(self):
        ds = make_dataset([[1]] * 30 + [[2]] * 3 + [[3]] * 27, level_counts=(3,))
        model = empirical_model(ds)
        report, info, flags = run_analysis(ds, model, RunConfig(alpha=0.05))
        ref = walker(ds, model, 0.05, 2.0)
        assert flag_keys(flags) == list(map(frozenset, ref.flag_sets))
        np.testing.assert_allclose(report.scores, ref.report.scores, rtol=1e-9)

    def test_prune_off_strictly_larger_on_engineered_fixture(self):
        # a flagged singleton whose pair superset is independently below its
        # own threshold: without pruning the pair adds a positive term
        rows = ([[1, 1]] * 50 + [[1, 2]] * 50 + [[2, 1]] * 200 + [[2, 2]] * 200)
        ds = make_dataset(rows)
        ds_ext, model = user_model(
            ds, {"X1": {"1": 0.5, "2": 0.5}, "X2": {"1": 0.5, "2": 0.5}})
        res_on = walker(ds_ext, model, 0.05, 2.0, prune=True)
        res_off = walker(ds_ext, model, 0.05, 2.0, prune=False)
        flagged_on = {entries for recs in res_on.flag_sets for entries, _, _ in recs}
        flagged_off = {entries for recs in res_off.flag_sets for entries, _, _ in recs}
        assert ((0, 1),) in flagged_on
        assert not any(len(i) == 2 for i in flagged_on)
        assert any(len(i) == 2 for i in flagged_off)
        # per-observation scores strictly larger wherever a pair was added
        assert res_off.report.scores[0] > res_on.report.scores[0]
        # the same fixture through the fast path agrees with the walker
        for prune, ref in ((True, res_on), (False, res_off)):
            rep, _, flags = run_analysis(
                ds_ext, model, RunConfig(prune=prune, alpha=0.05, r=2.0))
            assert flag_keys(flags) == list(map(frozenset, ref.flag_sets))
            np.testing.assert_allclose(rep.scores, ref.report.scores, rtol=1e-9)

    def test_walker_is_deterministic(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_max=60, p_max=4)
        model = empirical_model(ds)
        a = walker(ds, model, 0.1, 1.0, mode="frequent")
        b = walker(ds, model, 0.1, 1.0, mode="frequent")
        assert a.flag_sets == b.flag_sets
        assert a.report.scores.tolist() == b.report.scores.tolist()


class TestFlagKeys:
    def test_round_trip_of_handcrafted_sets(self):
        # cells shared across rows, a row with no flags, and one cell that
        # differs from another only in its threshold
        a = (((0, 1),), 3, 2.5)
        b = (((0, 1), (2, 2)), 1, 4.0)
        c = (((1, 3), (2, 2), (3, 1)), 2, 0.75)
        d = (((0, 1),), 3, 2.75)
        sets = [[a, b], [], [b, c, a], [c], [d, a]]
        assert flag_keys(flags_of(sets, 4)) == [frozenset(s) for s in sets]

    def test_keys_follow_the_row_map(self):
        # four observations over the two distinct rows of a table
        cell = (((1, 2),), 4, 1.0)
        flags = dataclasses.replace(flags_of([[cell], []], 2),
                                    group=np.array([1, 0, 0, 1]))
        assert flag_keys(flags) == [frozenset(), {cell}, {cell}, frozenset()]


def per_row_report(flags, r, mode, maxlen, p):
    """Scores, depths and contributions summed cell by cell, walking the
    incidences `flags.row`/`flags.cell` in order (search order in each row)."""
    levels, supp, sigma = flags.levels.tolist(), flags.supp.tolist(), flags.sigma.tolist()
    terms = [[] for _ in range(flags.distinct)]
    lengths = [[] for _ in range(flags.distinct)]
    contributions = [[0.0] * p for _ in range(flags.distinct)]
    for i, k in zip(flags.row.tolist(), flags.cell.tolist()):
        variables = [j for j, v in enumerate(levels[k]) if v]
        d = len(variables)
        if mode == "infrequent":
            length = d
            term = sigma[k] / (supp[k] * d ** r)
            share = sigma[k] / (supp[k] * d ** (r + 1.0))
        else:
            length = maxlen - d + 1
            term = supp[k] / (sigma[k] * length ** r)
            share = supp[k] / (sigma[k] * length ** r * d)
        terms[i].append(term)
        lengths[i].append(length)
        for var in variables:
            contributions[i][var] += share
    rows = flags.group.tolist()
    return ([math.fsum(terms[i]) for i in rows],
            [sum(lengths[i]) / len(lengths[i]) if lengths[i] else 0.0 for i in rows],
            [list(contributions[i]) for i in rows])


class TestDuplicateHeavyData:
    """Few distinct rows with large multiplicities, the case the search and
    scoring collapse: flags against the walker, the report against per-row sums."""

    @settings(max_examples=20, deadline=None)
    @given(patterns=st.lists(st.lists(st.sampled_from("abc"), min_size=3, max_size=3),
                             min_size=2, max_size=8),
           multiplicities=st.lists(st.integers(1, 37), min_size=8, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1),
           r=st.sampled_from([0.5, 1.0, 1.7, 2.5]))
    def test_matches_walker_and_per_row_sums(self, patterns, multiplicities, seed, r):
        rows = [row for row, m in zip(patterns, multiplicities) for _ in range(m)]
        np.random.default_rng(seed).shuffle(rows)
        ds = load_dataset(rows, RunConfig(header=False))
        model = empirical_model(ds)
        for mode in ("infrequent", "frequent"):
            for prune in (True, False):
                report, info, flags = run_analysis(
                    ds, model, RunConfig(mode=mode, prune=prune, alpha=0.1, r=r))
                ref = walker(ds, model, 0.1, r, mode=mode, prune=prune)
                assert info.maxlen == ref.maxlen
                assert flags.group.size == ds.n == len(rows)
                assert flag_keys(flags) == list(map(frozenset, ref.flag_sets))
                scores, depths, contributions = per_row_report(
                    flags, r, mode, info.maxlen, ds.p)
                assert report.scores.tolist() == scores
                assert report.depths.tolist() == depths
                assert report.contributions.tolist() == contributions
                # the report keeps one entry per distinct row; each
                # per-observation array is its distinct rows gathered by group
                assert report.distinct_contributions.shape == (flags.distinct, ds.p)
                for name in ("scores", "depths", "contributions"):
                    kept = getattr(report, f"distinct_{name}")
                    assert getattr(report, name).tobytes() == kept[flags.group].tobytes()


class TestCheckPropositions:
    def test_small_p_singletons_dominate(self):
        cases = check_propositions(range(8, 9), (2.0,))
        assert len(cases) == 1
        assert cases[0].checks["singletons_dominate"]

    def test_boundary_wins_at_threshold(self):
        cases = check_propositions(range(9, 10), (2.0,))
        assert cases[0].checks["boundary_dominates"]

    def test_p20_r2_argmax_is_9(self):
        cases = check_propositions(range(20, 21), (2.0,))
        assert cases[0].checks["argmax_closed_form"]
        assert "floor((p-r)/2)=9" in cases[0].details["argmax_closed_form"]

    def test_known_defect_cases_reported_failed(self):
        # asymptotic closed form off by one at the boundary
        for p, r in ((10, 2.0), (17, 3.0)):
            case = check_propositions(range(p, p + 1), (r,))[0]
            assert not case.checks["argmax_closed_form"]
        # the first proposition's claimed threshold has a gap at r=3
        for p in (14, 15, 16):
            case = check_propositions(range(p, p + 1), (3.0,))[0]
            assert not case.checks["singletons_dominate"]

    def test_p_cap(self):
        with pytest.raises(OracleRefusal):
            check_propositions(range(61, 62), (1.0,))

    def test_boundary_is_recorded_on_every_case(self):
        # the best single-length value max_k C(p, k)/k^r, k = 2..p, on both
        # sides of the p < 2^(r+1)+1 threshold; at r=3 it first beats the p
        # singletons at p=14, three below the threshold (the singleton gap)
        cases = check_propositions(range(2, 21), (1.0, 2.0, 3.0))
        for case in cases:
            want = max(Fraction(math.comb(case.p, k), k ** int(case.r))
                       for k in range(2, case.p + 1))
            assert case.boundary == pytest.approx(float(want), rel=1e-12), (case.p, case.r)
        assert min(c.p for c in cases if c.r == 3.0 and c.boundary > c.p) == 14

    @staticmethod
    def enumerated_best(p, r):
        """Best score over the flag configurations listed one by one: for each
        length k = 2..p, no group or one group of a >= k of the still
        uncovered variables; the variables left over are singletons."""
        def best_from(k, free):
            if k > p:
                return float(free)
            best = best_from(k + 1, free)
            for a in range(k, free + 1):
                best = max(best, math.comb(a, k) / k ** r + best_from(k + 1, free - a))
            return best
        return best_from(2, p)

    def test_best_configuration_matches_enumeration(self):
        for p in range(1, 13):
            for r in (1.0, 1.5, 2.0, 3.0):
                assert _best_configuration(p, r) == pytest.approx(
                    self.enumerated_best(p, r), rel=1e-12), (p, r)

    def test_best_configuration_is_the_best_single_length(self):
        for p in range(2, 61):
            for r in (1, 2, 3):
                want = max(Fraction(math.comb(p, k), k ** r) for k in range(1, p + 1))
                assert _best_configuration(p, float(r)) == pytest.approx(
                    float(want), rel=1e-12), (p, r)


def test_oracle_does_not_reuse_the_fast_exact_path():
    import sono.oracle as oracle
    assert not hasattr(oracle, "_coverage_convolution")
    assert not hasattr(oracle, "find_c")


class TestCoverageSimulation:
    """`sono verify --suite coverage`: k = 5 equiprobable cells, n = 100,
    alpha 0.05, so c = 9, gamma = 0.747 and count bounds 11..30 per cell."""

    def test_exact_coverage_of_the_simulated_bounds(self):
        spec = CellSpec(probs=np.full(5, 0.2), n=100)
        ci, rate, exact = simulated_coverage(spec, 0.05, 1000, np.random.default_rng(0))
        assert (ci.c, round(ci.gamma, 3)) == (9, 0.747)
        assert exact == pytest.approx(
            _coverage_enumeration(spec, np.full(5, 11.0), np.full(5, 30.0)), abs=1e-12)
        assert round(exact, 6) == 0.944859

    @pytest.mark.parametrize("seed", [59, 231])
    def test_passes_where_the_simulated_rate_left_the_band(self, seed):
        # the rate of 10,000 draws reads 0.9376 and 0.9398 here, and failed
        # when the band [0.94, 0.99] was judged on it (2.1 SD below the mean)
        [(_, ok, detail)] = suite_coverage_simulation(seed)
        assert ok, detail

    @pytest.mark.parametrize("shift, coverage", [(-1, "0.892537"), (3, "0.994983")])
    def test_fails_when_the_exact_coverage_leaves_the_band(self, monkeypatch, shift,
                                                           coverage):
        # intervals built on a c one too small, or three too large
        real = sono.simci.find_c
        monkeypatch.setattr(sono.simci, "find_c", lambda spec, level: (
            real(spec, level)[0] + shift, real(spec, level)[1]))
        [(_, ok, detail)] = suite_coverage_simulation()
        assert not ok and detail.startswith(f"simultaneous coverage {coverage} exact")

    def test_fails_when_the_draws_disagree_with_the_exact_coverage(self, monkeypatch):
        # an exact value inside the band, but 15 SD from what the draws read
        monkeypatch.setattr(sono.oracle, "_sequential_convolution", lambda *args: 0.97)
        [(_, ok, detail)] = suite_coverage_simulation()
        assert not ok, detail

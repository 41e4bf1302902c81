import itertools
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sono import (Dataset, RunConfig, ThresholdProvider, empirical_model,
                  load_dataset, random_dataset, read_csv, run_analysis, search_frequent,
                  search_infrequent)
from sono.lattice import _observed_cells
from sono.oracle import flag_keys

from conftest import StubProvider, make_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def flagged_itemsets(flags):
    """The entries, (variable, level) pairs, of every flagged cell."""
    return {entries for keys in flag_keys(flags) for entries, _, _ in keys}


def support(codes, subset):
    """Observed-cell supports over `subset` of a code matrix, counted row by row."""
    return Counter(tuple(row) for row in codes[:, list(subset)].tolist())


def search_support(ds, subset):
    """The observed cells as the search groups them: {levels: supp}, in order."""
    rows, group, weight, codes = ds.rows, ds.group, ds.weight, ds.codes
    assert np.array_equal(rows[group], codes)
    assert weight.tolist() == np.bincount(group).tolist()
    levels, inv, counts = _observed_cells(rows, weight, ds.level_counts, tuple(subset))
    by_row = support(codes, subset)
    assert counts[inv][group].tolist() == [by_row[tuple(row)]
                                           for row in codes[:, list(subset)].tolist()]
    return dict(zip(map(tuple, levels.tolist()), counts.tolist()))


class TestCountSupport:
    """The search's support counting: cells of the distinct rows grouped by
    `subset_codes`, supports weighted by row multiplicity and levels read from
    a representative row, against a row-by-row Counter."""

    def test_single_variable(self):
        ds = make_dataset([[1, 1], [1, 2], [1, 1]])
        assert search_support(ds, (0,)) == {(1,): 3}

    def test_pair(self):
        ds = make_dataset([[1, 1], [1, 2], [1, 1]])
        assert search_support(ds, (0, 1)) == {(1, 1): 2, (1, 2): 1}

    def test_matches_nested_loop_counter(self):
        rng = np.random.default_rng(17)
        codes = rng.integers(1, 4, size=(1000, 5))
        ds = make_dataset(codes, level_counts=(3,) * 5)
        for subset in ((0,), (3,), (0, 2), (1, 4), (0, 1, 2), (2, 3, 4)):
            fast = search_support(ds, subset)
            slow = {}
            for i in range(1000):
                cell = tuple(int(codes[i, j]) for j in subset)
                slow[cell] = slow.get(cell, 0) + 1
            assert fast == slow
            assert list(fast) == sorted(slow)  # cells come in level-tuple order

    def test_supports_sum_to_n(self):
        rng = np.random.default_rng(23)
        ds = make_dataset(rng.integers(1, 3, size=(77, 3)), level_counts=(2, 2, 2))
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(3), size):
                assert sum(search_support(ds, subset).values()) == 77


class TestFigureScenarios:
    def _x111_dataset(self):
        # ten rows over three binary variables; one row is (1, 1, 1)
        rows = [[1, 1, 1]] + [[1, 1, 2]] + [[1, 2, 1]] + [[2, 1, 1]] + [[2, 2, 2]] * 6
        return make_dataset(rows)

    def test_bottom_up_prunes_supersets_of_infrequent(self):
        ds = self._x111_dataset()
        # (X1=1, X2=1) infrequent at length 2; singletons never flagged
        provider = StubProvider(
            {((0, 1), (1, 1)): 5.0,   # supp 2 <= 5 -> flagged
             ((0, 1, 2), (1, 1, 1)): 5.0},  # would flag if it were tested
            default_sigma=-1.0)
        flags_on, stats_on = search_infrequent(ds, provider, maxlen=3, prune=True)
        flagged_on = flagged_itemsets(flags_on)
        assert ((0, 1), (1, 1)) in flagged_on
        assert not any(len(i) == 3 for i in flagged_on)

        flags_off, _ = search_infrequent(ds, provider, maxlen=3, prune=False)
        flagged_off = flagged_itemsets(flags_off)
        assert ((0, 1), (1, 1), (2, 1)) in flagged_off
        # pruned flags are a subset of unpruned flags
        assert flagged_on <= flagged_off

    def test_top_down_marks_subsets_without_testing(self):
        ds = self._x111_dataset()
        # (X1=1, X3=1) frequent; singleton thresholds so high that a direct
        # test could never flag them, proving they were marked, not tested
        provider = StubProvider(
            {((0, 2), (1, 1)): 2.0},  # supp 2 >= 2 -> flagged
            default_sigma=1e9)
        flags, stats = search_frequent(ds, provider, maxlen=2, prune=True)
        flagged = flagged_itemsets(flags)
        assert {((0, 1), (2, 1)), ((0, 1),), ((2, 1),)} <= flagged
        assert stats.cells_pruned >= 2
        # implied cells carry their true support
        for keys in flag_keys(flags):
            for entries, supp, _ in keys:
                if entries == ((0, 1),):
                    assert supp == 3

    def test_top_down_implied_flags_reach_two_levels_down(self):
        # only the length-3 cell (1, 1, 1) can flag by test; its pairs and
        # singletons are implied, the singletons through the implied pairs
        ds = make_dataset([[1, 1, 1]] * 2 + [[1, 2, 2]] + [[2, 2, 2]] * 5)
        provider = StubProvider({((0, 1, 2), (1, 1, 1)): 2.0}, default_sigma=1e9)
        flags, stats = search_frequent(ds, provider, maxlen=3, prune=True)
        rows = flag_keys(flags)
        assert sorted((len(entries), supp) for entries, supp, _ in rows[0]) == [
            (1, 2), (1, 2), (1, 3), (2, 2), (2, 2), (2, 2), (3, 2)]
        assert [(entries, supp) for entries, supp, _ in rows[2]] == [(((0, 1),), 3)]
        assert (stats.cells_tested, stats.cells_pruned, stats.cells_flagged) \
            == (11, 6, 7)

    def test_top_down_no_prune_tests_everything(self):
        ds = self._x111_dataset()
        provider = StubProvider({((0, 2), (1, 1)): 2.0}, default_sigma=1e9)
        flags, _ = search_frequent(ds, provider, maxlen=2, prune=False)
        flagged = flagged_itemsets(flags)
        assert ((0, 1), (2, 1)) in flagged
        # without pruning the impossible singleton thresholds flag nothing
        assert not any(len(i) == 1 for i in flagged)


class TestSearchSemantics:
    def test_nothing_flagged_gives_empty_sets(self):
        ds = make_dataset([[1, 1], [2, 2], [1, 2], [2, 1]] * 5)
        provider = StubProvider({}, default_sigma=-1.0)
        flags, stats = search_infrequent(ds, provider, maxlen=2, prune=True)
        assert flags.cell.size == 0
        assert all(not keys for keys in flag_keys(flags))
        assert stats.cells_flagged == 0

    def test_identical_rows_flag_full_chain_frequent(self):
        ds = make_dataset([[1, 1, 1]] * 8)
        provider = StubProvider({}, default_sigma=4.0)
        flags, _ = search_frequent(ds, provider, maxlen=3, prune=True)
        lengths = sorted(len(entries) for entries, _, _ in flag_keys(flags)[0])
        assert lengths == [1, 1, 1, 2, 2, 2, 3]

    def test_tie_flags_in_both_modes(self):
        ds = make_dataset([[1], [1], [2], [2]])
        provider = StubProvider({}, default_sigma=2.0)
        flags_inf, _ = search_infrequent(ds, provider, maxlen=1, prune=True)
        flags_freq, _ = search_frequent(ds, provider, maxlen=1, prune=True)
        assert all(len(keys) == 1 for keys in flag_keys(flags_inf))  # supp 2 <= sigma 2
        assert all(len(keys) == 1 for keys in flag_keys(flags_freq))  # supp 2 >= sigma 2

    def test_fully_pruned_subsets_not_materialized(self):
        # every singleton cell of X1 is flagged, so every superset containing
        # X1 is dead; with p=2 the pair subset is never materialized
        ds = make_dataset([[1, 1], [2, 2], [1, 2], [2, 1]])
        provider = StubProvider(
            {((0,), (1,)): 10.0, ((0,), (2,)): 10.0},
            default_sigma=-1.0)
        flags, stats = search_infrequent(ds, provider, maxlen=2, prune=True)
        assert stats.subsets_materialized == 2  # the two singletons only
        assert stats.subsets_skipped == 1
        # p=3 with every singleton cell of X1 and X2 flagged: the three pairs
        # are dead, so the search stops there and never reaches the triple
        ds = make_dataset([[1, 1, 1], [2, 2, 2], [1, 2, 1], [2, 1, 2]])
        provider = StubProvider(
            {((j,), (lev,)): 10.0 for j in (0, 1) for lev in (1, 2)},
            default_sigma=-1.0)
        flags, stats = search_infrequent(ds, provider, maxlen=3, prune=True)
        assert stats.subsets_materialized == 3  # the three singletons only
        assert stats.subsets_skipped == 3

    def test_antichain_under_pruning(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            ds = random_dataset(rng, n_max=80, p_max=5)
            model = empirical_model(ds)
            _, _, flags = run_analysis(ds, model, RunConfig(mode="infrequent"))
            items = flagged_itemsets(flags)
            for a in items:
                for b in items:
                    if a != b:
                        assert not set(b) <= set(a)

    def test_prune_subset_of_no_prune(self):
        # Metamorphic: with one provider both searches read the same tables
        # and maxlen, so pruning can only drop an observation's flags.
        with_flags = pruned_away = 0
        for seed in range(60):
            ds = random_dataset(np.random.default_rng(seed), n_max=80, p_max=5)
            model = empirical_model(ds)
            provider = ThresholdProvider(model, ds.n, 0.05)
            _, _, flags_on = run_analysis(ds, model, RunConfig(prune=True), provider)
            _, _, flags_off = run_analysis(ds, model, RunConfig(prune=False), provider)
            for on, off in zip(flag_keys(flags_on), flag_keys(flags_off)):
                assert on <= off
            with_flags += bool(flags_on.supp.size)
            pruned_away += flags_on.supp.size < flags_off.supp.size
        # the inclusion is tested on flagged rows, and is strict on some
        assert with_flags >= 10 and pruned_away >= 1

    def test_apriori_monotonicity_of_supports(self):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, n_max=60, p_max=4)
        codes = ds.codes
        for size in range(2, ds.p + 1):
            for subset in itertools.combinations(range(ds.p), size):
                supp = support(codes, subset)
                for drop in range(size):
                    sub = subset[:drop] + subset[drop + 1:]
                    sub_supp = support(codes, sub)
                    for cell, cnt in supp.items():
                        sub_cell = cell[:drop] + cell[drop + 1:]
                        assert cnt <= sub_supp[sub_cell]

    def test_deterministic_across_repeat_runs(self):
        rng = np.random.default_rng(47)
        ds = random_dataset(rng, n_max=90, p_max=4)
        model = empirical_model(ds)
        cfg = RunConfig(mode="infrequent")
        r1, _, f1 = run_analysis(ds, model, cfg)
        r2, _, f2 = run_analysis(ds, model, cfg)
        assert flag_keys(f1) == flag_keys(f2)
        assert r1.scores.tolist() == r2.scores.tolist()


def test_search_peak_stays_near_its_flag_table(tmp_path, monkeypatch):
    # The 520 x 9 binary frequent input of the benchmark's generator, warm:
    # keeping every per-subset part list until all five arrays were joined
    # peaked at 2.7 times the flag table; emptying each as it is joined, 1.85.
    monkeypatch.delenv("SONO_CACHE_DIR", raising=False)
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import Workload, write_csv
    path = tmp_path / "deep.csv"
    write_csv(Workload("deep-frequent", 520, (2,) * 9, "frequent", False, 3, 0.03, 1009),
              1, str(path))
    ds = read_csv(path)
    model, cfg = empirical_model(ds), RunConfig(mode="frequent")
    provider = ThresholdProvider(model, ds.n, cfg.alpha, max_cells=cfg.max_cells)
    _, info, _ = run_analysis(ds, model, cfg, provider)  # computes every table
    tracemalloc.start()
    try:
        flags, _ = search_frequent(ds, provider, info.maxlen)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flags.cell.size == 27323
    assert peak < 2.2 * retained, (peak, retained)


class TestRowPermutation:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("infrequent", "frequent")),
           st.data())
    def test_permuting_rows_permutes_results_exactly(self, seed, mode, data):
        ds = random_dataset(np.random.default_rng(seed), n_max=80, p_max=4)
        perm = np.array(data.draw(st.permutations(range(ds.n))))
        shuffled = Dataset.from_codes(ds.codes[perm], ds.level_counts, ds.variable_names,
                                      ds.level_labels)
        cfg = RunConfig(mode=mode)
        report, info, _ = run_analysis(ds, empirical_model(ds), cfg)
        moved, moved_info, _ = run_analysis(shuffled, empirical_model(shuffled), cfg)
        assert moved_info.maxlen == info.maxlen
        assert np.array_equal(moved.scores, report.scores[perm])
        assert np.array_equal(moved.depths, report.depths[perm])
        assert np.array_equal(moved.contributions, report.contributions[perm])


def labelled_flags(ds, flags):
    """{flagged itemset by (variable, level label): (supp, sigma)}."""
    return {tuple((j, ds.level_labels[j][lev - 1]) for j, lev in entries): (supp, sigma)
            for keys in flag_keys(flags) for entries, supp, sigma in keys}


class TestLevelRelabelling:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("infrequent", "frequent")),
           st.booleans(), st.data())
    def test_relabelling_levels_keeps_results(self, seed, mode, prune, data):
        # the same table read with --level-order first and lexicographic, and
        # with a drawn per-variable permutation of the codes and their labels
        ds = random_dataset(np.random.default_rng(seed), n_max=80, p_max=4)
        table = [list(ds.variable_names)] + [list(ds.decode_row(i)) for i in range(ds.n)]
        first = load_dataset(table, RunConfig(level_order="first"))
        lexicographic = load_dataset(table, RunConfig(level_order="lexicographic"))
        perms = [np.array(data.draw(st.permutations(range(l)))) for l in first.level_counts]
        codes = first.codes
        drawn = Dataset.from_codes(
            np.column_stack([perm[codes[:, j] - 1] + 1 for j, perm in enumerate(perms)]),
            first.level_counts, first.variable_names,
            tuple(tuple(labels[k] for k in np.argsort(perm))
                  for labels, perm in zip(first.level_labels, perms)))
        cfg = RunConfig(mode=mode, prune=prune)
        report, info, flags = run_analysis(first, empirical_model(first), cfg)
        expected = labelled_flags(first, flags)
        for other in (lexicographic, drawn):
            got, got_info, got_flags = run_analysis(other, empirical_model(other), cfg)
            assert got_info.maxlen == info.maxlen
            relabelled = labelled_flags(other, got_flags)
            assert relabelled.keys() == expected.keys()
            if mode == "infrequent":
                # p_d multiplies the same level probabilities in the same
                # variable order and c is an integer: every bit is kept
                assert relabelled == expected
                assert np.array_equal(got.scores, report.scores)
                assert np.array_equal(got.depths, report.depths)
                assert np.array_equal(got.contributions, report.contributions)
            else:
                # gamma comes from nu over the table's cells in a permuted
                # order, so sigma and what is built on it may move in the
                # last bits
                for key, (supp, sigma) in expected.items():
                    assert relabelled[key][0] == supp
                    assert relabelled[key][1] == pytest.approx(sigma, rel=1e-12)
                for a, b in ((got.scores, report.scores), (got.depths, report.depths),
                             (got.contributions, report.contributions)):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def named_flags(ds, flags):
    """{flagged itemset by (variable name, level label): (supp, sigma)}."""
    return {frozenset((ds.variable_names[j], ds.level_labels[j][lev - 1])
                      for j, lev in entries): (supp, sigma)
            for keys in flag_keys(flags) for entries, supp, sigma in keys}


class TestColumnPermutation:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("infrequent", "frequent")),
           st.booleans(), st.data())
    def test_permuting_columns_permutes_contributions(self, seed, mode, prune, data):
        ds = random_dataset(np.random.default_rng(seed), n_max=80, p_max=4)
        perm = list(data.draw(st.permutations(range(ds.p))))
        moved = Dataset.from_codes(
            ds.codes[:, perm],
            level_counts=tuple(ds.level_counts[j] for j in perm),
            variable_names=tuple(ds.variable_names[j] for j in perm),
            level_labels=tuple(ds.level_labels[j] for j in perm))
        cfg = RunConfig(mode=mode, prune=prune)
        report, info, flags = run_analysis(ds, empirical_model(ds), cfg)
        got, got_info, got_flags = run_analysis(moved, empirical_model(moved), cfg)
        assert got_info.maxlen == info.maxlen
        # the cell probabilities multiply the level probabilities in another
        # variable order, so sigma and what is built on it may move in the
        # last bits
        expected = named_flags(ds, flags)
        renamed = named_flags(moved, got_flags)
        assert renamed.keys() == expected.keys()
        for key, (supp, sigma) in expected.items():
            assert renamed[key][0] == supp
            assert renamed[key][1] == pytest.approx(sigma, rel=1e-12)
        for a, b in ((got.scores, report.scores), (got.depths, report.depths),
                     (got.contributions, report.contributions[:, perm])):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

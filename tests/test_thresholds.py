import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sono import (CellSpec, OracleRefusal, ProbabilityModel, TableExplosion,
                  ThresholdProvider, ThresholdTable, determine_maxlen, find_c,
                  subset_thresholds)
import sono.oracle
import sono.simci
import sono.thresholds as thresholds
from sono.data import subset_cell_probs
from sono.oracle import reference_maxlen, reference_subset_passes
from sono.simci import _BOUND_MARGIN, _binomial_bounds, _computes_exactly
from sono.thresholds import SIGMA_FLOOR


def model_of(*vectors):
    return ProbabilityModel(pi=tuple(np.array(v, dtype=float) for v in vectors))


def manual_table(pi_vectors, c, gamma, n):
    pi = tuple(np.array(v, dtype=float) for v in pi_vectors)
    return ThresholdTable(subset=tuple(range(len(pi))), c=c, gamma=gamma, n=n, pi=pi)


def sigma_of(table, cell, mode):
    return float(table.sigma(np.array([cell]), mode)[0])


def grid(table):
    """Every cell of the table's full grid as rows of 1-based levels, C order."""
    return np.array(list(itertools.product(*(range(1, v.size + 1) for v in table.pi))))


def refused_or(call):
    """call()'s result, or OracleRefusal if the exact convolution refused."""
    try:
        return call()
    except OracleRefusal:
        return OracleRefusal


def audit_maxlen_rule(model, n, rule, method, alpha=0.05):
    """Hold determine_maxlen to its definition, oracle.reference_maxlen
    (sigma_ref read from each subset's own threshold table), under one nu
    method; where "exact" meets a table beyond the convolution's work cap,
    both must refuse."""
    decision = refused_or(lambda: determine_maxlen(model, n, alpha, rule=rule,
                                                   method=method))
    assert decision == refused_or(lambda: reference_maxlen(model, n, alpha, rule, method)), \
        (rule, method, n, alpha)


def count_rule_calls(monkeypatch, nu=None):
    """Record the c of every nu and each find_c the maxlen rule makes
    (simci.c_at_most asks them); nu may replace the rule's own nu, not those
    of find_c."""
    calls = {"nu": [], "find_c": 0}
    real_nu, real_find_c = sono.simci.coverage_probability, sono.simci.find_c
    in_find_c = []

    def counted_nu(spec, c, method="auto"):
        if in_find_c:
            return real_nu(spec, c, method)
        calls["nu"].append(c)
        return (nu or real_nu)(spec, c, method)

    def counted_find_c(*args):
        calls["find_c"] += 1
        in_find_c.append(True)
        try:
            return real_find_c(*args)
        finally:
            in_find_c.pop()

    monkeypatch.setattr(sono.simci, "coverage_probability", counted_nu)
    monkeypatch.setattr(sono.simci, "find_c", counted_find_c)
    return calls


class TestSigmaForSubset:
    def test_single_variable_shares_c(self):
        model = model_of([0.9, 0.1])
        n, alpha = 100, 0.05
        table = subset_thresholds(model, n, (0,), alpha, method="exact")
        c_oracle, _ = find_c(CellSpec(probs=np.array([0.9, 0.1]), n=n),
                             1 - 2 * alpha, method="exact")
        assert table.c == c_oracle
        assert sigma_of(table, (1,), "infrequent") == pytest.approx(90 - table.c)
        assert sigma_of(table, (2,), "infrequent") == pytest.approx(10 - table.c)

    def test_sigma_arithmetic_from_given_c(self):
        table = manual_table([[0.4, 0.6]], c=6, gamma=0.0, n=100)
        assert sigma_of(table, (1,), "infrequent") == pytest.approx(34.0)

    def test_frequent_adds_width(self):
        table = manual_table([[0.4, 0.6]], c=6, gamma=0.25, n=100)
        assert sigma_of(table, (1,), "frequent") == pytest.approx(40 + 6.5)

    def test_zero_probability_cell_unflaggable(self):
        model = model_of([0.0, 1.0], [0.5, 0.5])
        table = subset_thresholds(model, 50, (0, 1), 0.05)
        assert sigma_of(table, (1, 1), "infrequent") == pytest.approx(-table.c)
        assert sigma_of(table, (1, 1), "infrequent") <= 0.0

    def test_sigma_strictly_increasing_in_cell_probability(self):
        model = model_of([0.5, 0.3, 0.2], [0.6, 0.4])
        table = subset_thresholds(model, 80, (0, 1), 0.05)
        sig = table.sigma(grid(table), "infrequent")
        probs = subset_cell_probs(model, (0, 1))
        order = np.argsort(probs, kind="stable")
        for lo, hi in zip(order, order[1:]):
            if probs[hi] > probs[lo]:
                assert sig[hi] > sig[lo]

    def test_min_sigma_over_full_kronecker_set(self):
        model = model_of([0.99, 0.01], [0.5, 0.5])
        table = subset_thresholds(model, 40, (0, 1), 0.05)
        cells = grid(table)
        for mode in ("infrequent", "frequent"):
            sig = table.sigma(cells, mode)
            # the row-wise product prices the grid with the bits of the
            # full-grid Kronecker vector that find_c is given
            assert np.array_equal(sig, table._sigma(subset_cell_probs(model, (0, 1)), mode))
            assert min(sig) == table._sigma(0.01 * 0.5, mode)
            # one cell at a time gives the same bits as the whole grid
            assert [sigma_of(table, cell, mode) for cell in cells.tolist()] == sig.tolist()
        assert table.max_sigma() == max(table.sigma(cells, "infrequent"))
        # an unknown mode raises instead of falling back
        with pytest.raises(ValueError, match="unknown mode"):
            table.sigma(cells, "bogus")

    def test_table_explosion(self):
        model = model_of(*[[0.25, 0.25, 0.25, 0.25]] * 4)
        with pytest.raises(TableExplosion) as err:
            subset_thresholds(model, 50, (0, 1, 2, 3), 0.05, max_cells=100)
        assert err.value.subset == (0, 1, 2, 3)


class TestDetermineMaxlen:
    def test_single_variable_bounded_by_p(self):
        model = model_of([0.5, 0.5])
        decision = determine_maxlen(model, 100, 0.05)
        assert decision.maxlen == 1
        assert decision.violating_subset is None

    def test_floor_is_one_even_when_size_one_fails(self):
        # 20 rows over a 50-level variable: n * p_max = 0.4 < 2
        model = model_of([1 / 50] * 50)
        decision = determine_maxlen(model, 20, 0.05)
        assert decision.maxlen == 1
        assert decision.violating_subset == (0,)

    def test_any_cell_vs_all_cells(self):
        # skewed binaries: the most probable pair cell stays meaningful,
        # the least probable one does not
        model = model_of([0.9, 0.1], [0.9, 0.1], [0.9, 0.1])
        n = 200
        any_cell = determine_maxlen(model, n, 0.05, rule="any-cell")
        all_cells = determine_maxlen(model, n, 0.05, rule="all-cells")
        assert any_cell.maxlen >= all_cells.maxlen
        # min cell of a pair table: 200 * 0.01 = 2 - c < 2 so all-cells stops at 1
        assert all_cells.maxlen == 1
        # an unknown rule raises instead of falling back
        with pytest.raises(ValueError, match="unknown maxlen rule 'bogus'"):
            determine_maxlen(model, n, 0.05, rule="bogus")

    def test_first_failing_size_stops(self):
        model = model_of([0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        n = 40  # 40 * 0.25 = 10 fine, 40 * 0.125 = 5 vs c, 40 * 0.0625 = 2.5 tight
        decision = determine_maxlen(model, n, 0.05, rule="any-cell")
        assert 1 <= decision.maxlen <= 4
        if decision.maxlen < 4:
            assert decision.violating_subset is not None
            assert len(decision.violating_subset) == decision.maxlen + 1

    def test_decision_respects_threshold_tables(self):
        # re-running the threshold engine on subsets of size <= maxlen never
        # breaks the rule that determined maxlen
        rng = np.random.default_rng(5)
        model = model_of(*(rng.dirichlet(np.ones(3)) * 0 + rng.dirichlet(np.ones(3))
                           for _ in range(4)))
        n = 150
        decision = determine_maxlen(model, n, 0.05, rule="any-cell")
        for size in range(1, decision.maxlen + 1):
            for subset in itertools.combinations(range(4), size):
                table = subset_thresholds(model, n, subset, 0.05)
                assert table.max_sigma() >= 2.0
        # and the rule's shortcuts agree with its definition on seeded random
        # models, skewed and flat, under both rules (they stop at sizes 1 to 5
        # or never)
        for _ in range(16):
            p = int(rng.integers(3, 7))
            conc = float(rng.choice([0.7, 4.0]))
            model = model_of(*(rng.dirichlet(np.full(int(rng.integers(2, 5)), conc))
                               for _ in range(p)))
            n = int(rng.integers(20, 600))
            for rule, method in itertools.product(("any-cell", "all-cells"),
                                                  ("auto", "exact")):
                audit_maxlen_rule(model, n, rule, method)

    def test_rule_matches_definition_on_benchmark_shapes(self, monkeypatch):
        # a 1389-row model with solar-flare level counts and a 30000-row model
        # over seven binaries; between them some c + 1 of a table the
        # reference builds lies on the Edgeworth path, where the shortcut
        # leans on raw nu tracking the sweep
        edgeworth = []

        def judged(model, n, subset, alpha, **kw):
            table = subset_thresholds(model, n, subset, alpha, **kw)
            spec = CellSpec(probs=subset_cell_probs(model, subset), n=n)
            edgeworth.append(not _computes_exactly(spec, table.c + 1, kw["method"]))
            return table

        monkeypatch.setattr(sono.oracle, "subset_thresholds", judged)
        rng = np.random.default_rng(11)
        models = [(model_of(*(rng.dirichlet(np.full(l, 0.6)) for l in (7, 6, 4, 2, 3, 3))),
                   1389),
                  (model_of(*(rng.dirichlet(np.full(2, 0.6)) for _ in range(7))), 30000)]
        for model, n in models:
            for rule, method in itertools.product(("any-cell", "all-cells"),
                                                  ("auto", "exact")):
                audit_maxlen_rule(model, n, rule, method)
        assert any(edgeworth)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 60), min_size=2, max_size=4),
                    min_size=1, max_size=5),
           st.integers(20, 2000), st.sampled_from(["any-cell", "all-cells"]),
           st.sampled_from([0.05, 0.1]), st.sampled_from(["auto", "exact"]))
    def test_rule_matches_definition_on_random_models(self, weights, n, rule, alpha,
                                                      method):
        model = model_of(*(np.array(w, dtype=float) / sum(w) for w in weights))
        audit_maxlen_rule(model, n, rule, method, alpha)
        # every subset, also beyond the first failing one: more of them sit
        # near sigma_ref = 2, where a bracket used too loosely would flip
        for size in range(1, model.p + 1):
            for subset in itertools.combinations(range(model.p), size):
                assert refused_or(lambda: thresholds._subset_passes(
                    model, n, subset, 1.0 - 2.0 * alpha, rule, method,
                    thresholds.DEFAULT_MAX_CELLS)) == refused_or(
                    lambda: reference_subset_passes(model, n, subset, alpha, rule,
                                                    method)), subset

    @pytest.mark.parametrize("probs, n, rule, passes", [
        ([0.5, 0.5], 100, "any-cell", True),      # lower bound far above the level
        ([0.97, 0.03], 100, "all-cells", False),  # min-cell coverage about 0.87
    ])
    def test_bounds_that_clear_the_level_evaluate_no_nu(self, monkeypatch,
                                                        probs, n, rule, passes):
        model = model_of(probs)
        calls = count_rule_calls(monkeypatch)
        decision = determine_maxlen(model, n, 0.05, rule=rule)
        assert calls == {"nu": [], "find_c": 0}
        assert (decision.violating_subset is None) == passes
        assert decision == reference_maxlen(model, n, 0.05, rule)

    @pytest.mark.parametrize("rule", ["any-cell", "all-cells"])
    def test_large_n_settles_at_the_hoeffding_point_without_nu(self, monkeypatch, rule):
        # t + 1 lies thousands of c above c and past auto's exact prefix for
        # every subset; the bracket at the Hoeffding point, exact for 2, 4 and
        # 8 cells at n = 30000, settles each question without a nu
        model, n = model_of([0.6, 0.4], [0.7, 0.3], [0.55, 0.45]), 30000
        expected = reference_maxlen(model, n, 0.05, rule)
        calls = count_rule_calls(monkeypatch)
        assert determine_maxlen(model, n, 0.05, rule=rule) == expected
        assert calls == {"nu": [], "find_c": 0}
        assert expected.violating_subset is None

    @pytest.mark.parametrize("probs, n, passes", [
        ([0.9, 0.1], 40, True),               # nu(t+1) about 0.94
        ([0.95, 0.05], 119, True),            # nu(t+1) = min-cell coverage, 0.908
        ([0.4, 0.3, 0.2, 0.1], 113, False),   # nu(t+1) 0.8999, Bonferroni 0.885
    ])
    def test_bounds_that_straddle_the_level_fall_back_to_nu_then_find_c(
            self, monkeypatch, probs, n, passes):
        # all-cells on one variable: t = floor(n * p_min - 2), and the bracket
        # at t + 1 holds the level 0.9, two of them within 0.02 of it
        model, level = model_of(probs), 0.9
        t = math.floor(n * min(probs) - SIGMA_FLOOR + 1e-9)
        spec = CellSpec(probs=subset_cell_probs(model, (0,)), n=n)
        lower, upper = _binomial_bounds(spec, t + 1)
        assert lower < level + _BOUND_MARGIN and upper > level - _BOUND_MARGIN
        assert _computes_exactly(spec, t + 1, "auto")
        expected = reference_maxlen(model, n, 0.05, "all-cells")
        assert (expected.violating_subset is None) == passes
        calls = count_rule_calls(monkeypatch)
        assert determine_maxlen(model, n, 0.05, rule="all-cells") == expected
        assert calls == {"nu": [t + 1], "find_c": 0}  # exact nu settles it
        # a raw nu that ties the level settles nothing, so find_c decides
        calls = count_rule_calls(monkeypatch, nu=lambda spec, c, method: level)
        assert determine_maxlen(model, n, 0.05, rule="all-cells") == expected
        assert calls == {"nu": [t + 1], "find_c": 1}

    def test_edgeworth_nu_below_the_level_is_settled_by_find_c(self, monkeypatch):
        # nu wiggles above the level at c = 10 only: the clamped sweep gives
        # c = 9 <= t = 48, so the single subset passes although nu(t+1) is
        # well below the level; the path rule puts every c on the Edgeworth path
        def nu(spec, c, method="auto"):
            return 0.91 if c == 10 else 0.89
        monkeypatch.setattr(sono.simci, "coverage_probability", nu)
        monkeypatch.setattr(sono.simci, "_computes_exactly", lambda spec, c, method: False)
        model = model_of([0.5, 0.5])
        spec = CellSpec(probs=subset_cell_probs(model, (0,)), n=100)
        assert find_c(spec, 0.9)[0] == 9
        decision = determine_maxlen(model, 100, 0.05)
        assert decision.violating_subset is None
        assert decision.maxlen == 1


class TestThresholdProvider:
    def test_caches_tables(self):
        model = model_of([0.5, 0.5], [0.3, 0.7])
        provider = ThresholdProvider(model, 60, 0.05)
        t1 = provider.get((1, 0))
        t2 = provider.get((0, 1))
        assert t1 is t2
        assert t1.subset == (0, 1)

    def test_spill_round_trip(self, tmp_path):
        model = model_of([0.5, 0.5], [0.3, 0.7])
        pa = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        ta = pa.get((0, 1))
        pa.flush_spill()
        assert list(tmp_path.glob("thresholds-*.json"))
        pb = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        tb = pb.get((0, 1))
        assert (tb.c, tb.gamma) == (ta.c, ta.gamma)

    @pytest.mark.parametrize("content", ["{not json", "[]", '{"0,1": 5}',
                                         '{"0,1": ["x", 1]}',
                                         # (c, gamma) that find_c cannot return at n = 60
                                         '{"0,1": [60, 0.5]}', '{"0,1": [3, 1.5]}',
                                         '{"0,1": [3, -0.1]}',
                                         # too deeply nested for the JSON reader
                                         pytest.param("[" * 100000 + "]" * 100000,
                                                      id="nested")])
    def test_corrupt_spill_file_warns_and_recomputes(self, tmp_path, caplog, content):
        model = model_of([0.5, 0.5], [0.3, 0.7])
        pa = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        ta = pa.get((0, 1))
        pa.flush_spill()
        (spill,) = tmp_path.glob("thresholds-*.json")
        spill.write_text(content)
        pb = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        assert f"ignoring threshold cache {spill}" in caplog.text
        tb = pb.get((0, 1))
        assert (tb.c, tb.gamma) == (ta.c, ta.gamma)
        pb.flush_spill()
        assert json.loads(spill.read_text()) == {"0,1": [ta.c, ta.gamma]}
        assert [p.name for p in tmp_path.iterdir()] == [spill.name]

    def test_entries_nested_up_to_the_reader_limit_are_reported(self, tmp_path, caplog):
        # the warning used to give the first malformed entry whole, and its
        # repr raised inside logging for entries nested close to the depth
        # at which the JSON reader itself gives up
        model = model_of([0.5, 0.5])
        pa = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        ta = pa.get((0,))
        pa.flush_spill()
        (spill,) = tmp_path.glob("thresholds-*.json")
        for depth in range(sys.getrecursionlimit() // 2, sys.getrecursionlimit()):
            spill.write_text('{"0": ' + "[" * depth + "]" * depth + "}")
            caplog.clear()
            pb = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
            assert caplog.text.count(f"ignoring threshold cache {spill}") == 1
            assert len(caplog.text) < 1000
            tb = pb.get((0,))
            assert (tb.c, tb.gamma) == (ta.c, ta.gamma)
            if "maximum recursion depth" in caplog.text:
                break
        else:
            pytest.fail("the JSON reader read every depth")

    @pytest.mark.parametrize("entry", [
        [0, None], [4, None], [2, None], [True, None], [3.0, None], [1, [0, 1], 0],
        {"maxlen": 1}, [1, "0,1"], [2, [0, 1]], [1, [1, 0]], [1, [0, 0]],
        [1, [0, 3]], [1, [-1, 0]], [2, [0, 1, 2.0]], [3, [0, 1, 2, 3]]])
    def test_malformed_decision_warns_and_recomputes(self, tmp_path, caplog,
                                                     monkeypatch, entry):
        model = model_of([0.5, 0.5], [0.3, 0.7], [0.2, 0.8])
        pa = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        da = pa.maxlen("all-cells")
        ta = pa.get((0, 1))
        pa.flush_spill()
        (spill,) = tmp_path.glob("thresholds-*.json")
        good = json.loads(spill.read_text())
        key = "maxlen:all-cells:10000000.0"
        assert good[key] == [1, [0, 2]]
        spill.write_text(json.dumps({**good, key: entry}))
        calls = []
        monkeypatch.setattr(thresholds, "determine_maxlen",
                            lambda *a, **k: calls.append(a) or determine_maxlen(*a, **k))
        pb = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        assert caplog.text.count(f"ignoring threshold cache {spill}: 1 malformed") == 1
        assert pb.maxlen("all-cells") == da
        assert len(calls) == 1
        tb = pb.get((0, 1))
        assert (tb.c, tb.gamma) == (ta.c, ta.gamma)
        pb.flush_spill()
        assert json.loads(spill.read_text()) == good

    @pytest.mark.parametrize("key, entry", [
        ("0,7", [3, 0.5]), ("0,3", [3, 0.5]), ("x", [3, 0.5]), ("2,1", [3, 0.5]),
        ("0,0", [3, 0.5]), ("00", [3, 0.5]), ("0, 1", [3, 0.5]), ("-1", [3, 0.5]),
        ("", [3, 0.5]), ("0,", [3, 0.5]), ("1_0", [3, 0.5]),
        ("maxlen:bogus-rule:1.0", [3, None]), ("maxlen:any-cell:1e7", [3, None]),
        ("maxlen:any-cell:10000000", [3, None]), ("maxlen:all-cells:0.5", [3, None]),
        ("maxlen:all-cells:nan", [3, None]), ("maxlen:any-cell", [3, None]),
        ("maxlen:any-cell:1.0:x", [3, None])])
    def test_entry_under_a_key_never_written_warns_and_is_dropped(self, tmp_path, caplog,
                                                                  key, entry):
        # the entry's value is one the provider could have written, but under
        # no key that it writes: strictly increasing column indices in [0, p),
        # or maxlen:<rule>:<repr of a float >= 1>
        model = model_of([0.5, 0.5], [0.3, 0.7], [0.2, 0.8])
        pa = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        pa.maxlen("any-cell")
        pa.get((0, 2))
        pa.flush_spill()
        (spill,) = tmp_path.glob("thresholds-*.json")
        good = json.loads(spill.read_text())
        assert key not in good
        spill.write_text(json.dumps({**good, key: entry}))
        pb = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        assert caplog.text.count(f"ignoring threshold cache {spill}: 1 malformed") == 1
        assert pb.maxlen("any-cell") == pa.maxlen("any-cell")
        assert pb.get((0, 2)) == pa.get((0, 2))
        assert pb.tables_computed == 0
        pb.flush_spill()
        assert json.loads(spill.read_text()) == good

    def test_spilled_decision_is_served(self, tmp_path, monkeypatch):
        model = model_of([0.9, 0.1], [0.9, 0.1], [0.9, 0.1])
        pa = ThresholdProvider(model, 200, 0.05, cache_dir=str(tmp_path))
        decisions = {rule: pa.maxlen(rule) for rule in ("any-cell", "all-cells")}
        pa.flush_spill()
        monkeypatch.setattr(thresholds, "determine_maxlen", None)  # not called
        pb = ThresholdProvider(model, 200, 0.05, cache_dir=str(tmp_path))
        for rule, decision in decisions.items():
            assert pb.maxlen(rule) == decision
            assert decision == determine_maxlen(model, 200, 0.05, rule=rule)
        assert decisions["all-cells"].violating_subset == (0, 1)

    def test_spill_keyed_by_inputs(self, tmp_path):
        model = model_of([0.5, 0.5])
        pa = ThresholdProvider(model, 60, 0.05, cache_dir=str(tmp_path))
        pa.get((0,))
        pa.flush_spill()
        pb = ThresholdProvider(model, 60, 0.10, cache_dir=str(tmp_path))
        pb.get((0,))
        pb.flush_spill()
        assert len(list(tmp_path.glob("thresholds-*.json"))) == 2

    def test_c_summary_by_size(self):
        model = model_of([0.5, 0.5], [0.3, 0.7], [0.2, 0.8])
        provider = ThresholdProvider(model, 80, 0.05)
        for subset in ((0,), (1,), (0, 1), (1, 2)):
            provider.get(subset)
        summary = provider.c_summary()
        assert summary[1]["tables"] == 2
        assert summary[2]["tables"] == 2
        assert summary[1]["c_min"] <= summary[1]["c_max"]

"""Acceptance criteria, one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Criteria
5-7 need the five raw UCI corpora on disk (see conftest.require_uci) and skip
with instructions when the files are absent. Criterion 4's propositions
sub-check holds `check_propositions` to exact rational arithmetic: the
printed propositions are false at five boundary cases, and the checker must
report exactly those (the verify module's documented-deviation list names the
same five).
"""
from __future__ import annotations

import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as st_stats

from sono import (RunConfig, ThresholdProvider, build_report, check_propositions,
                  empirical_model, max_score_bound, random_dataset, read_csv,
                  run_analysis, walker)
from sono.oracle import flag_keys, reference_maxlen
from sono.prepare import RECIPES, TABLE1, prepare_dataset
from sono.verify import (ARGMAX_OFF_BY_ONE, SINGLETON_GAP,
                         suite_coverage_simulation, suite_nu_accuracy)

from conftest import flags_of, require_uci

SEED = 20240901



def _report_line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Criterion 1 sweep, shared with criteria 4 and 9
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_sweep():
    # A dataset's four runs share one alpha and so one ThresholdProvider: the
    # first run_analysis computes the thresholds and maxlen, the other three
    # are served from memory. The walker computes its own tables every time,
    # and maxlen comes from the definition (oracle.reference_maxlen, what the
    # walker runs when given none), decided once per dataset, so the served
    # values are held to both.
    rng = np.random.default_rng(SEED)
    runs = []
    t0 = time.perf_counter()
    for i in range(50):
        ds = random_dataset(rng, n_max=200, p_max=6, l_max=4)
        model = empirical_model(ds)
        alpha = (0.05, 0.1)[i % 2]
        r = (1.0, 2.0)[(i // 2) % 2]
        provider = ThresholdProvider(model, ds.n, alpha)
        maxlen = reference_maxlen(model, ds.n, alpha).maxlen
        for mode, prune in itertools.product(("infrequent", "frequent"), (True, False)):
            cfg = RunConfig(mode=mode, alpha=alpha, r=r, prune=prune)
            report, info, flags = run_analysis(ds, model, cfg, provider)
            ref = walker(ds, model, alpha, r, mode=mode, prune=prune, max_len=maxlen)
            runs.append({"i": i, "ds": ds, "mode": mode, "prune": prune,
                         "alpha": alpha, "r": r, "report": report, "info": info,
                         "flags": flags, "ref": ref})
    return runs, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(oracle_sweep):
    runs, elapsed = oracle_sweep
    assert len(runs) == 200
    for run in runs:
        tag = f"ds{run['i']} {run['mode']} prune={run['prune']}"
        assert run["info"].maxlen == run["ref"].maxlen, tag
        assert flag_keys(run["flags"]) == list(map(frozenset, run["ref"].flag_sets)), tag
        for field in ("scores", "depths", "contributions"):
            assert np.array_equal(getattr(run["report"], field),
                                  getattr(run["ref"].report, field)), (tag, field)
        np.testing.assert_allclose(run["report"].scores, run["ref"].report.scores,
                                   rtol=1e-9, atol=1e-12, err_msg=tag)
        np.testing.assert_allclose(run["report"].depths, run["ref"].report.depths,
                                   rtol=1e-9, atol=1e-12, err_msg=tag)
        np.testing.assert_allclose(run["report"].contributions,
                                   run["ref"].report.contributions,
                                   rtol=1e-9, atol=1e-12, err_msg=tag)
    assert elapsed < 300.0
    _report_line(1, "oracle equivalence", True,
                 f"200 runs on 50 seeded datasets agree with the walker "
                 f"(flag sets equal, scores, depths and contributions "
                 f"bit-identical) in {elapsed:.0f}s")


def test_criterion_2_nu_accuracy():
    t0 = time.perf_counter()
    checks = suite_nu_accuracy()
    elapsed = time.perf_counter() - t0
    detail = "; ".join(d for _, _, d in checks)
    ok = all(passed for _, passed, _ in checks) and elapsed < 120.0
    _report_line(2, "nu accuracy", ok, f"{detail}; {elapsed:.0f}s")
    for name, passed, d in checks:
        assert passed, f"{name}: {d}"
    assert elapsed < 120.0


def test_criterion_3_coverage_simulation():
    t0 = time.perf_counter()
    [(name, ok, detail)] = suite_coverage_simulation(seed=SEED)
    elapsed = time.perf_counter() - t0
    _report_line(3, "coverage simulation", ok and elapsed < 60.0,
                 f"{detail}; {elapsed:.0f}s")
    assert ok, detail
    assert elapsed < 60.0


def _exact_length_scores(p: int, r: int) -> dict[int, Fraction]:
    """C(p,k)/k^r for k = 1..p: the unit-support score, in units of n-1, of
    all itemsets of length k (k = 1 is the all-singletons configuration)."""
    return {k: Fraction(math.comb(p, k), k ** r) for k in range(1, p + 1)}


def _exactly_disproved(p_range, r_set) -> set[tuple[int, float, str]]:
    """(p, r, check) triples of the printed propositions that exact
    arithmetic disproves, named as check_propositions names its checks.

    A configuration groups a variables into unit-support itemsets of one
    length k per group; such a group scores C(a,k)/k^r. That score per
    variable, C(a,k)/(a k^r), never falls as a grows (stepping a to a+1
    multiplies it by a/(a+1-k) >= 1), so no configuration beats the best
    single-length one over all p variables. Hence the singletons (score p)
    are beaten iff some length k >= 2 has C(p,k)/k^r > p, and the best
    single-length configuration with k >= 2 is beaten iff the singletons
    beat it.
    """
    out = set()
    for p in p_range:
        for r in r_set:
            scores = _exact_length_scores(p, r)
            longer = max(v for k, v in scores.items() if k >= 2)
            if p < 2 ** (r + 1) + 1:
                if longer > p:
                    out.add((p, float(r), "singletons_dominate"))
            else:
                if longer < p:
                    out.add((p, float(r), "boundary_dominates"))
                best = max(scores.values())
                if scores[(p - r) // 2] != best:
                    out.add((p, float(r), "argmax_closed_form"))
    return out


def test_criterion_4_propositions_literal():
    """The printed propositions, checked on p = 2..60, r = 1, 2, 3.

    `check_propositions` must report a check as failing exactly where exact
    rational arithmetic disproves it: no extra failure, none missed.
    """
    t0 = time.perf_counter()
    cases = check_propositions(range(2, 61), (1.0, 2.0, 3.0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert len(cases) == 59 * 3
    for c in cases:
        expected_checks = ({"singletons_dominate"} if c.p < 2 ** (c.r + 1) + 1
                           else {"boundary_dominates", "argmax_closed_form"})
        assert set(c.checks) == expected_checks, (c.p, c.r, c.checks)
    reported = {(c.p, c.r, name) for c in cases
                for name, ok in c.checks.items() if not ok}
    disproved = _exactly_disproved(range(2, 61), (1, 2, 3))
    _report_line(4, "propositions, literal", reported == disproved,
                 f"{len(cases)} cases; exact arithmetic disproves "
                 f"{sorted(disproved)}; check_propositions reports "
                 f"{sorted(reported)}; {elapsed:.0f}s")
    assert reported == disproved, (
        f"reported but not disproved: {sorted(reported - disproved)}; "
        f"disproved but not reported: {sorted(disproved - reported)}; "
        + "; ".join(f"p={c.p} r={c.r:g} {c.details}" for c in cases
                    if not c.passed))

    # `sono verify --suite propositions` documents the same five cases, and
    # each argmax deviation is the closed form minus one.
    assert {(p, r) for p, r, name in disproved
            if name == "argmax_closed_form"} == set(ARGMAX_OFF_BY_ONE)
    assert {(p, r) for p, r, name in disproved
            if name == "singletons_dominate"} == SINGLETON_GAP
    for (p, r), k in ARGMAX_OFF_BY_ONE.items():
        scores = _exact_length_scores(p, int(r))
        best = max(scores.values())
        argmax = {j for j, v in scores.items() if v == best}
        assert argmax == {k} == {math.floor((p - r) / 2) - 1}, (p, r, argmax)


def test_criterion_4_score_bound(oracle_sweep):
    runs, _ = oracle_sweep
    checked = 0
    for run in runs:
        if run["mode"] != "infrequent":
            continue
        p, n, r = run["ds"].p, run["ds"].n, run["r"]
        if p < 2 ** (r + 1) + 1:
            checked += 1
            bound = p * (n - 1)
            assert run["report"].scores.max() <= bound + 1e-9
            assert max_score_bound(n, p, r, run["info"].maxlen) <= bound + 1e-9
    assert checked > 0
    _report_line(4, "max-score bound", True,
                 f"max observed score <= p(n-1) on {checked} qualifying runs")


# ---------------------------------------------------------------------------
# Criteria 5-7 and 9: the five UCI corpora (skip when raw data is absent)
# ---------------------------------------------------------------------------

_uci_cache: dict[str, tuple] = {}


def uci_run(name: str, tmp_path_factory) -> tuple:
    if name not in _uci_cache:
        raw = require_uci(name)
        out = tmp_path_factory.mktemp(f"uci-{name}") / "clean.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shape = prepare_dataset(name, raw, str(out))
        ds = read_csv(out)
        model = empirical_model(ds)
        t0 = time.perf_counter()
        report, info, flags = run_analysis(ds, model, RunConfig(
            mode="infrequent", alpha=0.05, r=2.0, prune=True))
        elapsed = time.perf_counter() - t0
        _uci_cache[name] = (shape, ds, report, info, elapsed)
    return _uci_cache[name]


@pytest.mark.parametrize("name", sorted(TABLE1))
def test_criterion_5_table1_maxlen(name, tmp_path_factory):
    shape, ds, report, info, elapsed = uci_run(name, tmp_path_factory)
    expected_shape = RECIPES[name].expected_shape
    expect_maxlen = TABLE1[name][0]
    ok = shape == expected_shape and info.maxlen == expect_maxlen and elapsed < 600.0
    _report_line(5, f"maxlen {name}", ok,
                 f"shape {shape}, maxlen {info.maxlen} "
                 f"(expected {expect_maxlen}), {elapsed:.0f}s")
    assert shape == expected_shape
    assert info.maxlen == expect_maxlen
    assert elapsed < 600.0


@pytest.mark.parametrize("name", sorted(TABLE1))
def test_criterion_6_nonzero_counts(name, tmp_path_factory):
    _, ds, report, info, _ = uci_run(name, tmp_path_factory)
    expect_nonzero, expect_n = TABLE1[name][1], RECIPES[name].expected_shape[0]
    nonzero = int((report.scores > 0).sum())
    ok = ds.n == expect_n and abs(nonzero - expect_nonzero) <= 2
    _report_line(6, f"nonzero scores {name}", ok,
                 f"{nonzero}/{ds.n} nonzero (paper: {expect_nonzero}/{expect_n}, "
                 f"tolerance +-2){'; exact' if nonzero == expect_nonzero else ''}")
    assert ds.n == expect_n
    assert abs(nonzero - expect_nonzero) <= 2


def test_criterion_7_qualitative_extremes(tmp_path_factory):
    """Stretch targets: documented, not gating (warnings instead of asserts)."""
    _, ds, report, info, _ = uci_run("solar-flare", tmp_path_factory)
    top2 = np.sort(report.scores)[-2:]
    in_band = bool(np.all((top2 >= 7.0) & (top2 <= 9.0)))
    nz = report.scores > 0
    rho = float(st_stats.spearmanr(report.scores[nz], report.depths[nz]).statistic)
    decreasing = rho < 0

    # most correlated contribution pairs: expect (area, area of largest spot)
    # and (Zurich class, penumbra description of the largest spot)
    contrib = report.contributions[nz]
    keep = [j for j in range(ds.p) if contrib[:, j].std() > 0]
    corr = np.corrcoef(contrib[:, keep].T)
    pairs = sorted(
        ((corr[x, y], ds.variable_names[keep[x]], ds.variable_names[keep[y]])
         for x in range(len(keep)) for y in range(x + 1, len(keep))),
        reverse=True)
    top_pairs = {frozenset(p[1:]) for p in pairs[:2]}
    expected_pairs = {frozenset(("area", "area_largest_spot")),
                      frozenset(("zurich_class", "largest_spot_size"))}
    pairs_ok = top_pairs == expected_pairs

    _report_line(7, "qualitative extremes", in_band and decreasing and pairs_ok,
                 f"top-2 scores {np.round(top2, 3).tolist()} (target [7, 9]); "
                 f"Spearman(score, depth) = {rho:.3f} (target < 0); "
                 f"top correlated contribution pairs "
                 f"{[tuple(sorted(p)) for p in top_pairs]}; stretch, not gating")
    if not in_band:
        warnings.warn(f"stretch: top-2 Solar Flare scores {top2} outside [7, 9]")
    if not decreasing:
        warnings.warn(f"stretch: Spearman score-depth correlation {rho} >= 0")
    if not pairs_ok:
        warnings.warn(f"stretch: top correlated contribution pairs {top_pairs} "
                      f"differ from {expected_pairs}")


def test_uci_empirical_frequencies_vs_independent_counter(tmp_path_factory):
    """Data-gated spec example: model vectors equal a one-pass counter's."""
    _, ds, _, _, _ = uci_run("solar-flare", tmp_path_factory)
    model = empirical_model(ds)
    assert len(model.pi) == 10
    codes = ds.codes
    for j in range(ds.p):
        counts: dict[int, int] = {}
        for i in range(ds.n):
            code = int(codes[i, j])
            counts[code] = counts.get(code, 0) + 1
        for level in range(1, ds.level_counts[j] + 1):
            assert model.pi[j][level - 1] == counts.get(level, 0) / ds.n


def test_criterion_8_depth_worked_examples():
    inf_flags = [[(((0, 1),), 1, 5.0), (((0, 1), (1, 1), (2, 1)), 1, 4.0)]]
    d_inf = build_report(flags_of(inf_flags, 3), r=2.0, mode="infrequent",
                         maxlen=3).depths[0]
    freq_flags = [[(((0, 1), (1, 1)), 9, 5.0), (((2, 1),), 9, 4.0)]]
    d_freq = build_report(flags_of(freq_flags, 3), r=2.0, mode="frequent",
                          maxlen=3).depths[0]
    ok = d_inf == 2.0 and d_freq == 2.5
    _report_line(8, "depth worked examples", ok,
                 f"bottom-up {d_inf} (want 2), top-down {d_freq} (want 5/2), exact")
    assert d_inf == 2.0
    assert d_freq == 2.5


def test_criterion_9_row_sum_identity(oracle_sweep, tmp_path_factory):
    runs, _ = oracle_sweep
    for run in runs:
        np.testing.assert_allclose(run["report"].contributions.sum(axis=1),
                                   run["report"].scores, rtol=1e-9, atol=1e-12)
    checked = [f"{len(runs)} randomized runs"]
    for name in sorted(TABLE1):
        if name in _uci_cache:
            _, _, report, _, _ = _uci_cache[name]
            np.testing.assert_allclose(report.contributions.sum(axis=1),
                                       report.scores, rtol=1e-9, atol=1e-12)
            checked.append(name)
    _report_line(9, "row-sum identity", True,
                 f"sum_j C[i][j] = s(x_i) within 1e-9 on {', '.join(checked)}")

"""Audit suites behind `sono verify`: fast path against the reference oracle.

Each suite returns (name, passed, detail) triples; run_verify aggregates them
into a plain-text report and an exit status. The tolerances are fixed
(NU_TOL, MOMENT_TOL, SCORE_RTOL); the oracle's size caps live in sono.oracle.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .config import RunConfig
from .data import empirical_model
from .engine import run_analysis
from .oracle import (check_propositions, exact_nu, flag_keys, random_dataset,
                     reference_maxlen, simulated_coverage, sweep_find_c,
                     truncated_poisson_moments, walker)
from .simci import (CellSpec, _binomial_bounds, _bonferroni_start, _cell_moment_arrays,
                    _computes_exactly, _coverage_edgeworth, _hoeffding_point, c_at_most,
                    coverage_probability, find_c)
from .thresholds import ThresholdProvider

Check = tuple[str, bool, str]

# Largest |nu_auto - nu_exact| the nu suite accepts, and the relative
# tolerance of the walker suite's scores, depths and contributions.
NU_TOL = 2e-3
SCORE_RTOL = 1e-9
# Largest deviations of the Edgeworth kernel's per-cell moments from direct
# summation the nu suite accepts, each ten or more times the worst measured:
# relative, but absolute for the summed log-mass (often near 0); a trivial
# cell's four cumulants are all lam.
MOMENT_TOL = {"mean": 1e-13, "mu2": 1e-11, "mu3": 1e-8, "kappa4": 1e-7,
              "trivial-cell cumulants": 1e-11, "summed log-mass": 1e-11}

NU_BATTERY = tuple(
    (k, n, shape)
    for k in (2, 3, 5)
    for n in (10, 20, 50, 100)
    for shape in ("uniform", "skewed")
)

_SKEWED = {2: (0.7, 0.3), 3: (0.6, 0.3, 0.1), 5: (0.4, 0.3, 0.15, 0.1, 0.05)}


def battery_spec(k: int, n: int, shape: str) -> CellSpec:
    probs = np.full(k, 1.0 / k) if shape == "uniform" else np.array(_SKEWED[k])
    return CellSpec(probs=probs, n=n)


def kronecker_spec(levels, n: int, seed: int) -> CellSpec:
    """Cell probabilities of a product table, as the threshold layer builds them."""
    rng = np.random.default_rng(seed)
    probs = np.ones(1)
    for l in levels:
        probs = np.kron(probs, rng.dirichlet(np.full(l, 0.6)))
    return CellSpec(probs=probs / probs.sum(), n=n)


def _moment_deviations(spec: CellSpec, c: int) -> tuple[int, int, np.ndarray]:
    """The Edgeworth kernel's non-trivial and trivial cell counts at c, and the
    worst deviation of each MOMENT_TOL quantity from direct summation."""
    a, b = spec.bounds(c)
    cells = _cell_moment_arrays(spec.m, a, b)
    ref = np.array([(r.m1, r.mu2, r.mu3, r.mu4 - 3.0 * r.mu2 ** 2, math.log(r.mass)) for r in
                    map(truncated_poisson_moments, spec.m, a.astype(int), b.astype(int))])
    idx = cells["idx"]
    fast = np.column_stack([cells[key] for key in ("m1", "mu2", "mu3", "k4")])
    lam = np.delete(spec.m, idx)[:, None]
    return idx.size, lam.size, np.array([
        *np.max(np.abs(fast - ref[idx, :4]) / np.abs(ref[idx, :4]), axis=0, initial=0.0),
        np.max(np.abs(np.delete(ref[:, :4], idx, axis=0) - lam) / lam, initial=0.0),
        abs(cells["sum_log_mass"] - math.fsum(ref[idx, 4]))])


def suite_nu_accuracy() -> list[Check]:
    """Shipped nu against exact nu over the battery, plus half-width agreement.

    Each check holds a fast-path stage to the oracle: auto nu within NU_TOL
    of exact nu on the battery, as is the Edgeworth kernel (called directly,
    as auto convolves the whole battery) on its k=5, c >= 5 operating slice;
    the product tree's exact nu within 1e-12 of the cell-by-cell convolution;
    exact nu within 1e-12 of its one-cell binomial bracket (_binomial_bounds,
    which settles the maxlen rule without nu; how often the Edgeworth kernel
    leaves it is only reported); auto's c within 1 of exact's on the battery
    and on flare-shaped tables where auto's find_c crosses into Edgeworth;
    find_c's c equal to the literal clamped sweep's, gamma within 1e-9, and
    the Bonferroni start at or above c + 1 wherever nu is exact there (a
    broken bound would only send find_c to the slower sweep); the kernel's
    cell moments within MOMENT_TOL of direct summation on that slice and at
    each Edgeworth c of the flare-shaped tables up to find_c's c + 1; and
    c_at_most, the maxlen rule's question, answering exactly "find_c's c <=
    t?" at t around c and at the rule's t >> c on those tables and a
    30000-row binary one, where it asks first at the Hoeffding point.
    """
    checks: list[Check] = []
    worst = worst_split = worst_fast = 0.0
    worst_at = ""
    bracket_misses = []
    edgeworth_outside = edgeworth_points = 0
    moments = []  # _moment_deviations at each audited (table, c)
    for k, n, shape in NU_BATTERY:
        spec = battery_spec(k, n, shape)
        for c in range(0, n + 1):
            exact = exact_nu(spec, c)
            lower, upper = _binomial_bounds(spec, c)
            if not lower - 1e-12 <= exact <= upper + 1e-12:
                bracket_misses.append(f"k={k} n={n} {shape} c={c}")
            dev = abs(coverage_probability(spec, c, "auto") - exact)
            if dev > worst:
                worst, worst_at = dev, f"k={k} n={n} {shape} c={c}"
            worst_fast = max(worst_fast, abs(coverage_probability(spec, c, "exact") - exact))
            if k == 5 and c >= 5:
                split = _coverage_edgeworth(spec, *spec.bounds(c))
                worst_split = max(worst_split, abs(split - exact))
                edgeworth_points += 1
                edgeworth_outside += not lower - 1e-12 <= split <= upper + 1e-12
                moments.append(_moment_deviations(spec, c))
    checks.append(("nu accuracy",
                   worst <= NU_TOL and worst_split <= NU_TOL,
                   f"max |nu_auto - nu_exact| = {worst:.2e}"
                   + (f" at {worst_at}" if worst_at else "")
                   + f" (tol {NU_TOL:.0e}); split-Edgeworth on its k=5 "
                   f"operating slice {worst_split:.2e}"))
    checks.append(("fast exact nu", worst_fast <= 1e-12,
                   f"max |nu_product_tree - nu_oracle| = {worst_fast:.2e} (tol 1e-12)"))
    checks.append(("binomial bounds", not bracket_misses,
                   f"{len(bracket_misses)} battery points with exact nu outside "
                   "[Bonferroni, min-cell] (tol 1e-12)"
                   + (f" ({', '.join(bracket_misses[:3])})" if bracket_misses else "")
                   + f"; information only: the Edgeworth kernel leaves the bracket at "
                   f"{edgeworth_outside} of {edgeworth_points} points on its k=5 slice"))
    worst_c = 0
    sweep_misses = []
    worst_gamma = 0.0
    starts = []  # (exact at the start, c + 1 <= start) per find_c call

    def searched(spec, level, method):
        c, start = find_c(spec, level, method), _bonferroni_start(spec, level)
        starts.append((_computes_exactly(spec, start, method),
                       c[0] + 1 <= start))
        return c

    for k, n, shape in NU_BATTERY:
        spec = battery_spec(k, n, shape)
        for level in (0.90, 0.95):
            found = {}
            for method in ("exact", "auto"):
                found[method] = searched(spec, level, method)
                c_ref, gamma_ref = sweep_find_c(spec, level, method)
                if found[method][0] != c_ref:
                    sweep_misses.append(f"k={k} n={n} {shape} {level} {method}")
                worst_gamma = max(worst_gamma, abs(found[method][1] - gamma_ref))
            worst_c = max(worst_c, abs(found["auto"][0] - found["exact"][0]))
    crossing = ((7, 6, 4, 2), (6, 4, 3, 3), (7, 6, 4, 3))
    for levels in crossing:
        spec = kronecker_spec(levels, 1389, seed=3)
        c_auto = searched(spec, 0.9, "auto")[0]
        worst_c = max(worst_c, abs(c_auto - searched(spec, 0.9, "exact")[0]))
        moments.extend(_moment_deviations(spec, c) for c in range(c_auto + 2)
                       if not _computes_exactly(spec, c, "auto"))
    checks.append(("c agreement", worst_c <= 1,
                   f"max |c_auto - c_exact| = {worst_c} over the battery and "
                   f"{len(crossing)} tables crossing into Edgeworth (tol 1)"))
    start_misses = sum(exact and not bounds for exact, bounds in starts)
    checks.append(("find_c against the literal sweep",
                   not sweep_misses and worst_gamma <= 1e-9 and not start_misses,
                   f"{len(sweep_misses)} c mismatches"
                   + (f" ({', '.join(sweep_misses[:3])})" if sweep_misses else "")
                   + f"; max |gamma - gamma_sweep| = {worst_gamma:.2e} (tol 1e-9); "
                   f"Bonferroni start below c + 1 at {start_misses} of "
                   f"{sum(exact for exact, _ in starts)} exact-path starts"))
    rule_misses = []
    answers = 0
    probes = {"bracket": 0, "nu": 0}  # questions asked first at the Hoeffding point
    rule_specs = [kronecker_spec(levels, 1389, seed=3) for levels in crossing]
    rule_specs.append(kronecker_spec((2,), 30000, seed=3))
    for spec, method in itertools.product(rule_specs, ("auto", "exact")):
        c = find_c(spec, 0.9, method)[0]
        t_rule = math.floor(spec.n * spec.probs.max() - 2)
        for t in (c - 1, c, c + 1, t_rule):
            answers += 1
            if c_at_most(spec, 0.9, t, method) != (c <= t):
                rule_misses.append(f"k={spec.k} n={spec.n} {method} t={t}")
        j = _hoeffding_point(spec, 0.9)
        if j <= t_rule and not _computes_exactly(spec, t_rule + 1, method):
            probes["bracket" if _computes_exactly(spec, j, method) else "nu"] += 1
    checks.append(("maxlen rule's question", not rule_misses,
                   f"{len(rule_misses)} of {answers} c_at_most answers differ from "
                   "find_c's c <= t"
                   + (f" ({', '.join(rule_misses[:3])})" if rule_misses else "")
                   + f" (t = c - 1, c, c + 1 and floor(n p_max - 2); {len(crossing)} "
                   "flare-shaped tables and a 30000-row binary one; both methods); "
                   f"asked first at the Hoeffding point: {probes['bracket']} by its "
                   f"bracket, {probes['nu']} by nu"))
    worst_moment = np.max([dev for _, _, dev in moments], axis=0)
    cells = np.sum([counts for *counts, _ in moments], axis=0)
    checks.append(("Edgeworth cell moments", all(worst_moment <= [*MOMENT_TOL.values()]),
                   f"{cells[0]} non-trivial and {cells[1]} trivial cells at {len(moments)} "
                   "points against direct summation, max deviation (relative; the log-mass "
                   "absolute): " + ", ".join(f"{name} {dev:.2e} (tol {tol:.0e})" for (name, tol),
                                             dev in zip(MOMENT_TOL.items(), worst_moment))))
    return checks


def suite_coverage_simulation(seed: int = 20240901) -> list[Check]:
    """Two-sided simultaneous coverage for k=5 equiprobable, n=100, alpha=0.05
    (oracle.simulated_coverage). The exact coverage must lie in [0.94, 0.99],
    and the rate of 10,000 draws within 5 binomial SD of it: the band is
    judged on the exact value, which no seed moves."""
    spec = CellSpec(probs=np.full(5, 0.2), n=100)
    sims = 10_000
    ci, rate, exact = simulated_coverage(spec, 0.05, sims, np.random.default_rng(seed))
    sd = math.sqrt(exact * (1.0 - exact) / sims)
    ok = 0.94 <= exact <= 0.99 and abs(rate - exact) <= 5.0 * sd
    return [("coverage simulation", ok,
             f"simultaneous coverage {exact:.6f} exact (want [0.94, 0.99]), "
             f"{rate:.4f} simulated (want within 5 SD = {5.0 * sd:.4f} of it) "
             f"with c={ci.c}, gamma={ci.gamma:.3f}")]


# Documented gaps between the propositions as printed and exact arithmetic
# on p <= 60, r in {1, 2, 3} (the criterion-4 acceptance test derives the same
# set independently): the closed-form argmax is an asymptotic approximation,
# one below floor((p-r)/2) at two boundary points, and the claimed
# singleton-dominance threshold overshoots for r=3.
ARGMAX_OFF_BY_ONE = {(10, 2.0): 3, (17, 3.0): 6}
SINGLETON_GAP = {(14, 3.0), (15, 3.0), (16, 3.0)}


def suite_propositions(p_max: int = 60) -> list[Check]:
    """Proposition checks against exact arithmetic.

    A failing case counts as a suite failure unless it is one of the
    documented boundary deviations and fails in exactly the documented way.
    """
    cases = check_propositions(range(2, p_max + 1), (1.0, 2.0, 3.0))
    unexpected = []
    documented = []
    for case in cases:
        if case.passed:
            continue
        key = (case.p, case.r)
        failing = {name for name, ok in case.checks.items() if not ok}
        if key in ARGMAX_OFF_BY_ONE and failing == {"argmax_closed_form"} \
                and case.argmax == {ARGMAX_OFF_BY_ONE[key]}:
            documented.append(f"p={case.p} r={case.r:g} argmax off by one")
        elif key in SINGLETON_GAP and failing == {"singletons_dominate"} \
                and case.boundary > case.p:
            documented.append(f"p={case.p} r={case.r:g} singleton-threshold gap")
        else:
            unexpected.append(f"p={case.p} r={case.r:g}: {case.details}")
    detail = f"{len(cases)} (p, r) cases"
    if documented:
        detail += f"; documented boundary deviations: {', '.join(documented)}"
    if unexpected:
        detail += "; UNEXPECTED: " + "; ".join(unexpected[:3])
    return [("propositions", not unexpected, detail)]


def suite_walker_equivalence(n_datasets: int = 12, seed: int = 20240901) -> list[Check]:
    """Fast path vs nested-loop walker on seeded random datasets.

    maxlen is decided by its definition (oracle.reference_maxlen) once per
    dataset and given to the walker. A dataset's four runs share one alpha and
    so one ThresholdProvider.
    """
    rng = np.random.default_rng(seed)
    grid = list(itertools.product(("infrequent", "frequent"), (True, False)))
    failures = []
    for i in range(n_datasets):
        ds = random_dataset(rng)
        model = empirical_model(ds)
        alpha = float(rng.choice((0.05, 0.1)))
        r = float(rng.choice((1.0, 2.0)))
        provider = ThresholdProvider(model, ds.n, alpha)
        maxlen = reference_maxlen(model, ds.n, alpha).maxlen
        for mode, prune in grid:
            cfg = RunConfig(mode=mode, alpha=alpha, r=r, prune=prune)
            report, info, flags = run_analysis(ds, model, cfg, provider)
            if info.maxlen != maxlen:
                failures.append(f"ds{i} {mode} prune={prune}: maxlen "
                                f"{info.maxlen} != {maxlen}")
                continue
            ref = walker(ds, model, alpha, r, mode=mode, prune=prune, max_len=maxlen)
            if flag_keys(flags) != list(map(frozenset, ref.flag_sets)):
                failures.append(f"ds{i} {mode} prune={prune}: flag sets differ")
                continue
            for name in ("scores", "depths", "contributions"):
                if not np.allclose(getattr(report, name), getattr(ref.report, name),
                                   rtol=SCORE_RTOL, atol=1e-12):
                    failures.append(f"ds{i} {mode} prune={prune}: {name} differ")
    detail = f"{len(grid) * n_datasets} runs on {n_datasets} seeded datasets"
    if failures:
        detail += "; " + "; ".join(failures[:3])
    return [("walker equivalence", not failures, detail)]


def run_verify(n_datasets: int = 12, seed: int = 20240901, p_max: int = 60,
               suites: tuple[str, ...] | None = None) -> tuple[int, str]:
    """Run the audit suites; exit status 0 iff every check passed."""
    registry = {
        "nu": suite_nu_accuracy,
        "coverage": lambda: suite_coverage_simulation(seed),
        "propositions": lambda: suite_propositions(p_max),
        "walker": lambda: suite_walker_equivalence(n_datasets, seed),
    }
    names = suites or tuple(registry)
    lines = []
    all_ok = True
    for name in names:
        for check, ok, detail in registry[name]():
            all_ok &= ok
            lines.append(f"{'PASS' if ok else 'FAIL'}  {check}: {detail}")
    lines.append("verification " + ("PASSED" if all_ok else "FAILED"))
    return (0 if all_ok else 1), "\n".join(lines)

"""Orchestration: thresholds -> lattice search -> score report."""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .config import RunConfig
from .data import Dataset, ProbabilityModel
from .errors import DomainError
from .lattice import Flags, SearchStats, search_frequent, search_infrequent
from .scoring import ScoreReport, build_report
from .thresholds import MaxlenDecision, ThresholdProvider

CACHE_ENV = "SONO_CACHE_DIR"


@dataclass
class RunInfo:
    """Everything about a run that is not the scores themselves."""

    maxlen: int
    maxlen_rule: str
    violating_subset: tuple[int, ...] | None
    stats: SearchStats
    c_by_size: dict[int, dict[str, float]]
    saturated_tables: int
    # tables the provider computed and built from its spill file: "computed",
    # "from_spill"
    tables: dict[str, int]
    runtime_s: float
    # wall seconds of the run's phases: "maxlen_s" (provider set-up and the
    # maxlen rule), "search_s" (lattice search and its thresholds), "scoring_s"
    timings: dict[str, float]


def run_analysis(ds: Dataset, model: ProbabilityModel, cfg: RunConfig,
                 provider: ThresholdProvider | None = None
                 ) -> tuple[ScoreReport, RunInfo, Flags]:
    """Score a dataset under a configuration; pure function of its inputs.

    A provider built for this model and the run's n, alpha, method and
    max_cells may be passed to share thresholds and maxlen decisions between
    runs; the run's c_by_size, saturated_tables and tables then count every
    table it holds.
    """
    cfg.validate(p=ds.p)
    t0 = time.perf_counter()
    method = "exact" if cfg.oracle_nu else "auto"

    if provider is None:
        provider = ThresholdProvider(model, ds.n, cfg.alpha, method=method,
                                     max_cells=cfg.max_cells,
                                     cache_dir=os.environ.get(CACHE_ENV))
    elif provider.model is not model or (
            (provider.n, provider.alpha, provider.method, provider.max_cells)
            != (ds.n, cfg.alpha, method, cfg.max_cells)):
        raise DomainError("the threshold provider was built for other inputs")
    try:
        if cfg.max_len is not None:
            decision = MaxlenDecision(maxlen=min(cfg.max_len, ds.p),
                                      violating_subset=None, rule="manual")
        else:
            decision = provider.maxlen(cfg.maxlen_rule)
        t_maxlen = time.perf_counter()
        search = search_infrequent if cfg.mode == "infrequent" else search_frequent
        flags, stats = search(ds, provider, decision.maxlen, prune=cfg.prune)
        t_search = time.perf_counter()
        report = build_report(flags, cfg.r, cfg.mode, decision.maxlen)
        t_scoring = time.perf_counter()
    finally:  # a refused or interrupted run keeps the tables it computed
        provider.flush_spill()
    info = RunInfo(
        maxlen=decision.maxlen,
        maxlen_rule=decision.rule,
        violating_subset=decision.violating_subset,
        stats=stats,
        c_by_size=provider.c_summary(),
        saturated_tables=provider.saturated_tables(),
        tables={"computed": provider.tables_computed,
                "from_spill": provider.tables_from_spill},
        runtime_s=time.perf_counter() - t0,
        timings={"maxlen_s": t_maxlen - t0, "search_s": t_search - t_maxlen,
                 "scoring_s": t_scoring - t_search},
    )
    return report, info, flags

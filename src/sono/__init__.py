"""Scores of nominal outlyingness for categorical data.

Per-itemset support thresholds are derived from simultaneous multinomial
confidence intervals; a pruned itemset-lattice search flags highly infrequent
(or frequent) itemsets; flagged itemsets yield per-observation scores,
outlyingness depths and a variable contribution matrix. A slow reference
oracle ships alongside the fast path so every result can be audited.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .data import (Dataset, IngestionOptions, Itemset, ProbabilityModel,
                   cell_probability, empirical_model, load_dataset, read_csv,
                   user_model)
from .engine import RunInfo, run_analysis
from .errors import (CISearchFailure, DegenerateTruncation, DomainError,
                     EmptyDatasetError, IngestionError, InternalConsistencyError,
                     OracleRefusal, SonoError, TableExplosion)
from .lattice import (FlagRecord, Flags, SearchStats, search_frequent,
                      search_infrequent)
from .scoring import ScoreReport, build_report, max_score_bound
from .simci import CellSpec, coverage_probability, find_c
from .thresholds import (MaxlenDecision, ThresholdProvider, ThresholdTable,
                         determine_maxlen, subset_thresholds)

# The reference oracle is for audits, not scoring: its names load it on first
# access, so a scoring process never imports it.
_ORACLE_NAMES = (
    "OracleConfig", "WalkerResult", "walker", "exact_nu", "check_propositions",
    "random_dataset", "TruncatedPoissonMoments", "truncated_poisson_moments",
    "edgeworth_sum_density", "SimultaneousCI", "simultaneous_intervals",
)

__all__ = [
    "__version__",
    "RunConfig", "RunInfo", "run_analysis",
    "Dataset", "IngestionOptions", "Itemset", "ProbabilityModel",
    "cell_probability", "empirical_model", "load_dataset", "read_csv", "user_model",
    "SonoError", "IngestionError", "EmptyDatasetError", "DomainError",
    "DegenerateTruncation", "CISearchFailure", "TableExplosion", "OracleRefusal",
    "InternalConsistencyError",
    "FlagRecord", "Flags", "SearchStats", "search_infrequent", "search_frequent",
    "ScoreReport", "build_report", "max_score_bound",
    "CellSpec", "coverage_probability", "find_c",
    "MaxlenDecision", "ThresholdTable", "ThresholdProvider", "determine_maxlen",
    "subset_thresholds",
    *_ORACLE_NAMES,
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Scores of nominal outlyingness for categorical data.

Per-itemset support thresholds are derived from simultaneous multinomial
confidence intervals; a pruned itemset-lattice search flags highly infrequent
(or frequent) itemsets; flagged itemsets yield per-observation scores,
outlyingness depths and a variable contribution matrix. A slow reference
oracle ships alongside the fast path so every result can be audited; the
flagged cells are kept only as the arrays of a `Flags` table, which the
audits read per observation with `sono.oracle.flag_keys`.

`import sono` is lazy: each public name loads its module on first access, so
importing the package loads neither NumPy nor any submodule. `sono.cli` can
thus set its BLAS thread default before NumPy loads, and a scoring process
never imports the reference oracle, which is for audits.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it, grouped by submodule.
_LAZY = {name: module for module, names in (
    ("config", ("RunConfig",)),
    ("engine", ("RunInfo", "run_analysis")),
    ("data", ("Dataset", "IngestionOptions", "ProbabilityModel", "empirical_model",
              "load_dataset", "read_csv", "user_model")),
    ("errors", ("SonoError", "IngestionError", "EmptyDatasetError", "DomainError",
                "CISearchFailure", "TableExplosion", "OracleRefusal",
                "InternalConsistencyError")),
    ("lattice", ("Flags", "SearchStats", "search_infrequent", "search_frequent")),
    ("scoring", ("ScoreReport", "build_report", "max_score_bound")),
    ("simci", ("CellSpec", "coverage_probability", "find_c")),
    ("thresholds", ("MaxlenDecision", "ThresholdTable", "ThresholdProvider",
                    "determine_maxlen", "subset_thresholds")),
    ("oracle", ("WalkerResult", "walker", "exact_nu",
                "check_propositions", "random_dataset", "TruncatedPoissonMoments",
                "truncated_poisson_moments", "SimultaneousCI", "simultaneous_intervals")),
) for name in names}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})

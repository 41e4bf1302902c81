"""Run configuration: defaults < config file < command-line flags."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields, asdict
from typing import Any, Mapping

from .errors import DomainError, IngestionError, log_warning

FORMATS = ("csv", "json", "svg")
# Options that run.json files of earlier versions hold but that no longer
# exist; a config file may still name them, and they are ignored.
RETIRED_FILE_KEYS = ("threads",)
# Larger length exponents are allowed but advised against.
R_SOFT_MAX = 3.0
# Largest table, in cells, that a threshold may be computed for.
DEFAULT_MAX_CELLS = 1e7


@dataclass
class RunConfig:
    """Everything a scoring run depends on; echoed verbatim into run.json."""

    input: str = ""
    mode: str = "infrequent"
    alpha: float = 0.05
    r: float = 2.0
    prune: bool = True
    max_len: int | None = None
    probs: str | None = None
    out: str = "sono-out"
    format: tuple[str, ...] = ("csv", "json")
    drop_cols: tuple[str, ...] = ()
    missing: str = "drop"
    oracle_nu: bool = False
    delimiter: str = ","
    header: bool = True
    missing_markers: tuple[str, ...] = ("?", "")
    level_order: str = "first"
    maxlen_rule: str = "any-cell"
    max_cells: float = DEFAULT_MAX_CELLS

    def __post_init__(self):
        # A string names a comma list; only a marker may be empty.
        for name in ("format", "drop_cols", "missing_markers"):
            value = getattr(self, name)
            if isinstance(value, str):
                value = [v for v in value.split(",") if v or name == "missing_markers"]
            setattr(self, name, tuple(value))

    def validate(self, p: int | None = None) -> None:
        if self.mode not in ("infrequent", "frequent"):
            raise DomainError(f"mode must be infrequent or frequent, got {self.mode!r}")
        if not 0.0 < 1.0 - 2.0 * self.alpha < 1.0:  # NaN fails too
            raise DomainError(f"alpha must leave a confidence level 1 - 2*alpha in (0, 1), "
                              f"got alpha {self.alpha!r}")
        if not self.r > 0:  # NaN fails too
            raise DomainError("r must be > 0")
        try:  # scores divide by powers of at most p ** (r + 1)
            finite = math.isfinite(self.r) and math.isfinite(float(p or 1) ** (self.r + 1.0))
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"r must be finite, with p ** (r + 1) within float range "
                              f"(p={p}), got r {self.r!r}")
        if self.max_len is not None:
            if self.max_len < 1:
                raise DomainError("max-len must be >= 1")
            if p is not None and self.max_len > p:
                raise DomainError(f"max-len {self.max_len} exceeds p={p}")
        if not self.format:
            raise DomainError(f"format must name at least one of {', '.join(FORMATS)}")
        bad = set(self.format) - set(FORMATS)
        if bad:
            raise DomainError(f"unknown output formats {sorted(bad)}")
        if self.maxlen_rule not in ("any-cell", "all-cells"):
            raise DomainError(f"maxlen-rule must be any-cell or all-cells, "
                              f"got {self.maxlen_rule!r}")
        if math.isnan(self.max_cells):
            raise DomainError("max-cells must be a number")
        if self.max_cells < 1:
            raise DomainError("max-cells must be >= 1")
        self.check_ingestion()
        if p is not None and self.r > R_SOFT_MAX:
            # given once, by run_analysis's check with p; it names that caller
            warnings.warn(f"r={self.r} strongly damps longer itemsets; values much "
                          f"above {R_SOFT_MAX} are not recommended", stacklevel=3)

    def check_ingestion(self) -> None:
        """The checks of how a raw table is read and coded, before any is read."""
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise IngestionError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.delimiter in '"\r\n':  # the reader would see one column
            raise IngestionError(f"delimiter cannot be a quote or a line break, "
                                 f"got {self.delimiter!r}")
        if self.missing not in ("drop", "level"):
            raise IngestionError(f"unknown missing policy {self.missing!r}")
        if self.level_order not in ("first", "lexicographic"):
            raise IngestionError(f"unknown level order {self.level_order!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _check_type(name: str, value: Any, key: str, tag: str) -> None:
    """A value of the field's declared type; a string list may be a comma list."""
    kind = _FIELD_TYPES[name]
    types = {"bool": bool, "float": (int, float), "int | None": int,
             "tuple[str, ...]": (str, list)}.get(kind, str)
    if (not isinstance(value, types) or (isinstance(value, bool) and kind != "bool")
            or isinstance(value, list) and not all(isinstance(v, str) for v in value)):
        raise IngestionError(f"{tag} option {key!r} must be of type {kind}, got {value!r}")


def merge_config(defaults: RunConfig, file_values: Mapping[str, Any] | None,
                 cli_values: Mapping[str, Any] | None) -> RunConfig:
    """Apply config-file values then CLI values on top of the defaults."""
    values = asdict(defaults)
    for source, tag in ((file_values, "config file"), (cli_values, "command line")):
        if not source:
            continue
        for key, value in source.items():
            name = key.replace("-", "_")
            if source is file_values and name in RETIRED_FILE_KEYS:
                log_warning(__name__, "config file option %r is retired and ignored", key)
                continue
            if name not in values:
                raise IngestionError(f"unknown {tag} option {key!r}")
            if value is None:
                continue
            _check_type(name, value, key, tag)
            values[name] = value
    return RunConfig(**values)


def read_json_object(path: str, what: str) -> dict[str, Any]:
    """The JSON object a UTF-8 file holds (a byte-order mark allowed), read
    whatever the locale; `what` names the file in the IngestionError that
    any other content, or a failed read, raises."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # too deeply nested
        raise IngestionError(f"cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise IngestionError(f"{what} must hold a JSON object")
    return doc


def load_config_file(path: str) -> dict[str, Any]:
    """Flat key-value JSON; a run.json (config nested under "config") also works."""
    doc = read_json_object(path, f"config file {path}")
    if "config" in doc and isinstance(doc["config"], dict):
        doc = doc["config"]
    return doc

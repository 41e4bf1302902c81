"""Run configuration: defaults < config file < command-line flags."""
from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields
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
# The values a field of each declared type takes (no bool is a number).
_TYPES = {"bool": bool, "float": (int, float), "int | None": (int, type(None)),
          "str | None": (str, type(None)), "tuple[str, ...]": (str, list, tuple)}


def _shown(value) -> str:
    """An option's value in a message: its repr, but an integer beyond float
    range by its length, since it may have more digits than Python prints."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"<an integer of about {math.floor(math.log10(abs(value))) + 1} digits>"
    return repr(value)


@dataclass(frozen=True)
class RunConfig:
    """Everything a scoring run depends on; echoed verbatim into run.json.
    Checked when made, but for what `validate(p)` checks against the data."""

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
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _TYPES.get(f.type, str))
                    or isinstance(value, bool) and f.type != "bool"
                    or f.type == "float" and isinstance(value, int)  # beyond float range
                    and abs(value) > sys.float_info.max
                    or isinstance(value, (list, tuple))
                    and not all(isinstance(v, str) for v in value)):
                raise IngestionError(f"option {f.name!r} must be of type {f.type}, "
                                     f"got {_shown(value)}")
        # A string names a comma list; only a marker may be empty.
        for name in ("format", "drop_cols", "missing_markers"):
            value = getattr(self, name)
            if isinstance(value, str):
                value = [v for v in value.split(",") if v or name == "missing_markers"]
            object.__setattr__(self, name, tuple(value))
        for name in ("input", "out", "probs"):
            value = getattr(self, name)
            try:
                named = value is None or b"\0" not in os.fsencode(value)
            except UnicodeEncodeError:
                named = False
            if not named:
                raise IngestionError(f"option {name!r} cannot name a file, got {value!r}")
        if self.mode not in ("infrequent", "frequent"):
            raise DomainError(f"mode must be infrequent or frequent, got {self.mode!r}")
        if not 0.0 < 1.0 - 2.0 * self.alpha < 1.0:  # NaN fails too
            raise DomainError(f"alpha must leave a confidence level 1 - 2*alpha in (0, 1), "
                              f"got alpha {self.alpha!r}")
        if not self.r > 0:  # NaN fails too
            raise DomainError("r must be > 0")
        self.validate()  # r finite; its other checks wait for p
        if self.max_len is not None and self.max_len < 1:
            raise DomainError("max-len must be >= 1")
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
        if len(self.delimiter) != 1:
            raise IngestionError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.delimiter in '"\r\n':  # the reader would see one column
            raise IngestionError(f"delimiter cannot be a quote or a line break, "
                                 f"got {self.delimiter!r}")
        if self.delimiter == "\0":  # Python 3.10's csv module refuses it
            raise IngestionError("delimiter cannot be NUL")
        if self.missing not in ("drop", "level"):
            raise IngestionError(f"unknown missing policy {self.missing!r}")
        if self.level_order not in ("first", "lexicographic"):
            raise IngestionError(f"unknown level order {self.level_order!r}")

    def validate(self, p: int | None = None) -> None:
        """Checks against the data's width p (None while unknown); advice on r."""
        try:  # scores divide by powers of at most p ** (r + 1)
            finite = math.isfinite(self.r) and math.isfinite(float(p or 1) ** (self.r + 1.0))
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"r must be finite, with p ** (r + 1) within float range "
                              f"(p={p}), got r {self.r!r}")
        if p is not None and self.max_len is not None and self.max_len > p:
            raise DomainError(f"max-len {_shown(self.max_len)} exceeds p={p}")
        if p is not None and self.r > R_SOFT_MAX:
            # given once, by run_analysis's check with p; it names that caller
            warnings.warn(f"r={self.r} strongly damps longer itemsets; values much "
                          f"above {R_SOFT_MAX} are not recommended", stacklevel=3)


def merge_config(file_values: Mapping[str, Any] | None,
                 cli_values: Mapping[str, Any] | None) -> RunConfig:
    """Config-file values, then CLI values, over the defaults; a None sets nothing."""
    values = {}
    for source, tag in ((file_values, "config file"), (cli_values, "command line")):
        for key, value in (source or {}).items():
            name = key.replace("-", "_")
            if source is file_values and name in RETIRED_FILE_KEYS:
                log_warning(__name__, "config file option %r is retired and ignored", key)
                continue
            if name not in RunConfig.__dataclass_fields__:
                raise IngestionError(f"unknown {tag} option {key!r}")
            if value is not None:
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

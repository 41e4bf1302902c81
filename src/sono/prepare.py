"""Cleaning recipes for the five UCI corpora.

The tool never downloads; place the raw files (URLs below) in one directory
and `sono prepare <name> --raw DIR --out FILE` writes the cleaned CSV (header
row, comma separated) that `sono score` expects. A shape mismatch warns but
the recipe is still applied, since upstream packaging of these files
occasionally changes; raw files that leave no data row are an error.
`TABLE1` holds the source paper's published results for each corpus.
"""
from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

from .config import RunConfig
from .errors import IngestionError

_FLARE_NAMES = (
    "zurich_class", "largest_spot_size", "spot_distribution", "activity",
    "evolution", "previous_activity", "historically_complex",
    "became_complex", "area", "area_largest_spot",
)
_TUMOR_NAMES = (
    "age", "sex", "histologic_type", "degree_of_diffe", "bone", "bone_marrow",
    "lung", "pleura", "peritoneum", "liver", "brain", "skin", "neck",
    "supraclavicular", "axillar", "mediastinum", "abdominal",
)
_LYMPHO_NAMES = (
    "lymphatics", "block_of_affere", "bl_of_lymph_c", "bl_of_lymph_s",
    "by_pass", "extravasates", "regeneration_of", "early_uptake_in",
    "lym_nodes_dimin", "lym_nodes_enlar", "changes_in_lym", "defect_in_node",
    "changes_in_node", "changes_in_stru", "special_forms", "dislocation_of",
    "exclusion_of_no", "no_of_nodes_in",
)


@dataclass(frozen=True)
class Recipe:
    url: str
    files: tuple[str, ...]
    delimiter: str
    header: bool
    # columns of the raw table to keep, as indices (headerless files) or names
    keep_indices: tuple[int, ...] | None
    drop_names: tuple[str, ...]
    out_names: tuple[str, ...] | None
    drop_missing: bool
    expected_shape: tuple[int, int]  # cleaned (rows, columns)


RECIPES: dict[str, Recipe] = {
    "solar-flare": Recipe(
        url="https://archive.ics.uci.edu/dataset/89/solar+flare",
        files=("flare.data1", "flare.data2"),
        delimiter=" ",
        header=False,
        keep_indices=tuple(range(10)),  # drop the three flare-count columns
        drop_names=(),
        out_names=_FLARE_NAMES,
        drop_missing=False,
        expected_shape=(1389, 10),
    ),
    "thyroid": Recipe(
        url="https://archive.ics.uci.edu/dataset/915/"
            "differentiated+thyroid+cancer+recurrence",
        files=("Thyroid_Diff.csv",),
        delimiter=",",
        header=True,
        keep_indices=None,
        drop_names=("Age", "Recurred"),
        out_names=None,
        drop_missing=False,
        expected_shape=(383, 15),
    ),
    "primary-tumor": Recipe(
        url="https://archive.ics.uci.edu/dataset/83/primary+tumor",
        files=("primary-tumor.data",),
        delimiter=",",
        header=False,
        keep_indices=tuple(range(1, 18)),  # drop the tumor-location class
        drop_names=(),
        out_names=_TUMOR_NAMES,
        drop_missing=True,
        expected_shape=(132, 17),
    ),
    "lymphography": Recipe(
        url="https://archive.ics.uci.edu/dataset/63/lymphography",
        files=("lymphography.data",),
        delimiter=",",
        header=False,
        keep_indices=tuple(range(1, 19)),  # drop the class variable
        drop_names=(),
        out_names=_LYMPHO_NAMES,
        drop_missing=False,
        expected_shape=(148, 18),
    ),
    "diabetes": Recipe(
        url="https://archive.ics.uci.edu/dataset/529/"
            "early+stage+diabetes+risk+prediction+dataset",
        files=("diabetes_data_upload.csv",),
        delimiter=",",
        header=True,
        keep_indices=None,
        drop_names=("Age", "class"),
        out_names=None,
        drop_missing=False,
        expected_shape=(520, 15),
    ),
}

# The source paper's Table 1, from each cleaned corpus scored in infrequent
# mode at alpha 0.05 and r 2 with empirical probabilities: the chosen maxlen
# and the number of nonzero scores, out of the expected_shape[0] observations.
TABLE1: dict[str, tuple[int, int]] = {
    "solar-flare": (9, 1203),
    "thyroid": (6, 335),
    "primary-tumor": (6, 129),
    "lymphography": (10, 136),
    "diabetes": (9, 520),
}


def _read_raw(path: str, delimiter: str) -> list[list[str]]:
    """The non-blank records of a UTF-8 raw file; a space delimiter splits on
    any run of whitespace."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            if delimiter == " ":
                return [parts for parts in map(str.split, fh) if parts]
            return [parts for parts in csv.reader(fh, delimiter=delimiter) if parts]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"cannot read raw file {path}: {exc}") from exc


def prepare_dataset(name: str, raw_dir: str, out_path: str) -> tuple[int, int]:
    """Apply a recipe; returns the cleaned (rows, columns) shape."""
    recipe = RECIPES.get(name)
    if recipe is None:
        raise IngestionError(
            f"unknown dataset {name!r}; known: {', '.join(sorted(RECIPES))}")
    tables = []
    for fname in recipe.files:
        path = os.path.join(raw_dir, fname)
        if not os.path.exists(path):
            raise IngestionError(
                f"raw file {path} not found; download it from {recipe.url}")
        tables.append(_read_raw(path, recipe.delimiter))

    header: list[str] | None = None
    body: list[list[str]] = []
    for fname, rows in zip(recipe.files, tables):
        if recipe.header:
            if not rows:
                raise IngestionError(f"{name}: raw file {fname} is empty, "
                                     f"expected a header row")
            if header is None:
                header = rows[0]
            rows = rows[1:]
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                warnings.warn(f"{name}: skipping a row with {len(row)} fields "
                              f"(expected {width})")
                continue
            body.append(row)

    if recipe.keep_indices is not None:
        keep = list(recipe.keep_indices)
    else:
        assert header is not None
        drop = set(recipe.drop_names)
        missing_cols = drop - set(header)
        if missing_cols:
            raise IngestionError(f"{name}: columns {sorted(missing_cols)} not in header")
        keep = [i for i, h in enumerate(header) if h not in drop]

    last = max(keep, default=-1)
    narrow = next((row for row in body if len(row) <= last), None)
    if narrow is not None:
        raise IngestionError(f"{name}: a raw row has {len(narrow)} fields, but the "
                             f"recipe keeps column {last + 1}")
    out_names = list(recipe.out_names) if recipe.out_names \
        else [header[i] for i in keep]
    markers = set(RunConfig.missing_markers)  # sono score's defaults, in every corpus
    cleaned = []
    for row in body:
        vals = [row[i] for i in keep]
        if recipe.drop_missing and any(v in markers for v in vals):
            continue
        cleaned.append(vals)
    if not cleaned:
        raise IngestionError(f"{name}: every data row has a missing value" if body
                             else f"{name}: the raw files hold no data rows")

    shape = (len(cleaned), len(out_names))
    if shape != recipe.expected_shape:
        warnings.warn(f"{name}: cleaned shape {shape} differs from the expected "
                      f"{recipe.expected_shape}")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(out_names)
        writer.writerows(cleaned)
    return shape

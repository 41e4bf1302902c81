import csv

import pytest

from sono.cli import main
from sono.errors import IngestionError
from sono.prepare import RECIPES, TABLE1, prepare_dataset


def test_all_recipes_documented():
    assert set(RECIPES) == {"solar-flare", "thyroid", "primary-tumor",
                            "lymphography", "diabetes"}
    for recipe in RECIPES.values():
        assert recipe.url.startswith("https://archive.ics.uci.edu/")


def test_table1_values():
    # the paper's Table 1: maxlen, nonzero scores and n of each corpus
    assert {name: (*TABLE1[name], RECIPES[name].expected_shape[0]) for name in RECIPES} \
        == {"solar-flare": (9, 1203, 1389), "thyroid": (6, 335, 383),
            "primary-tumor": (6, 129, 132), "lymphography": (10, 136, 148),
            "diabetes": (9, 520, 520)}


def test_solar_flare_recipe_concatenates_and_drops_counts(tmp_path):
    (tmp_path / "flare.data1").write_text(
        "C S O 1 2 1 1 2 1 2 0 0 0\nD S O 1 3 1 1 2 1 2 0 0 0\n")
    (tmp_path / "flare.data2").write_text("H K C 1 1 1 1 2 1 2 1 0 0\n")
    out = tmp_path / "flare.csv"
    with pytest.warns(UserWarning, match="differs from the expected"):
        shape = prepare_dataset("solar-flare", str(tmp_path), str(out))
    assert shape == (3, 10)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "zurich_class"
    assert len(rows) == 4
    assert rows[1] == ["C", "S", "O", "1", "2", "1", "1", "2", "1", "2"]


def test_primary_tumor_recipe_drops_class_then_missing(tmp_path):
    # class in column 1; a "?" in the class column must NOT drop the row
    lines = [
        "1,1,2,3,2,1,2,2,2,2,2,2,2,2,2,2,2,2",
        "?,2,1,3,2,1,2,2,2,2,2,2,2,2,2,2,2,2",
        "2,1,1,?,2,1,2,2,2,2,2,2,2,2,2,2,2,2",
    ]
    (tmp_path / "primary-tumor.data").write_text("\n".join(lines) + "\n")
    out = tmp_path / "tumor.csv"
    with pytest.warns(UserWarning):
        shape = prepare_dataset("primary-tumor", str(tmp_path), str(out))
    assert shape == (2, 17)  # row 3 dropped (missing in a kept column)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "age"


def test_lymphography_recipe_drops_class(tmp_path):
    (tmp_path / "lymphography.data").write_text(
        "3,4,2,1,1,1,1,1,1,2,2,2,2,4,8,1,1,2,2\n"
        "2,3,2,1,1,2,2,1,2,3,3,2,3,4,4,2,2,2,7\n")
    out = tmp_path / "ly.csv"
    with pytest.warns(UserWarning):
        shape = prepare_dataset("lymphography", str(tmp_path), str(out))
    assert shape == (2, 18)


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"], ids=["plain", "bom"])
def test_header_recipes_drop_by_name(tmp_path, encoding):
    # a byte-order mark is not part of the first column's name
    (tmp_path / "Thyroid_Diff.csv").write_text(
        "Age,Gender,Smoking,Recurred\n27,F,No,No\n34,F,Yes,Yes\n", encoding=encoding)
    out = tmp_path / "thy.csv"
    with pytest.warns(UserWarning):
        shape = prepare_dataset("thyroid", str(tmp_path), str(out))
    assert shape == (2, 2)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Gender", "Smoking"]

    (tmp_path / "diabetes_data_upload.csv").write_text(
        "Age,Gender,Polyuria,class\n40,Male,No,Positive\n58,Male,Yes,Positive\n",
        encoding=encoding)
    with pytest.warns(UserWarning):
        shape = prepare_dataset("diabetes", str(tmp_path), str(out))
    assert shape == (2, 2)


def test_unknown_dataset_rejected(tmp_path):
    with pytest.raises(IngestionError, match="unknown dataset"):
        prepare_dataset("nope", str(tmp_path), str(tmp_path / "x.csv"))


def test_missing_raw_file_names_url(tmp_path):
    with pytest.raises(IngestionError, match="archive.ics.uci.edu"):
        prepare_dataset("diabetes", str(tmp_path), str(tmp_path / "x.csv"))


def test_cli_prepare_list(capsys):
    assert main(["prepare", "--list"]) == 0
    out = capsys.readouterr().out
    assert "solar-flare" in out
    assert "1389x10" in out


def test_cli_prepare_exit_code_on_missing_raw(tmp_path):
    rc = main(["prepare", "diabetes", "--raw", str(tmp_path),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_cli_prepare_runs_recipe(tmp_path, capsys, recwarn):
    (tmp_path / "lymphography.data").write_text(
        "3,4,2,1,1,1,1,1,1,2,2,2,2,4,8,1,1,2,2\n")
    rc = main(["prepare", "lymphography", "--raw", str(tmp_path),
               "--out", str(tmp_path / "ly.csv")])
    assert rc == 0
    assert "wrote 1x18" in capsys.readouterr().out


def test_cli_prepare_empty_header_file_is_ingestion_error(tmp_path, capsys):
    (tmp_path / "Thyroid_Diff.csv").write_text("")
    rc = main(["prepare", "thyroid", "--raw", str(tmp_path),
               "--out", str(tmp_path / "thy.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["ingestion error: thyroid: raw file Thyroid_Diff.csv is empty, "
                   "expected a header row"]


def test_cli_prepare_narrow_rows_are_ingestion_error(tmp_path, capsys):
    (tmp_path / "flare.data1").write_text("1 2\n")
    (tmp_path / "flare.data2").write_text("H K C 1 1 1 1 2 1 2 1 0 0\n")
    rc = main(["prepare", "solar-flare", "--raw", str(tmp_path),
               "--out", str(tmp_path / "flare.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["ingestion error: solar-flare: a raw row has 2 fields, but the "
                   "recipe keeps column 10"]
    assert not (tmp_path / "flare.csv").exists()


@pytest.mark.parametrize("recipe, files, message", [
    ("solar-flare", {"flare.data1": "", "flare.data2": ""},
     "solar-flare: the raw files hold no data rows"),
    ("thyroid", {"Thyroid_Diff.csv": "Age,Gender,Recurred\n"},
     "thyroid: the raw files hold no data rows"),
    ("primary-tumor", {"primary-tumor.data": "1,?" + ",2" * 16 + "\n"},
     "primary-tumor: every data row has a missing value"),
], ids=["empty", "header-only", "all-missing"])
def test_cli_prepare_no_data_rows_is_ingestion_error(tmp_path, capsys, recipe, files,
                                                     message):
    # two empty flare files used to exit 0 with a header-only CSV and a
    # shape warning
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    rc = main(["prepare", recipe, "--raw", str(tmp_path),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"ingestion error: {message}"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("recipe, fname, kind", [
    ("thyroid", "Thyroid_Diff.csv", "directory"),
    ("thyroid", "Thyroid_Diff.csv", "utf-16"),
    ("solar-flare", "flare.data1", "utf-16"),
], ids=["directory", "utf-16", "utf-16-whitespace"])
def test_cli_prepare_unreadable_raw_file_is_ingestion_error(tmp_path, capsys, recipe, fname,
                                                            kind):
    # each used to end in an IsADirectoryError or UnicodeDecodeError traceback
    for other in RECIPES[recipe].files:
        (tmp_path / other).write_text("H K C 1 1 1 1 2 1 2 1 0 0\n")
    path = tmp_path / fname
    if kind == "directory":
        path.unlink()
        path.mkdir()
    else:  # a UTF-16 byte-order mark, which is not UTF-8
        path.write_bytes("Age,Gender\n27,F\n".encode("utf-16"))
    rc = main(["prepare", recipe, "--raw", str(tmp_path),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ingestion error: cannot read raw file {path}: ")
    assert not (tmp_path / "out.csv").exists()


def test_cli_prepare_failed_write_is_output_failure(tmp_path, capsys):
    # an --out naming a directory used to end in an IsADirectoryError traceback
    (tmp_path / "Thyroid_Diff.csv").write_text("Age,Gender,Smoking,Recurred\n27,F,No,No\n")
    (tmp_path / "out").mkdir()
    with pytest.warns(UserWarning, match="differs from the expected"):
        rc = main(["prepare", "thyroid", "--raw", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output failure: ") and "Is a directory" in err[0]

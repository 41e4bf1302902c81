import csv
import dataclasses
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sono import (Dataset, DomainError, EmptyDatasetError, IngestionError,
                  ProbabilityModel, RunConfig, empirical_model, load_dataset,
                  read_csv, user_model)
from sono.data import cell_probs

from conftest import make_dataset


class TestLoadDataset:
    def test_first_appearance_encoding(self, toy_table):
        assert toy_table.level_counts == (2, 2)
        assert toy_table.codes.tolist() == [[1, 1], [2, 1], [1, 2]]

    def test_degenerate_single_cell(self):
        ds = load_dataset([["a"]], RunConfig(header=False))
        assert ds.level_counts == (1,)
        assert ds.codes.tolist() == [[1]]

    def test_ragged_raises(self):
        with pytest.raises(IngestionError, match="ragged"):
            load_dataset([["a", "b"], ["c"]], RunConfig(header=False))

    def test_all_rows_missing_raises(self):
        with pytest.raises(EmptyDatasetError):
            load_dataset([["?", "a"], ["b", ""]], RunConfig(header=False))

    def test_missing_drop_counts_dropped(self):
        ds = load_dataset([["a", "x"], ["?", "x"], ["b", "y"]],
                          RunConfig(header=False))
        assert ds.n == 2
        assert ds.dropped_rows == 1

    def test_missing_as_level(self):
        ds = load_dataset([["a"], ["?"], ["a"]],
                          RunConfig(header=False, missing="level"))
        assert ds.n == 3
        assert ds.level_counts == (2,)
        assert ds.level_labels[0] == ("a", "?")

    def test_lexicographic_order(self):
        ds = load_dataset([["b"], ["a"]],
                          RunConfig(header=False, level_order="lexicographic"))
        assert ds.level_labels[0] == ("a", "b")
        assert ds.codes.tolist() == [[2], [1]]

    def test_header_and_drop_cols(self):
        ds = load_dataset([["id", "color"], ["1", "red"], ["2", "blue"]],
                          RunConfig(drop_cols=("id",)))
        assert ds.variable_names == ("color",)
        assert ds.level_counts == (2,)

    def test_unknown_drop_cols_raise(self):
        rows = [["id", "color"], ["1", "red"], ["2", "blue"]]
        with pytest.raises(IngestionError, match="unknown column.*: NOPE, size$"):
            load_dataset(rows, RunConfig(drop_cols=("id", "NOPE", "size", "NOPE")))

    def test_exact_string_matching(self):
        # no whitespace/case normalization: "A" and "a " are distinct levels
        ds = load_dataset([["A"], ["a "], ["A"]], RunConfig(header=False))
        assert ds.level_counts == (2,)

    def test_duplicate_names_raise(self):
        with pytest.raises(IngestionError, match="unique"):
            load_dataset([["x", "x"], ["a", "b"]], RunConfig())

    @pytest.mark.parametrize("options, message", [
        ({"delimiter": ";;"}, "delimiter must be one character, got ';;'"),
        ({"delimiter": '"'}, "delimiter cannot be a quote or a line break, got '\"'"),
        ({"delimiter": "\r"}, "delimiter cannot be a quote or a line break, got '\\r'"),
        ({"delimiter": "\n"}, "delimiter cannot be a quote or a line break, got '\\n'"),
        ({"missing": "zap"}, "unknown missing policy 'zap'"),
        ({"level_order": "sideways"}, "unknown level order 'sideways'"),
    ], ids=["long-delimiter", "quote-delimiter", "cr-delimiter", "lf-delimiter",
            "missing", "level-order"])
    def test_bad_ingestion_option_raises(self, tmp_path, options, message):
        cfg = RunConfig(**options)
        with pytest.raises(IngestionError) as got:
            load_dataset([["A", "B"], ["a", "b"]], cfg)
        assert str(got.value) == message
        # checked before the file is opened: this one does not exist
        with pytest.raises(IngestionError) as got:
            read_csv(tmp_path / "nope.csv", cfg)
        assert str(got.value) == message

    def test_too_few_level_label_sets_raise(self, toy_table):
        # zip would stop at the shorter tuple and decode_row fail much later
        with pytest.raises(IngestionError, match="level_labels length mismatch"):
            dataclasses.replace(toy_table, level_labels=toy_table.level_labels[:1])


class TestEmpiricalModel:
    def test_direct_frequency(self):
        ds = make_dataset([[1], [1], [2]])
        model = empirical_model(ds)
        assert model.pi[0].tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_single_level(self):
        ds = make_dataset([[1]] * 5, level_counts=(1,))
        model = empirical_model(ds)
        assert model.pi[0].tolist() == [1.0]

    def test_matches_independent_counter(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(1, 4, size=(200, 4))
        ds = make_dataset(codes, level_counts=(3, 3, 3, 3))
        model = empirical_model(ds)
        # independent one-pass counter
        for j in range(4):
            counts = {}
            for i in range(200):
                counts[codes[i, j]] = counts.get(codes[i, j], 0) + 1
            for level in (1, 2, 3):
                assert model.pi[j][level - 1] == counts.get(level, 0) / 200

    def test_counts_recover_n_exactly(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng.integers(1, 3, size=(49, 2)), level_counts=(2, 2))
        model = empirical_model(ds)
        for j in range(2):
            counts = [round(float(q) * 49) for q in model.pi[j]]
            assert sum(counts) == 49


class TestProbabilityModel:
    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError, match="sum"):
            ProbabilityModel(pi=(np.array([0.5, 0.4]),))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ProbabilityModel(pi=(np.array([-0.1, 1.1]),))

    def test_rejects_nan(self):
        # NaN passes both range comparisons and the sum check
        with pytest.raises(DomainError, match="not in"):
            ProbabilityModel(pi=(np.array([np.nan, 0.5]),))

    def test_level_counts_come_from_pi_only(self):
        # a passed level_counts used to be accepted and silently overwritten
        with pytest.raises(TypeError, match="level_counts"):
            ProbabilityModel(pi=(np.array([0.5, 0.5]),), level_counts=(3,))
        model = ProbabilityModel(pi=(np.array([0.2, 0.8]), np.full(3, 1 / 3)))
        assert model.level_counts == (2, 3)


class TestCellProbability:
    """`cell_probs`, the independence product of each row of a cell matrix."""

    def test_product_of_two(self):
        pi = (np.array([0.5, 0.5]), np.array([0.2, 0.8]))
        assert cell_probs(pi, np.array([[1, 2]])).tolist() == [pytest.approx(0.4)]

    def test_identity_single(self):
        pi = (np.array([0.3, 0.7]),)
        assert cell_probs(pi, np.array([[2]])).tolist() == [0.7]

    def test_full_cells_sum_to_one(self):
        import itertools
        rng = np.random.default_rng(11)
        pi = tuple(rng.dirichlet(np.ones(l)) for l in (2, 3, 2, 4))
        cells = np.array(list(itertools.product(*(range(1, l + 1) for l in (2, 3, 2, 4)))))
        assert cell_probs(pi, cells).sum() == pytest.approx(1.0, abs=1e-10)


class TestUserModel:
    def test_fallback_to_empirical(self, toy_table):
        ds, model = user_model(toy_table, {"V1": {"a": 0.9, "b": 0.1}})
        assert model.pi[0].tolist() == [0.9, 0.1]
        assert model.pi[1].tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_unseen_level_extends_vocabulary(self, toy_table):
        ds, model = user_model(
            toy_table, {"V1": {"a": 0.5, "b": 0.3, "c": 0.2}})
        assert ds.level_counts == (3, 2)
        assert ds.level_labels[0] == ("a", "b", "c")
        assert model.pi[0].tolist() == [0.5, 0.3, 0.2]
        # codes untouched: unseen level never occurs in rows
        assert ds.codes[:, 0].max() == 2

    def test_missing_observed_label_rejected(self, toy_table):
        with pytest.raises(DomainError, match="misses"):
            user_model(toy_table, {"V1": {"a": 1.0}})

    @pytest.mark.parametrize("spec", [{"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1}])
    def test_zero_probability_of_an_observed_level_rejected(self, toy_table, spec):
        # a level that occurs cannot have probability 0; frequent mode used to
        # flag it with sigma 0 and end in an internal error
        label = "b" if spec["b"] == 0 else "a"
        with pytest.raises(DomainError, match=f"observed level '{label}' of V1 has probability 0"):
            user_model(toy_table, {"V1": spec})
        # a level the file adds, never observed, may have probability 0
        ds, model = user_model(toy_table, {"V1": {"a": 0.5, "b": 0.5, "c": 0.0}})
        assert model.pi[0].tolist() == [0.5, 0.5, 0.0]

    def test_unknown_variable_rejected(self, toy_table):
        with pytest.raises(DomainError, match="unknown"):
            user_model(toy_table, {"nope": {"a": 1.0}})

    def test_non_numeric_probability_rejected(self, toy_table):
        with pytest.raises(DomainError, match="must be numbers"):
            user_model(toy_table, {"V1": {"a": "abc", "b": 0.5}})

    @pytest.mark.parametrize("a, b", [("0.5", "0.5"), (True, False)])
    def test_only_numbers_are_probabilities(self, toy_table, a, b):
        # numeric strings and booleans used to be converted with float()
        with pytest.raises(DomainError, match="must be numbers"):
            user_model(toy_table, {"V1": {"a": a, "b": b}})

    def test_levels_not_a_mapping_rejected(self, toy_table):
        with pytest.raises(DomainError, match="must map level labels"):
            user_model(toy_table, {"V1": [0.5, 0.5]})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="abcXY ?", min_size=1, max_size=3),
                         min_size=2, max_size=4),
                min_size=1, max_size=12))
def test_encoding_round_trip(raw):
    width = len(raw[0])
    rows = [r[:width] + ["z"] * (width - len(r)) for r in raw]
    opts = RunConfig(header=False, missing_markers=(), missing="drop")
    ds = load_dataset(rows, opts)
    decoded = [list(ds.decode_row(i)) for i in range(ds.n)]
    assert decoded == rows


def reference_load(rows, opts):
    """load_dataset row by row: every row checked, cleaned and encoded on its
    own, in input order. Returns the Dataset's fields or raises like it."""
    names, body = [str(c) for c in rows[0]], [list(r) for r in rows[1:]]
    width = len(names)
    for idx, r in enumerate(body):
        if len(r) != width:
            raise IngestionError(f"ragged table: row {idx} has {len(r)} fields, "
                                 f"expected {width}")
    keep = [j for j, nm in enumerate(names) if nm not in opts.drop_cols]
    cleaned, dropped = [], 0
    for r in body:
        vals = [r[j] for j in keep]
        if opts.missing == "drop" and any(v in opts.missing_markers for v in vals):
            dropped += 1
        else:
            cleaned.append(vals)
    if not cleaned:
        raise EmptyDatasetError("no rows left after missing-value cleaning")
    vocab = [[] for _ in keep]
    for r in cleaned:
        for j, v in enumerate(r):
            if v not in vocab[j]:
                vocab[j].append(v)
    if opts.level_order == "lexicographic":
        vocab = [sorted(v) for v in vocab]
    codes = [[vocab[j].index(v) + 1 for j, v in enumerate(r)] for r in cleaned]
    return (codes, tuple(len(v) for v in vocab), tuple(names[j] for j in keep),
            tuple(map(tuple, vocab)), dropped)


def loaded_fields(rows, opts):
    ds = load_dataset(rows, opts)
    return (ds.codes.tolist(), ds.level_counts, ds.variable_names, ds.level_labels,
            ds.dropped_rows)


class TestIngestionOfRepeatedRows:
    """load_dataset checks, cleans and encodes each distinct row once; the
    result must be the row-by-row encoding's."""

    @settings(max_examples=150, deadline=None)
    @given(patterns=st.lists(st.lists(st.sampled_from(["b", "a", "?", "", "c", "A"]),
                                      min_size=3, max_size=3),
                             min_size=1, max_size=5),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=40),
           policy=st.sampled_from(["drop", "level"]),
           order=st.sampled_from(["first", "lexicographic"]),
           drop_cols=st.sampled_from([(), ("V2",), ("V1", "V3")]))
    def test_matches_row_by_row_encoding(self, patterns, picks, policy, order,
                                         drop_cols):
        rows = [["V1", "V2", "V3"]] + [list(patterns[k % len(patterns)]) for k in picks]
        opts = RunConfig(missing=policy, level_order=order, drop_cols=drop_cols)
        try:
            want = reference_load(rows, opts)
        except EmptyDatasetError:
            with pytest.raises(EmptyDatasetError):
                load_dataset(rows, opts)
            return
        assert loaded_fields(rows, opts) == want

    def test_dropped_rows_counted_with_multiplicity(self):
        rows = [["A", "B"]] + [["a", "?"]] * 7 + [["a", "x"]] * 3 + [["", "y"]] * 2
        opts = RunConfig()
        assert loaded_fields(rows, opts) == reference_load(rows, opts)
        assert load_dataset(rows, opts).dropped_rows == 9

    @pytest.mark.parametrize("body, idx", [
        ([["a", "b"]] * 3 + [["c", "d"], ["a", "b"], ["x"], ["x"], ["y", "z", "w"]], 5),
        ([["a", "b"], ["a"], ["a", "b"], ["b"], ["a"]], 1),
        ([["a", "b"], ["a", "b"], ["c", "d", "e"], ["a", "b"]], 2),
        ([["x", "y", "z"], ["x", "y"]], 0),  # the first record is the odd one
    ])
    def test_ragged_row_after_duplicates_names_its_index(self, body, idx):
        rows = [["A", "B"]] + body
        with pytest.raises(IngestionError) as want:
            reference_load(rows, RunConfig())
        with pytest.raises(IngestionError, match=f"row {idx} has") as got:
            load_dataset(rows, RunConfig())
        assert str(got.value) == str(want.value)


def outcome(load, *args):
    """A loader's Dataset fields and row grouping, or its error."""
    try:
        ds = load(*args)
    except (IngestionError, EmptyDatasetError, csv.Error) as exc:
        return type(exc), str(exc)
    return (ds.codes.tolist(), ds.level_counts, ds.variable_names, ds.level_labels,
            ds.dropped_rows, [a.tolist() for a in (ds.rows, ds.group, ds.weight)])


def read_rows(path, opts):
    """The whole-file reading: every record parsed, blank lines skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh, delimiter=opts.delimiter) if r]
    return load_dataset(rows, opts)


def write_text(text):
    fd, path = tempfile.mkstemp(suffix=".csv")
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def assert_reads_like_whole_file(text, opts):
    path = write_text(text)
    try:
        assert outcome(read_csv, path, opts) == outcome(read_rows, path, opts)
    finally:
        os.remove(path)


PLAIN_FIELDS = ["b", "a", "?", "", "c", "A", "x y"]
# fields csv.writer quotes: they hold the delimiter, a newline or the quote
QUOTED_FIELDS = ["a,b", "two\nlines", "cr\rlf", 'say "hi"']


@st.composite
def csv_texts(draw):
    """A file of records drawn from a few patterns, so that lines repeat:
    each record ends in LF, CRLF or CR, blank lines fall between records,
    the header may recur in the body, a record may be ragged and a field may
    need quotes."""
    quoted = draw(st.booleans())
    field = st.sampled_from(PLAIN_FIELDS + (QUOTED_FIELDS if quoted else []))
    patterns = draw(st.lists(st.lists(field, min_size=3, max_size=3),
                             min_size=1, max_size=4))
    patterns.append(["V1", "V2", "V3"])
    if draw(st.integers(0, 4)) == 0:
        patterns.append(draw(st.lists(field, min_size=2, max_size=4)))  # maybe ragged
    picks = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=0, max_size=30))
    out = io.StringIO()
    for record in [["V1", "V2", "V3"]] + [patterns[k] for k in picks]:
        out.write(draw(st.sampled_from(["", "", "", "\n", "\r\n"])))  # blank lines
        csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   ).writerow(record)
    return out.getvalue()


class TestReadCsv:
    """read_csv streams records and keeps each distinct one once; it must read
    a file exactly as load_dataset reads the list of its records, blank lines
    skipped."""

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts(),
           header=st.booleans(),
           policy=st.sampled_from(["drop", "level"]),
           order=st.sampled_from(["first", "lexicographic"]),
           drop_cols=st.sampled_from([(), ("V2",), ("V1", "V3")]))
    def test_matches_whole_file_reading(self, text, header, policy, order, drop_cols):
        opts = RunConfig(header=header, missing=policy, level_order=order,
                         drop_cols=drop_cols)
        assert_reads_like_whole_file(text, opts)

    def test_line_ending_variants_are_one_row_group(self):
        path = write_text("A,B\na,b\r\nc,d\na,b\ra,b\n\nc,d")
        try:
            ds = read_csv(path)
        finally:
            os.remove(path)
        assert ds.codes.tolist() == [[1, 1], [2, 2], [1, 1], [1, 1], [2, 2]]
        assert ds.group.tolist() == [0, 1, 0, 0, 1]
        assert ds.weight.tolist() == [3, 2]

    @pytest.mark.parametrize("text", [
        'A,B\n"x\ny",b\nc,d\n"x\ny",b\n',   # a record spanning two lines
        'A,B\n"a",b\na,b\n',                  # quoted and bare, one value
        'A,B\nx,"1,2"\nx,1\n',
    ])
    def test_quoted_records(self, text):
        assert_reads_like_whole_file(text, RunConfig())

    @pytest.mark.parametrize("text, idx", [
        ("A,B\na,b\na,b\n\nc\na,b\n", 2),
        ("A,B\nx,y,z\nx,y\n", 0),  # measured against the header, not record 0
        ("A,B\r\na,b\r\na,b\na,b,c\r\nd\n", 2),
    ])
    def test_ragged_row_names_its_index(self, text, idx):
        assert_reads_like_whole_file(text, RunConfig())
        path = write_text(text)
        try:
            with pytest.raises(IngestionError,
                               match=f"ragged table: row {idx} has .* expected 2$"):
                read_csv(path)
        finally:
            os.remove(path)

    def test_nul_byte_reads_alike(self):
        assert_reads_like_whole_file("A,B\na\x00,b\na,b\na\x00,b\n", RunConfig())

    def test_oversized_field_raises_the_same_csv_error(self):
        text = "A,B\n" + "x" * (csv.field_size_limit() + 1) + ",b\n"
        path = write_text(text)
        try:
            with pytest.raises(csv.Error) as got:
                read_csv(path)
            with pytest.raises(csv.Error) as want:
                read_rows(path, RunConfig())
        finally:
            os.remove(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", ["", "\n\r\n", "A,B\n", "A,B\n\n"])
    def test_empty_files(self, text):
        assert_reads_like_whole_file(text, RunConfig())
        assert_reads_like_whole_file(text, RunConfig(header=False))


class TestRowGroups:
    def test_groups_number_rows_by_first_appearance(self):
        ds = make_dataset([[2, 1], [1, 1], [2, 1], [1, 2], [1, 1]])
        assert ds.rows.tolist() == [[2, 1], [1, 1], [1, 2]]
        assert ds.group.tolist() == [0, 1, 0, 2, 1]
        assert ds.weight.tolist() == [2, 2, 1]
        assert ds.codes.tolist() == [[2, 1], [1, 1], [2, 1], [1, 2], [1, 1]]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("ab?"), min_size=3, max_size=3),
                    min_size=1, max_size=30),
           st.sampled_from([(), ("V2",)]), st.sampled_from(["drop", "level"]))
    def test_loader_grouping_is_the_codes_grouping(self, body, drop_cols, policy):
        # rows that differ only in a dropped column, or in nothing, are one group
        opts = RunConfig(header=False, drop_cols=drop_cols, missing=policy)
        try:
            ds = load_dataset(body, opts)
        except EmptyDatasetError:
            return
        regrouped = Dataset.from_codes(ds.codes, ds.level_counts, ds.variable_names,
                                       ds.level_labels)
        for name in ("rows", "group", "weight"):
            assert np.array_equal(getattr(ds, name), getattr(regrouped, name))

    def test_replaced_codes_are_regrouped(self):
        ds = load_dataset([["a"], ["b"], ["a"]], RunConfig(header=False))
        assert ds.weight.tolist() == [2, 1]
        moved = Dataset.from_codes([[2], [2], [1]], ds.level_counts, ds.variable_names,
                                   ds.level_labels)
        assert moved.rows.tolist() == [[2], [1]]
        assert moved.group.tolist() == [0, 0, 1]
        assert moved.weight.tolist() == [2, 1]
        extended = ds.with_extended_levels([("c",)])
        assert extended.rows is ds.rows and extended.group is ds.group
        assert extended.level_counts == (3,)

    @pytest.mark.parametrize("group, message", [
        (np.array([[0, 1]]), "1-D"),
        (np.zeros(0, dtype=np.intp), "non-empty"),
        (np.array([0.0, 1.0]), "integer"),
        (np.array([0, 2, 1]), "outside 0..1"),
        (np.array([0, -1]), "outside 0..1"),
        (np.array([1, 1]), "distinct row 0 has no observation"),
    ], ids=["2-D", "empty", "float", "past-the-end", "negative", "unmapped-row"])
    def test_row_map_is_checked(self, group, message):
        # a row with no observation would reach scoring as a zero-support flag
        with pytest.raises(DomainError, match=message):
            Dataset(rows=np.array([[1], [2]]), group=group, level_counts=(2,),
                    variable_names=("X1",), level_labels=(("a", "b"),))

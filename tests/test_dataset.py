import re

import numpy as np
import pytest

from heartbn import (
    CutpointConfig,
    DataTable,
    Variable,
    clean,
    cleveland_path,
    discretize,
    load_cleveland,
    load_model,
    load_raw,
    split,
)
from heartbn.dataset import (
    MAX_STATES,
    RAW_COLUMNS,
    load_cutpoints,
    read_table_csv,
    save_cutpoints,
    write_table_csv,
)
from heartbn.errors import (
    MalformedRowError,
    NonMonotoneCutpointsError,
    SchemaMismatchError,
    UnknownCategoryError,
)

from oracles import assert_frozen

EXPECTED_CARDINALITIES = {
    "sex": 2, "cp": 4, "fbs": 2, "restecg": 3, "exang": 2, "slope": 3,
    "ca": 4, "thal": 3, "target": 2, "ageC": 3, "trestbpsC": 3, "cholC": 3,
    "thalachC": 2, "oldpeakC": 2,
}


def make_row(**overrides) -> tuple[str, ...]:
    base = {
        "age": "54.0", "sex": "1.0", "cp": "3.0", "trestbps": "130.0",
        "chol": "250.0", "fbs": "0.0", "restecg": "2.0", "thalach": "160.0",
        "exang": "0.0", "oldpeak": "1.0", "slope": "2.0", "ca": "0.0",
        "thal": "3.0", "target": "0",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    return tuple(base[c] for c in RAW_COLUMNS)


def column(cleaned: np.ndarray, name: str) -> np.ndarray:
    """One column of a cleaned array, by raw column name."""
    return cleaned[:, RAW_COLUMNS.index(name)]


class TestLoadRaw:
    def test_bundled_file_has_303_rows(self):
        assert len(load_cleveland()) == 303

    def test_short_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("1,2,3\n")
        with pytest.raises(MalformedRowError) as err:
            load_raw(path)
        assert err.value.line_number == 1

    def test_empty_file_gives_zero_rows(self, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("")
        assert len(load_raw(path)) == 0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_raw(tmp_path / "nope.data")


class TestClean:
    def test_drops_rows_with_missing_cells(self):
        raw = load_cleveland()
        # independent count of the rows the cleaner should drop
        with_missing = sum(1 for row in raw if "?" in row)
        assert with_missing == 6
        assert len(clean(raw)) == len(raw) - with_missing == 297

    def test_idempotent(self):
        table = clean(load_cleveland())
        assert clean(table) is table

    @pytest.mark.parametrize("grade", [1, 2, 3, 4])
    def test_diagnosis_grades_collapse_to_one(self, grade):
        table = clean((make_row(target=grade),))
        assert column(table, "target")[0] == 1.0

    def test_recoding(self):
        table = clean((make_row(cp="1.0", slope="3.0", thal="6.0", ca="2.0"),))
        assert column(table, "cp")[0] == 0.0
        assert column(table, "slope")[0] == 2.0
        assert column(table, "thal")[0] == 1.0
        assert column(table, "ca")[0] == 2.0

    def test_unknown_category_rejected(self):
        with pytest.raises(UnknownCategoryError):
            clean((make_row(cp="7.0"),))

    def test_fractional_category_code_rejected(self):
        with pytest.raises(UnknownCategoryError):
            clean((make_row(cp="1.5"),))

    def test_unparseable_cell_rejected(self):
        with pytest.raises(UnknownCategoryError):
            clean((make_row(thal="abc"),))

    @pytest.mark.parametrize(
        "col, cell",
        [("cp", "inf"), ("cp", "nan"), ("thal", "-inf"), ("age", "nan"), ("age", "inf"),
         ("thalach", "nan"), ("oldpeak", "-Infinity")],
    )
    def test_non_finite_cell_names_row_and_column(self, col, cell):
        # categorical infinities used to overflow int(), NaN gave a bare
        # ValueError, and a non-finite measurement was silently binned
        with pytest.raises(UnknownCategoryError, match=f"row 2: '{cell}' in column '{col}'"):
            clean((make_row(), make_row(**{col: cell})))

    def test_returns_read_only_array_in_raw_column_order(self):
        table = clean((make_row(), make_row(age="41.0", cp="2.0", target="3")))
        assert table.dtype == np.float64 and table.shape == (2, len(RAW_COLUMNS))
        assert_frozen(table, "clean")
        assert table[1].tolist() == [
            41.0, 1.0, 1.0, 130.0, 250.0, 0.0, 2.0, 160.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0,
        ]


class TestDiscretize:
    def test_value_below_first_threshold(self):
        table = discretize(clean((make_row(chol="150.0"),)))
        assert table.column("cholC")[0] == 0

    def test_bundled_bin_counts(self, heart_table):
        assert np.bincount(heart_table.column("cholC")).tolist() == [49, 97, 151]
        assert np.bincount(heart_table.column("ageC")).tolist() == [61, 195, 41]
        assert int(heart_table.column("oldpeakC").sum()) == 50
        assert np.bincount(heart_table.column("thalachC")).tolist() == [113, 184]
        assert np.bincount(heart_table.column("trestbpsC")).tolist() == [97, 134, 66]

    def test_thalach_bins_on_age_adjusted_value(self):
        rows = (make_row(age="50.0", thalach="150.0"), make_row(age="50.0", thalach="151.0"))
        table = discretize(clean(rows))
        assert table.column("thalachC").tolist() == [0, 1]

    def test_preserves_row_count_and_order(self, heart_table):
        raw = load_cleveland()
        cleaned = clean(raw)
        assert heart_table.n_rows == len(cleaned)
        assert np.array_equal(heart_table.column("sex"), column(cleaned, "sex").astype(int))

    def test_cardinalities_match_published_tables(self, heart_table):
        for var in heart_table.schema:
            assert var.cardinality == EXPECTED_CARDINALITIES[var.name]

    def test_custom_cutpoints(self):
        cfg = CutpointConfig(chol=(100.0, 251.0))
        table = discretize(clean((make_row(chol="250.0"),)), cfg)
        assert table.column("cholC")[0] == 1

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneCutpointsError):
            CutpointConfig(age=(64.0, 45.0))

    def test_wrong_threshold_count_rejected(self):
        with pytest.raises(NonMonotoneCutpointsError):
            CutpointConfig(oldpeak=(1.0, 2.0))

    @pytest.mark.parametrize(
        "cuts",
        [{"age": (float("nan"), 60.0)}, {"chol": (200.0, float("inf"))},
         {"oldpeak": (float("-inf"),)}, {"age": (None, 3.0)}, {"age": ("45", 60.0)},
         {"thalach": (True,)}],
        ids=repr,
    )
    def test_non_finite_or_non_numeric_threshold_rejected(self, cuts):
        # NaN compares false, so (nan, 60) used to pass the increasing check
        with pytest.raises(NonMonotoneCutpointsError, match="finite numbers"):
            CutpointConfig(**cuts)

    @pytest.mark.parametrize(
        "table",
        [np.zeros((3, 13)), np.zeros(14), np.zeros((2, 14, 1)), [[0.0] * 14], "heart"],
        ids=["13 columns", "1-D", "3-D", "list", "DataTable"],
    )
    def test_anything_but_a_14_column_array_rejected(self, table, heart_table):
        # a 13-column array would otherwise be cut short by zip(RAW_COLUMNS, ...)
        with pytest.raises(TypeError, match="cleaned"):
            discretize(heart_table if isinstance(table, str) else table)


class TestSplit:
    def test_published_split_sizes(self, heart_table):
        train, test = split(heart_table, 0.8, seed=0)
        assert (train.n_rows, test.n_rows) == (237, 60)

    def test_same_seed_same_partition(self, heart_table):
        first = split(heart_table, 0.8, seed=5)
        second = split(heart_table, 0.8, seed=5)
        assert np.array_equal(first[0].rows, second[0].rows)
        assert np.array_equal(first[1].rows, second[1].rows)

    def test_half_split_of_ten(self):
        schema = (Variable("x", "01"),)
        table = DataTable(schema, np.arange(10, dtype=np.int64).reshape(10, 1) % 2)
        train, test = split(table, 0.5, seed=1)
        assert (train.n_rows, test.n_rows) == (5, 5)

    def test_partition_is_exact_and_disjoint(self, heart_table):
        train, test = split(heart_table, 0.8, seed=3)
        combined = np.concatenate([train.rows, test.rows])
        assert combined.shape == heart_table.rows.shape
        assert np.array_equal(
            np.sort(combined, axis=0), np.sort(np.asarray(heart_table.rows), axis=0)
        )

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 2.0])
    def test_ratio_bounds(self, heart_table, ratio):
        with pytest.raises(ValueError):
            split(heart_table, ratio, seed=0)


class TestDataTable:
    @pytest.mark.parametrize(
        "names, repeated", [("aba", "['a']"), ("abcba", "['a', 'b']"), ("aa", "['a']")]
    )
    def test_repeated_names_rejected(self, names, repeated):
        schema = tuple(Variable(name, "01") for name in names)
        with pytest.raises(SchemaMismatchError) as err:
            DataTable(schema, np.zeros((2, len(names)), dtype=np.int64))
        assert str(err.value) == f"column names must be distinct, not {repeated}"

    @pytest.mark.parametrize(
        "shape", [(4,), (2, 2, 2), (2, 3)], ids=["1-D", "3-D", "three-columns"]
    )
    def test_rows_must_be_2d_with_one_column_per_variable(self, shape):
        schema = (Variable("a", "01"), Variable("b", "01"))
        with pytest.raises(ValueError) as err:
            DataTable(schema, np.zeros(shape, dtype=np.int64))
        assert str(err.value) == "rows must be a 2-D array with one column per variable"

    def test_unknown_name_rejected(self):
        table = DataTable((Variable("a", "01"), Variable("b", "012")), np.array([[0, 2], [1, 0]]))
        assert table.index("b") == 1
        with pytest.raises(SchemaMismatchError):
            table.index("c")

    @pytest.mark.parametrize(
        "rows, named",
        [([[0, 3, -1], [1, 0, 0]], "b"), ([[0, 0, 2], [-1, 3, 0]], "a"), ([[0, 0, 2]], None)],
    )
    def test_range_error_names_first_bad_column(self, rows, named):
        # a and b both break their ranges in the first two cases
        schema = (Variable("a", "01"), Variable("b", "012"), Variable("c", "012"))
        if named is None:
            table = DataTable(schema, np.array(rows))
            assert table.cards.tolist() == [2, 3, 3]
            assert_frozen(table.cards, "cards")
        else:
            with pytest.raises(ValueError, match=f"column '{named}' has state indices"):
                DataTable(schema, np.array(rows))

    @pytest.mark.parametrize(
        "rows",
        [[[0.5]], np.array([[1.7]]), [["1"]], [[True]], [[np.nan]], [[None]]],
        ids=["half", "1.7", "text", "bool", "nan", "none"],
    )
    def test_cells_must_be_whole_state_indices(self, rows):
        # a cast to int64 would read 0.5 as state 0, and 1.7 and "1" as state 1
        with pytest.raises(ValueError, match="rows must hold whole-number state indices"):
            DataTable((Variable("a", "012"),), rows)

    @pytest.mark.parametrize(
        "rows", [[[2], [0]], np.array([[2], [0]], dtype=np.uint8), np.array([[2.0], [-0.0]])]
    )
    def test_integers_and_whole_floats_accepted(self, rows):
        table = DataTable((Variable("a", "012"),), rows)
        assert table.rows.dtype == np.int64
        assert table.column("a").tolist() == [2, 0]

    @pytest.mark.parametrize(
        "indices", [[0.7], [True, False], ["1"], [-1], np.array([2, -3])],
        ids=["float", "bool", "text", "negative", "negative-array"],
    )
    def test_take_refuses_anything_but_non_negative_integer_rows(self, indices):
        # a cast to int read 0.7 as row 0, [True, False] as rows 1 and 0 and
        # "1" as row 1; -1 wrapped to the last row
        table = DataTable((Variable("a", "012"),), [[0], [1], [2]])
        with pytest.raises(ValueError, match="row indices must be non-negative integers"):
            table.take(indices)
        assert table.take([]).n_rows == 0
        assert table.take(np.array([2, 0], dtype=np.uint8)).column("a").tolist() == [2, 0]

    def test_rows_column_major_and_read_only(self, tmp_path):
        # the counting kernels gather whole columns, so every way of making
        # a table must store it column by column
        schema = (Variable("a", "01"), Variable("b", "012"), Variable("c", "01"))
        built = DataTable(schema, np.array([[0, 2, 1], [1, 0, 0], [1, 1, 1]]))
        heart = discretize(clean(load_cleveland()))
        write_table_csv(heart, tmp_path / "heart.csv")
        tables = {
            "constructor": built,
            "take": heart.take([5, 0, 9]),
            "split": split(heart, 0.8, 3)[0],
            "discretize": heart,
            "read_table_csv": read_table_csv(tmp_path / "heart.csv"),
        }
        for how, table in tables.items():
            rows = table.rows
            assert rows.flags.f_contiguous and not rows.flags.c_contiguous, how
            assert_frozen(rows, how)
            assert_frozen(table.cards, how)
            with pytest.raises(ValueError):
                rows[0, 0] = 0


class TestCsvRoundTrip:
    def test_round_trip(self, heart_table, tmp_path):
        path = tmp_path / "table.csv"
        write_table_csv(heart_table, path)
        loaded = read_table_csv(path)
        assert loaded.names == heart_table.names
        assert np.array_equal(loaded.rows, heart_table.rows)
        assert [v.cardinality for v in loaded.schema] == [
            v.cardinality for v in heart_table.schema
        ]

    @pytest.mark.parametrize(
        "text", ["", "\n", "  \n0,1\n"], ids=["empty", "newline", "blank-header"]
    )
    def test_empty_file_names_itself(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(SchemaMismatchError) as err:
            read_table_csv(path)
        assert str(err.value) == f"{path}: empty table file"

    @pytest.mark.parametrize("header, repeated", [("a,b,a", "['a']"), ("thal,cp,thal", "['thal']")])
    def test_repeated_header_name_rejected(self, tmp_path, header, repeated):
        # a header of heart names reads through the heart schema, any other
        # infers its states; both reach the one distinct-names rule
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n1,0,1\n")
        with pytest.raises(SchemaMismatchError, match=re.escape(f"distinct, not {repeated}")):
            read_table_csv(path)

    @pytest.mark.parametrize("header, column, name", [("a, b", 2, "' b'"), ("a ,b", 1, "'a '")])
    def test_header_name_with_surrounding_space_rejected(self, tmp_path, header, column, name):
        # the header "a, b" used to read as a column named " b", which no
        # evidence "b=..." could then name
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n1,0\n")
        with pytest.raises(MalformedRowError) as err:
            read_table_csv(path)
        assert err.value.line_number == 1
        message = f"column {column}: header name {name} has surrounding space"
        assert str(err.value) == f"{path}: line 1, {message}"

    @pytest.mark.parametrize("header, column", [("a,,b", 2), ("a,b,", 3), (",a", 1)])
    def test_empty_header_name_rejected(self, tmp_path, header, column):
        # an empty name used to reach Variable, whose error named no file,
        # line or column
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{','.join('1' * len(header.split(',')))}\n")
        with pytest.raises(MalformedRowError) as err:
            read_table_csv(path)
        assert err.value.line_number == 1
        assert str(err.value) == f"{path}: line 1, column {column}: empty header name"

    @pytest.mark.parametrize("header", ["a,b", "thal,cp"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        # a UTF-8 byte-order mark used to become part of the first name, so a
        # heart header no longer matched the heart schema
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n1,0\n", encoding="utf-8")
        expected = read_table_csv(path)
        path.write_text(f"{header}\n1,0\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        loaded = read_table_csv(path)
        assert loaded.names == tuple(header.split(","))
        assert loaded.schema == expected.schema
        assert np.array_equal(loaded.rows, expected.rows)

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\n"])
    def test_header_without_data_rows_rejected(self, tmp_path, text):
        # such a file used to read as a zero-row table, which the fits turn
        # into uniform CPTs; an in-memory zero-row table stays legal
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(SchemaMismatchError) as err:
            read_table_csv(path)
        assert str(err.value) == f"{path}: a header and no data rows"

    def test_inferred_states_stop_below_the_bound(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(f"a,b\n0,{MAX_STATES - 1}\n1,0\n")
        assert [v.cardinality for v in read_table_csv(path).schema] == [2, MAX_STATES]

    @pytest.mark.parametrize(
        "bad_line, line_number, message",
        [
            ("0,1", 3, "column 3: 2 cells for 3 columns"),
            ("0,1,1,0", 3, "column 4: 4 cells for 3 columns"),
            ("0,x,1", 3, "column 2: 'x' is not a state index (digits 0-9)"),
            ("0,1_0,1", 3, "column 2: '1_0' is not a state index (digits 0-9)"),
            ("0,1,-1", 3, "column 3: '-1' is not a state index (digits 0-9)"),
            ("+1,0,1", 3, "column 1: '+1' is not a state index (digits 0-9)"),
            ("0,\u0661,1", 3, "column 2: '\u0661' is not a state index (digits 0-9)"),
            ("0, 1,1", 3, "column 2: ' 1' is not a state index (digits 0-9)"),
            ("0,100000,1", 3, "column 2: state index 100000 is not below 1000"),
            ("0,1,1000", 3, "column 3: state index 1000 is not below 1000"),
            ("0001000,0,1", 3, "column 1: state index 0001000 is not below 1000"),
        ],
    )
    def test_malformed_row_names_file_line_and_column(self, tmp_path, bad_line, line_number, message):
        # these used to raise NumPy's "inhomogeneous shape" error or a bare
        # int() error that named neither line nor column; int() also read
        # '1_0' as state 10, '+1', ' 1' and the Arabic-Indic digit one as
        # state 1, and '-1' failed later in DataTable without a line
        path = tmp_path / "table.csv"
        path.write_text(f"a,b,c\n1,0,1\n{bad_line}\n0,0,0\n")
        with pytest.raises(MalformedRowError) as err:
            read_table_csv(path)
        assert err.value.line_number == line_number
        assert str(err.value) == f"{path}: line {line_number}, {message}"


    @pytest.mark.parametrize(
        "text, line_number, message",
        [
            ("sex,target\n0,1\n5,1\n", 3, "column 1: state index 5 is not below 2"),
            ("target,thal\n0,2\n1,3\n", 3, "column 2: state index 3 is not below 3"),
            ("cp\n4\n", 2, "column 1: state index 4 is not below 4"),
        ],
    )
    def test_heart_cell_beyond_its_states_names_file_line_and_column(
        self, tmp_path, text, line_number, message
    ):
        # a header of heart columns takes their states; such a cell used to
        # pass the reader, and DataTable refused it naming no file or line
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(MalformedRowError) as err:
            read_table_csv(path)
        assert str(err.value) == f"{path}: line {line_number}, {message}"

    def test_cell_past_the_int_digit_limit_names_file_line_and_column(self, tmp_path):
        # int() used to refuse a cell of more than 4,300 digits first, with
        # Python's own message, which names no file, line or column
        path = tmp_path / "table.csv"
        path.write_text(f"a,b\n0,{'9' * 5000}\n")
        with pytest.raises(MalformedRowError) as err:
            read_table_csv(path)
        assert str(err.value) == f"{path}: line 2, column 2: state index {'9' * 5000} is not below 1000"

    def test_leading_zeros_do_not_count_toward_the_int_digit_limit(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(f"a,b\n0,{'0' * 4999}1\n1,0\n")
        assert read_table_csv(path).rows.tolist() == [[0, 1], [1, 0]]


class TestCutpointsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cuts.json"
        cfg = CutpointConfig(age=(40.0, 60.0), oldpeak=(1.5,))
        save_cutpoints(cfg, path)
        loaded = load_cutpoints(path)
        assert loaded == cfg

    def test_unknown_attribute_rejected(self, tmp_path):
        path = tmp_path / "cuts.json"
        path.write_text('{"bogus": [1.0]}')
        with pytest.raises(NonMonotoneCutpointsError):
            load_cutpoints(path)

    @pytest.mark.parametrize(
        "text", ['{"age": 50}', "5", "[]", '{"age": [null, 3]}', '{"age": [NaN, 60]}']
    )
    def test_malformed_document_rejected(self, tmp_path, text):
        path = tmp_path / "cuts.json"
        path.write_text(text)
        with pytest.raises(NonMonotoneCutpointsError):
            load_cutpoints(path)


@pytest.mark.parametrize(
    "reader, content",
    [
        (load_raw, ",".join(make_row()).encode() + b"\n\xff\n"),
        (read_table_csv, b"a,b\n0,1\n\xff,0\n"),
        (load_cutpoints, b'{"age": [45.0, \xff]}'),
        (load_cutpoints, b'{"age": [45.0, 64.0]'),
        (load_model, b'{"format_version": 1, "nodes": [\xff]}'),
        (load_model, b'{"format_version": 1, "nodes": ['),
    ],
    ids=["load_raw-byte", "read_table_csv-byte", "load_cutpoints-byte", "load_cutpoints-truncated",
         "load_model-byte", "load_model-truncated"],
)
def test_unreadable_file_error_names_the_file(tmp_path, reader, content):
    # a byte that is not UTF-8 or a JSON syntax error used to surface as the
    # codec's or the json module's message alone, without the path
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}: ")


def test_bundled_path_exists():
    assert cleveland_path().exists()

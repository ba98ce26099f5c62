import ast
import csv
import os
import pathlib
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeseg import data as data_module
from treeseg.data import (ColumnSpec, DataError, Dataset, IngestionReport, Scaler, _integer,
                          _parse_float, _real, ingest, load_csv, read_json, recipe_from_doc,
                          train_test_split)


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class TestColumnSpec:
    def test_valid_kinds(self):
        ColumnSpec("a")
        ColumnSpec("b", kind="categorical")
        ColumnSpec("c", kind="target", transform="log")

    def test_rejects_unknown_kind_and_transform(self):
        with pytest.raises(DataError):
            ColumnSpec("a", kind="text")
        with pytest.raises(DataError):
            ColumnSpec("a", transform="sqrt")

    def test_rejects_log_on_categorical(self):
        with pytest.raises(DataError):
            ColumnSpec("a", kind="categorical", transform="log")


class TestDataset:
    def test_validation(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(2), ("a", "b"))
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan, 1.0]]), np.zeros(1), ("a", "b"))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([1.0, np.inf]), ("a", "b"))

    def test_arrays_read_only(self):
        data = Dataset(np.zeros((2, 1)), np.zeros(2), ("a",))
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0

    def test_take(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0), ("a", "b"))
        sub = data.take(np.array([2, 0]))
        assert sub.n_rows == 2
        assert sub.response.tolist() == [2.0, 0.0]
        assert sub.feature_names == data.feature_names


class TestIngestion:
    def test_basic_load(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x,y,target\n1,2,3\n4,5,6\n")
        specs = [ColumnSpec("x"), ColumnSpec("y"), ColumnSpec("target", kind="target")]
        data, report = load_csv(path, specs)
        assert data.n_rows == 2 and data.n_features == 2
        assert data.response.tolist() == [3.0, 6.0]
        assert report.rows_dropped == 0

    def test_column_order_follows_specs_not_file(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "b,a,target\n10,1,0\n20,2,0\n")
        specs = [ColumnSpec("a"), ColumnSpec("b"), ColumnSpec("target", kind="target")]
        data, _ = load_csv(path, specs)
        assert data.feature_names == ("a", "b")
        assert data.features[0].tolist() == [1.0, 10.0]

    def test_missing_and_bad_rows_dropped_and_counted(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x,target\n1,1\n,2\nabc,3\n4,4\n5,\n")
        data, report = load_csv(path, [ColumnSpec("x"), ColumnSpec("target", kind="target")])
        assert data.n_rows == 2
        assert report.rows_read == 5
        assert report.rows_dropped == 3
        assert "rows_dropped: 3" in report.to_text()

    def test_missing_column_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x,target\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(path, [ColumnSpec("nope"), ColumnSpec("target", kind="target")])

    def test_duplicated_read_column_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x,x,y\n1,100,5\n2,200,6\n")
        with pytest.raises(DataError, match="'x' appears twice"):
            load_csv(path, [ColumnSpec("x"), ColumnSpec("y", kind="target")])

    def test_duplicated_unread_column_still_loads(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "note,x,note,y\na,1,b,5\nc,2,d,6\n")
        data, report = load_csv(path, [ColumnSpec("x"), ColumnSpec("y", kind="target")])
        assert data.features.ravel().tolist() == [1.0, 2.0]
        assert data.response.tolist() == [5.0, 6.0]
        assert report.header == ["note", "x", "note", "y"]

    def test_categorical_one_hot_sorted_levels(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "color,target\nred,1\nblue,2\ngreen,3\nred,4\n")
        specs = [ColumnSpec("color", kind="categorical"), ColumnSpec("target", kind="target")]
        data, report = load_csv(path, specs)
        assert data.feature_names == ("color=blue", "color=green", "color=red")
        assert data.features[0].tolist() == [0.0, 0.0, 1.0]
        assert report.encodings["color"] == ("blue", "green", "red")
        assert recipe_from_doc(report.recipe()) == (specs, {"color": ("blue", "green", "red")})

    def test_known_levels_and_unseen_category(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "color\nred\npurple\n")
        feats, resp, names, report = ingest(path, [ColumnSpec("color", kind="categorical")],
                                            levels={"color": ("blue", "red")})
        assert resp is None
        assert names == ["color=blue", "color=red"]
        assert feats.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert report.unseen_category_rows == 1

    def test_log_transform(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x,target\n1,10\n2,100\n")
        specs = [ColumnSpec("x"), ColumnSpec("target", kind="target", transform="log")]
        data, _ = load_csv(path, specs)
        assert data.response.tolist() == pytest.approx([np.log(10), np.log(100)])

    def test_log_transform_requires_positive(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x,target\n-1,1\n2,2\n")
        specs = [ColumnSpec("x", transform="log"), ColumnSpec("target", kind="target")]
        with pytest.raises(DataError, match="strictly positive"):
            load_csv(path, specs)

    def test_load_csv_needs_a_target(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x\n1\n")
        with pytest.raises(DataError, match="exactly one target column required, got 0"):
            load_csv(path, [ColumnSpec("x")])
        with pytest.raises(DataError, match="at most one target column allowed, got 2"):
            ingest(path, [ColumnSpec("x", kind="target"), ColumnSpec("y", kind="target")])

    def test_kept_raw_rows_align_with_features(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, 'x,note,y\n1,"a, b",2\n\nbad,c,3\n4,,5\n')
        specs = [ColumnSpec("x"), ColumnSpec("y", kind="target")]
        feats, resp, _, report = ingest(path, specs, keep_rows=True)
        assert report.header == ["x", "note", "y"]
        assert report.rows == [["1", "a, b", "2"], ["4", "", "5"]]
        assert feats.ravel().tolist() == [1.0, 4.0] and resp.tolist() == [2.0, 5.0]
        assert report.rows_dropped == 1
        # Without a target spec a scoring input still ingests.
        write_text(path, "x\n1\n")
        feats, resp, _, report = ingest(path, specs[:1])
        assert resp is None and feats.tolist() == [[1.0]] and report.rows is None

    def test_no_column_left_to_read(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x\n1\n")
        with pytest.raises(DataError, match="no columns to read"):
            ingest(path, [])

    def test_default_schema_matches_declared_specs(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "a, b ,y\n1,2.5,3\n4,,6\n-1e3,0x1,7\n7,8,9\n")
        specs = [ColumnSpec("a"), ColumnSpec("b"), ColumnSpec("y", kind="target")]
        data, report = load_csv(path, None)
        want, want_report = load_csv(path, specs)
        assert data.feature_names == want.feature_names == ("a", "b")
        assert data.features.tobytes() == want.features.tobytes()
        assert data.response.tobytes() == want.response.tobytes()
        assert report.columns == specs
        assert report.recipe() == want_report.recipe() == {
            "columns": [{"name": "a", "kind": "numeric", "transform": "none"},
                        {"name": "b", "kind": "numeric", "transform": "none"},
                        {"name": "y", "kind": "target", "transform": "none"}],
            "levels": {}}

    def test_default_schema_needs_two_columns(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "y\n1\n")
        with pytest.raises(DataError, match="needs at least one feature column and a target"):
            load_csv(path, None)

    def test_write_read_round_trip_bit_exact(self, tmp_path, rng):
        X = rng.normal(size=(50, 3)) * 1e3
        y = rng.normal(size=50) / 7.0
        path = str(tmp_path / "rt.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c", "target"])
            writer.writerows([repr(float(v)) for v in row] for row in np.column_stack([X, y]))
        back, _ = load_csv(path, [ColumnSpec("a"), ColumnSpec("b"), ColumnSpec("c"),
                                  ColumnSpec("target", kind="target")])
        assert np.array_equal(back.features, X)
        assert np.array_equal(back.response, y)


def reference_read_rows(path, specs, keep_rows):
    """The per-row reader that the block-wise, column-at-a-time reader
    replaced: one `_parse_float` call per cell, stopping at a row's first
    bad cell. Returns what `data._read_rows` returns."""
    report = IngestionReport(path=path, rows=[] if keep_rows else None)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        header = report.header = [h.strip() for h in header]
        if specs is None:
            specs = [*map(ColumnSpec, header[:-1]), ColumnSpec(header[-1], kind="target")]
        report.columns = specs
        col_idx = {}
        for spec in specs:
            if spec.name not in header:
                raise DataError(f"column {spec.name!r} not found in header of {path}")
            col_idx[spec.name] = header.index(spec.name)
        rows = []
        max_idx = max(col_idx.values())
        for raw in reader:
            if not raw or (len(raw) == 1 and raw[0].strip() == ""):
                continue
            report.rows_read += 1
            if len(raw) <= max_idx:
                report.rows_dropped += 1
                continue
            values = []
            ok = True
            for spec in specs:
                cell = raw[col_idx[spec.name]].strip()
                if spec.kind == "categorical":
                    if cell == "":
                        ok = False
                        break
                    values.append(cell)
                else:
                    v = _parse_float(cell)
                    if v is None:
                        ok = False
                        break
                    values.append(v)
            if ok:
                rows.append(values)
                if keep_rows:
                    report.rows.append(raw)
            else:
                report.rows_dropped += 1
    columns = {}
    for i, spec in enumerate(specs):
        cells = [r[i] for r in rows]
        columns[spec.name] = cells if spec.kind == "categorical" else np.asarray(cells, dtype=np.float64)
    report.n_rows = len(rows)
    return columns, report


# Cells on which a float parser can disagree with Python's `float`, plus
# plain numbers and category names. csv.writer quotes the ones with commas.
_CELLS = ["1_0", " 2.5 ", "nan", "-inf", "1e400", "1e-400", "-0", "0x10", "\u0661\u0662", "",
          "+.5", "3", "-1.25", " 7 ", "red", "a, b", '"q"', "1,5"]
_HEADER = ["a", "b", "c", "y"]


@st.composite
def csv_cases(draw):
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["row", "row", "row", "short", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            width = draw(st.integers(0, 3)) if kind == "short" else draw(st.integers(4, 5))
            lines.append(draw(st.lists(st.sampled_from(_CELLS), min_size=width, max_size=width)))
    b_kind = draw(st.sampled_from(["numeric", "categorical"]))
    specs = [ColumnSpec("a", transform=draw(st.sampled_from(["none", "log"]))),
             ColumnSpec("b", kind=b_kind)]
    if draw(st.booleans()):
        specs.append(ColumnSpec("c", kind="categorical"))
    if draw(st.booleans()):
        specs.append(ColumnSpec("y", kind="target"))
    specs = draw(st.permutations(specs))
    levels = None
    if draw(st.booleans()):
        levels = {s.name: tuple(draw(st.lists(st.sampled_from(_CELLS[:12] + ["red"]), unique=True,
                                              max_size=4)))
                  for s in specs if s.kind == "categorical" and draw(st.booleans())}
    if draw(st.integers(0, 7)) == 0:
        specs = None  # the default schema: every column numeric, the last the target
    return lines, specs, levels, draw(st.booleans()), draw(st.integers(1, 3))


def write_lines(path, lines):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for line in lines:
            if isinstance(line, str):
                fh.write(line + "\r\n")
            else:
                writer.writerow(line)


def ingest_or_error(*args, **kwargs):
    try:
        return ingest(*args, **kwargs)
    except DataError as exc:
        return str(exc)


class TestReaderParity:
    """The block-wise reader gives the per-row reader's arrays, counts and
    kept rows, bit for bit, wherever the block boundaries fall."""

    @settings(max_examples=300, deadline=None)
    @given(csv_cases())
    def test_matches_per_row_reader(self, case):
        lines, specs, levels, keep_rows, block_rows = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_lines(path, lines)
            kwargs = dict(levels=levels, keep_rows=keep_rows)
            with mock.patch.object(data_module, "_BLOCK_ROWS", block_rows):
                got = ingest_or_error(path, specs, **kwargs)
            with mock.patch.object(data_module, "_read_rows", reference_read_rows):
                want = ingest_or_error(path, specs, **kwargs)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        (feats, resp, names, report), (ref_feats, ref_resp, ref_names, ref) = got, want
        assert feats.shape == ref_feats.shape and feats.tobytes() == ref_feats.tobytes()
        assert (resp is None) == (ref_resp is None)
        if resp is not None:
            assert resp.dtype == np.float64 and resp.tobytes() == ref_resp.tobytes()
        assert names == ref_names
        assert (report.rows_read, report.rows_dropped, report.unseen_category_rows,
                report.n_rows, report.encodings, report.header, report.columns, report.rows) == \
            (ref.rows_read, ref.rows_dropped, ref.unseen_category_rows, ref.n_rows,
             ref.encodings, ref.header, ref.columns, ref.rows)

    def test_block_boundaries_and_float_rule(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x,y\n1_0,1\n0x10,2\n\n\u0661\u0662,3\n-0,4\n1e400,5\n 2.5 ,6\n")
        for block_rows in (1, 2, 4096):
            with mock.patch.object(data_module, "_BLOCK_ROWS", block_rows):
                feats, resp, _, report = ingest(path, [ColumnSpec("x"), ColumnSpec("y", kind="target")])
            assert feats.ravel().tolist() == [10.0, 12.0, -0.0, 2.5]
            assert np.signbit(feats[2, 0]) and resp.tolist() == [1.0, 3.0, 4.0, 6.0]
            assert (report.rows_read, report.rows_dropped) == (6, 2)


def test_load_csv_peak_memory_below_per_row_reader(tmp_path, rng):
    """Blocks keep only one block's cell strings alive at a time: the
    traced peak of `load_csv` on a 20000 x 9 file stays below that of the
    per-row reader, which holds every row's values at once."""
    path = str(tmp_path / "big.csv")
    table = rng.normal(size=(20000, 9)) * 1e3
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(8)] + ["target"])
        writer.writerows([repr(float(v)) for v in row] for row in table)
    specs = [ColumnSpec(f"c{j}") for j in range(8)] + [ColumnSpec("target", kind="target")]

    def traced_peak():
        tracemalloc.start()
        try:
            load_csv(path, specs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = traced_peak()
    with mock.patch.object(data_module, "_read_rows", reference_read_rows):
        reference_peak = traced_peak()
    assert peak < reference_peak


BOM = b"\xef\xbb\xbf"


class TestFileDecoding:
    """Every file is read as UTF-8 with a leading byte-order mark skipped.
    Content that is not UTF-8, not CSV or not a JSON object raises
    DataError; a file that cannot be opened raises OSError."""

    def test_csv_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"a,b,y\n1,2,3\n4,5,6\n")
        marked.write_bytes(BOM + plain.read_bytes())
        for specs in (None, [ColumnSpec("a"), ColumnSpec("b"), ColumnSpec("y", kind="target")]):
            got, report = load_csv(str(marked), specs)
            want, _ = load_csv(str(plain), specs)
            assert got.feature_names == ("a", "b") and report.header == ["a", "b", "y"]
            assert np.array_equal(got.features, want.features)
            assert np.array_equal(got.response, want.response)

    @pytest.mark.parametrize("content,message", [
        (b"a,y\n1,\xff2\n", "is not UTF-8 text"),
        (b"\xffa,y\n1,2\n", "is not UTF-8 text"),
        (b"a,y\n1,2\n3," + b"4" * 131073 + b"\n", "line 3: not valid CSV"),
        (b'a,"y' + b"z" * 131073 + b'"\n1,2\n', "line 1: not valid CSV"),
    ], ids=["cell-not-utf8", "header-not-utf8", "cell-over-csv-limit", "header-over-csv-limit"])
    def test_undecodable_csv_raises_data_error(self, tmp_path, content, message):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message):
            load_csv(str(path), None)

    def test_json_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(BOM + b'{"a": [1, 2]}')
        assert read_json(str(path)) == {"a": [1, 2]}

    @pytest.mark.parametrize("content,message", [
        (b'{"a": "\xff"}', "not a UTF-8 JSON document"),
        (b'{"a": 1', "not a UTF-8 JSON document"),
        (b"[" * 200000 + b"]" * 200000, "not a UTF-8 JSON document"),
        (b'{"a": ' + b"1" * 5000 + b"}", "not a UTF-8 JSON document"),
        (b"[1, 2]", "must hold a JSON object"),
    ], ids=["not-utf8", "not-json", "nested-200000-deep", "integer-5000-digits", "a-list"])
    def test_undecodable_json_raises_data_error(self, tmp_path, content, message):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message):
            read_json(str(path))

    def test_unopenable_file_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(str(tmp_path / "absent.json"))
        with pytest.raises(FileNotFoundError):
            load_csv(str(tmp_path / "absent.csv"), None)


# Pieces of malformed CSV: a byte-order mark, bytes that are not UTF-8, NUL
# bytes, stray quotes, ragged rows and a cell over the csv module's limit.
_CSV_PIECES = [BOM, b"\xff", b"\xc3", b"\x00", b'"', b",", b"\n", b"\r", b"1.5", b" x",
               b"a,b,y\n", b"1,2\n", b"1,2,3\n", b"1,2,3,4\n", b'"1\n2",3,4\n',
               b"9" * 131073]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_CSV_PIECES) | st.binary(max_size=6), max_size=12))
def test_arbitrary_bytes_load_or_raise_data_error(pieces):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(b"".join(pieces))
        try:
            data, report = load_csv(path, None)
        except DataError:
            return
    assert data.n_rows == report.n_rows and data.n_features == len(report.header) - 1


class TestSplit:
    def test_partition_and_count(self, rng):
        data = Dataset(rng.normal(size=(100, 2)), rng.normal(size=100), ("a", "b"))
        split = train_test_split(data, 0.7, seed=4)
        assert split.train.n_rows == 70 and split.test.n_rows == 30
        merged = np.sort(np.concatenate([split.train.response, split.test.response]))
        assert np.array_equal(merged, np.sort(data.response))

    def test_deterministic_for_seed(self, rng):
        data = Dataset(rng.normal(size=(60, 1)), rng.normal(size=60), ("a",))
        a = train_test_split(data, 0.5, seed=9)
        b = train_test_split(data, 0.5, seed=9)
        c = train_test_split(data, 0.5, seed=10)
        assert np.array_equal(a.train.features, b.train.features)
        assert not np.array_equal(a.train.features, c.train.features)

    def test_invalid_fractions(self, rng):
        data = Dataset(rng.normal(size=(10, 1)), rng.normal(size=10), ("a",))
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DataError):
                train_test_split(data, bad, seed=0)
        tiny = Dataset(np.zeros((2, 1)), np.zeros(2), ("a",))
        with pytest.raises(DataError):
            train_test_split(tiny, 0.01, seed=0)


class TestScaler:
    def test_fit_transform(self, rng):
        X = rng.normal(5, 3, size=(40, 2))
        scaler = Scaler.fit(X)
        Z = scaler.transform(X)
        assert Z.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert Z.std(axis=0) == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_zero_std_column_passes_through(self):
        X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        scaler = Scaler.fit(X)
        Z = scaler.transform(X)
        assert np.all(Z[:, 0] == 0.0)  # centered, not divided
        assert np.isfinite(Z).all()

    def test_row_invariance(self, rng):
        X = rng.normal(size=(30, 3))
        scaler = Scaler.fit(X)
        whole = scaler.transform(X)
        one = scaler.transform(X[7:8, :])
        assert np.array_equal(whole[7:8, :], one)


class TestNumberRules:
    """The rules for every number read from a run config or model document."""

    @pytest.mark.parametrize("value,expected", [(70, 70), (70.0, 70), (-3, -3),
                                                (10 ** 30, 10 ** 30)])
    def test_integer_accepts_whole_numbers(self, value, expected):
        got = _integer("n", value)
        assert got == expected and type(got) is int

    @pytest.mark.parametrize("value", [20.7, True, False, "7", None, [1],
                                       float("nan"), float("inf"), float("-inf")])
    def test_integer_rejects(self, value):
        with pytest.raises(DataError, match="n must be an integer"):
            _integer("n", value)

    @pytest.mark.parametrize("value,expected", [(0.05, 0.05), (3, 3.0), (-1e300, -1e300)])
    def test_real_accepts_finite_numbers(self, value, expected):
        got = _real("x", value)
        assert got == expected and type(got) is float

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10 ** 400, id="integer-1e400"),
                                       True, "0.5", None, {}])
    def test_real_rejects(self, value):
        with pytest.raises(DataError, match="x must be a finite number"):
            _real("x", value)


def test_only_data_opens_files_for_reading():
    """`data` is the one module that reads files: every other module of the
    package opens a file only with a write mode and parses no JSON."""
    package = pathlib.Path(data_module.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "data.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func, where = node.func, f"{path.name}:{node.lineno}"
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and set(mode.value) & set("wax")):
                    readers.append(where)
            elif name in ("load", "loads") and getattr(func.value, "id", None) == "json":
                readers.append(where)
    assert readers == []

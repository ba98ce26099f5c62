import csv

import numpy as np
import pytest

from treeseg.data import (ColumnSpec, DataError, Dataset, Scaler, _integer, _real, ingest,
                          load_csv, train_test_split)


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

    def test_categorical_one_hot_sorted_levels(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "color,target\nred,1\nblue,2\ngreen,3\nred,4\n")
        specs = [ColumnSpec("color", kind="categorical"), ColumnSpec("target", kind="target")]
        data, report = load_csv(path, specs)
        assert data.feature_names == ("color=blue", "color=green", "color=red")
        assert data.features[0].tolist() == [0.0, 0.0, 1.0]
        assert report.encodings["color"] == ("blue", "green", "red")

    def test_known_levels_and_unseen_category(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "color\nred\npurple\n")
        feats, resp, names, report = ingest(path, [ColumnSpec("color", kind="categorical")],
                                            levels={"color": ("blue", "red")},
                                            require_target=False)
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

    def test_require_target(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "x\n1\n")
        with pytest.raises(DataError, match="target"):
            ingest(path, [ColumnSpec("x")], require_target=True)

    def test_kept_raw_rows_align_with_features(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, 'x,note,y\n1,"a, b",2\n\nbad,c,3\n4,,5\n')
        specs = [ColumnSpec("x"), ColumnSpec("y", kind="target")]
        feats, resp, _, report = ingest(path, specs, require_target=False, keep_rows=True)
        assert report.header == ["x", "note", "y"]
        assert report.rows == [["1", "a, b", "2"], ["4", "", "5"]]
        assert feats.ravel().tolist() == [1.0, 4.0] and resp.tolist() == [2.0, 5.0]
        assert report.rows_dropped == 1
        # Without the target column a scoring input still ingests.
        write_text(path, "x\n1\n")
        feats, resp, _, report = ingest(path, specs, require_target=False)
        assert resp is None and feats.tolist() == [[1.0]] and report.rows is None

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

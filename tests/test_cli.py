import csv
import json
import os
import re

import numpy as np
import pytest

from treeseg import cart, outliers, pipeline
from treeseg.cli import main
from treeseg.data import ColumnSpec, load_csv
from treeseg.persistence import load_model
from treeseg.pipeline import predict_batch


@pytest.fixture()
def data_csv(tmp_path, rng):
    """Numeric CSV: three features, last column is the response."""
    n = 240
    X = rng.uniform(-2, 2, size=(n, 3))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.1 * X[:, 2] + rng.normal(size=n) * 0.1
    path = str(tmp_path / "data.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "y"])
        for row, target in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    return path


def run(argv):
    return main(argv)


BOM = b"\xef\xbb\xbf"


class TestFit:
    def test_happy_path_outputs(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "run1")
        code = run(["fit", "--data", data_csv, "--out-dir", out,
                    "--leaf-size", "40"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "model.json"))
        assert os.path.exists(os.path.join(out, "fit_report.txt"))
        assert os.path.exists(os.path.join(out, "resolved_config.json"))
        stdout = capsys.readouterr().out
        assert "train RMSE:" in stdout and "test RMSE:" in stdout
        with open(os.path.join(out, "fit_report.txt"), encoding="utf-8") as fh:
            report = fh.read()
        assert "per-segment fit status:" in report
        assert "segment 0: fitted" in report

    def test_report_gives_each_gp_segment_its_optimizer_run(self, data_csv, tmp_path):
        out = str(tmp_path / "gp")
        assert run(["fit", "--data", data_csv, "--out-dir", out, "--leaf-size", "60",
                    "--leaf-method", "gp", "--gp-max-iters", "3"]) == 0
        model = load_model(os.path.join(out, "model.json"))
        with open(os.path.join(out, "fit_report.txt"), encoding="utf-8") as fh:
            report = fh.read()
        assert model.tree.n_leaves >= 2
        for sid, leaf in model.leaf_models.items():
            assert (f"  segment {sid}: fitted [gp] {leaf.training_inputs.shape[0]} rows, "
                    f"{leaf.n_iterations} L-BFGS iterations, {leaf.n_evaluations} "
                    f"evaluations, {'converged' if leaf.converged else 'not converged'}, "
                    f"final LML {leaf.log_marginal:.10g}\n") in report
        # A cap of 3 iterations stops every leaf short of convergence.
        assert report.count("3 L-BFGS iterations") == model.tree.n_leaves
        assert report.count("not converged") == model.tree.n_leaves
        # Deterministic: the same fit writes the same report.
        again = str(tmp_path / "gp-again")
        assert run(["fit", "--data", data_csv, "--out-dir", again, "--leaf-size", "60",
                    "--leaf-method", "gp", "--gp-max-iters", "3"]) == 0
        with open(os.path.join(again, "fit_report.txt"), encoding="utf-8") as fh:
            assert fh.read() == report

    def test_flags_override_config_file(self, data_csv, tmp_path):
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv, "tag": "synth"},
                       "fit": {"leaf_size": 30, "leaf_method": "constant"}}, fh)
        out = str(tmp_path / "run2")
        code = run(["fit", "--config", config_path, "--out-dir", out,
                    "--leaf-size", "20"])
        assert code == 0
        with open(os.path.join(out, "resolved_config.json"), encoding="utf-8") as fh:
            resolved = json.load(fh)
        assert resolved["fit"]["leaf_size"] == 20          # flag wins
        assert resolved["fit"]["leaf_method"] == "constant"  # file value kept
        assert resolved["data"]["tag"] == "synth"

    def test_inferred_columns_use_last_as_target(self, data_csv, tmp_path):
        out = str(tmp_path / "run3")
        assert run(["fit", "--data", data_csv, "--out-dir", out,
                    "--leaf-size", "60", "--leaf-method", "constant"]) == 0
        model = load_model(os.path.join(out, "model.json"))
        assert model.feature_names == ("a", "b", "c")

    def test_inferred_columns_reject_a_repeated_header_name(self, tmp_path, capsys):
        path = str(tmp_path / "dup.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,x,y\n" + "".join(f"{i},{-i},{i % 3}\n" for i in range(50)))
        code = run(["fit", "--data", path, "--out-dir", str(tmp_path / "run3b"),
                    "--leaf-size", "10"])
        assert code == 2
        assert "column 'x' appears twice in the header" in capsys.readouterr().err

    def test_categorical_column_spec(self, tmp_path, rng):
        path = str(tmp_path / "cat.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["size", "x", "y"])
            for i in range(120):
                writer.writerow([("small", "large")[i % 2], repr(i / 60.0),
                                 repr(float(i % 2) + i / 120.0)])
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": path, "columns": [
                {"name": "size", "kind": "categorical"},
                {"name": "x"},
                {"name": "y", "kind": "target"}]},
                "fit": {"leaf_size": 40, "leaf_method": "linear"}}, fh)
        out = str(tmp_path / "run4")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 0
        model = load_model(os.path.join(out, "model.json"))
        assert model.feature_names == ("size=large", "size=small", "x")

    def test_unknown_column_fails_fast(self, data_csv, tmp_path):
        config_path = str(tmp_path / "bad.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv, "columns": [
                {"name": "nope"}, {"name": "y", "kind": "target"}]}}, fh)
        code = run(["fit", "--config", config_path,
                    "--out-dir", str(tmp_path / "run5")])
        assert code == 2

    def test_missing_data_file(self, tmp_path):
        code = run(["fit", "--data", str(tmp_path / "absent.csv"),
                    "--out-dir", str(tmp_path / "run6")])
        assert code == 1

    def test_missing_data_file_with_declared_columns(self, tmp_path):
        config_path = str(tmp_path / "columns.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": str(tmp_path / "absent.csv"), "columns": [
                {"name": "a"}, {"name": "y", "kind": "target"}]}}, fh)
        code = run(["fit", "--config", config_path, "--out-dir", str(tmp_path / "run6b")])
        assert code == 1

    def test_missing_config_file_exits_1(self, data_csv, tmp_path):
        code = run(["fit", "--config", str(tmp_path / "absent.json"), "--data", data_csv,
                    "--out-dir", str(tmp_path / "run6c")])
        assert code == 1

    def test_byte_order_marks_skipped(self, data_csv, tmp_path):
        with open(data_csv, "rb") as fh:
            raw = fh.read()
        with open(data_csv, "wb") as fh:
            fh.write(BOM + raw)
        config_path = tmp_path / "columns.json"
        config_path.write_bytes(BOM + json.dumps({"data": {"columns": [
            {"name": "a"}, {"name": "b"}, {"name": "c"}, {"name": "y", "kind": "target"}]}}).encode())
        for name, config in (("default", []), ("declared", ["--config", str(config_path)])):
            out_dir = tmp_path / name
            assert run(["fit", "--data", data_csv, "--out-dir", str(out_dir), *config]) == 0
            assert load_model(str(out_dir / "model.json")).feature_names == ("a", "b", "c")

    @pytest.mark.parametrize("file,content,message", [
        ("data", b"1,2,3,\xff4\r\n", "is not UTF-8 text"),
        ("data", b"1,2,3," + b"4" * 131073 + b"\r\n", "line 242: not valid CSV"),
        ("config", b'{"fit": {"seed": "\xff"}}', "not a UTF-8 JSON document"),
        ("config", b"[" * 200000 + b"]" * 200000, "not a UTF-8 JSON document"),
    ], ids=["data-not-utf8", "data-cell-over-csv-limit", "config-not-utf8",
            "config-nested-200000-deep"])
    def test_undecodable_input_exits_2(self, data_csv, tmp_path, capsys, file, content, message):
        config_path = tmp_path / "config.json"
        if file == "data":
            with open(data_csv, "ab") as fh:  # after the header and 240 rows
                fh.write(content)
            config_path.write_text("{}", encoding="utf-8")
        else:
            config_path.write_bytes(content)
        code = run(["fit", "--data", data_csv, "--config", str(config_path),
                    "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_bad_leaf_size(self, data_csv, tmp_path):
        code = run(["fit", "--data", data_csv, "--leaf-size", "0",
                    "--out-dir", str(tmp_path / "run7")])
        assert code == 2

    def test_config_with_threads_key_still_runs(self, data_csv, tmp_path):
        # Config files written when a "threads" setting existed keep working;
        # the key is retired, so it is ignored where other unknown keys fail.
        config_path = str(tmp_path / "old.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv}, "fit": {"leaf_size": 40},
                       "threads": 4}, fh)
        out = str(tmp_path / "run8")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 0
        with open(os.path.join(out, "resolved_config.json"), encoding="utf-8") as fh:
            assert "threads" not in json.load(fh)

    @pytest.mark.parametrize("doc, key", [
        ({"fit": {"leafsize": 20}}, "'fit.leafsize'"),
        ({"fit": {"outlier": {"n_tree": 5}}}, "'fit.outlier.n_tree'"),
        ({"split": {"seed": 1, "sed": 2}}, "'split.sed'"),
        ({"thread": 4}, "'thread'"),
        ({"data": {"columns": [{"name": "a"}, {"name": "y", "knd": "target"}]}}, "'knd'"),
    ])
    def test_unknown_config_key_exits_2(self, data_csv, tmp_path, capsys, doc, key):
        doc.setdefault("data", {})["path"] = data_csv
        config_path = str(tmp_path / "typo.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = str(tmp_path / "typo")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "model.json"))

    def test_outlier_flags(self, data_csv, tmp_path):
        out = str(tmp_path / "run9")
        code = run(["fit", "--data", data_csv, "--out-dir", out,
                    "--leaf-size", "40", "--outliers", "on",
                    "--contamination", "0.05", "--n-trees", "25"])
        assert code == 0
        model = load_model(os.path.join(out, "model.json"))
        assert model.n_removed_outliers > 0

    def test_outlier_forest_fit_once(self, data_csv, tmp_path, monkeypatch):
        calls = []
        real = outliers.fit_forest

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(outliers, "fit_forest", counting)
        monkeypatch.setattr(pipeline, "fit_forest", counting)
        assert run(["fit", "--data", data_csv, "--out-dir", str(tmp_path / "run10"),
                    "--leaf-size", "40", "--outliers", "on", "--n-trees", "25"]) == 0
        assert len(calls) == 1

    def test_overflowing_response_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "huge.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for i in range(1200):
                writer.writerow([i, repr(1.5 ** i)])
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["fit", "--data", path, "--out-dir", str(tmp_path / "run11"),
                        "--leaf-size", "1", "--leaf-method", "constant"])
        assert code == 2
        assert "too large for float64" in capsys.readouterr().err

    def test_string_outlier_enabled_exits_2(self, data_csv, tmp_path, capsys):
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv},
                       "fit": {"leaf_size": 40, "outlier": {"enabled": "false"}}}, fh)
        out = str(tmp_path / "run12")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 2
        assert "outlier.enabled" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "model.json"))

    @pytest.mark.parametrize("doc", [{"fit": 5}, {"data": []}, {"split": "0.5"},
                                     {"sweep": 3}, {"fit": {"outlier": True}}])
    def test_config_section_not_an_object_exits_2(self, data_csv, tmp_path, capsys, doc):
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = run(["fit", "--config", config_path, "--data", data_csv,
                    "--out-dir", str(tmp_path / "run13")])
        assert code == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"data": {"columns": 5}},
        {"data": {"columns": [5, {"name": "y", "kind": "target"}]}},
        {"data": {"columns": [{"kind": "numeric"}, {"name": "y", "kind": "target"}]}},
        {"fit": {"leaf_size": "abc"}},
        {"fit": {"leaf_size": 20.7}},
        {"fit": {"leaf_size": True}},
        {"fit": {"seed": 1.5}},
        {"fit": {"gp_max_iters": 2.5}},
        {"fit": {"ridge_eps": "small"}},
        {"fit": {"ridge_eps": 10 ** 400}},
        {"fit": {"outlier": {"n_trees": 10.5}}},
        {"fit": {"outlier": {"subsample": 64.5}}},
        {"fit": {"outlier": {"contamination": "abc"}}},
        {"split": {"seed": 0.5}},
        {"split": {"train_fraction": "most"}},
        {"sweep": {"leaf_sizes": [20.7]}},
        {"sweep": {"leaf_sizes": 20}},
        {"fit": {"gp_init": {"noise_variance": 10 ** 400}}},
    ])
    def test_invalid_config_value_exits_2(self, data_csv, tmp_path, capsys, doc):
        doc.setdefault("data", {})["path"] = data_csv
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = str(tmp_path / "run15")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(os.path.join(out, "model.json"))

    def test_integral_float_config_values_accepted(self, data_csv, tmp_path):
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv},
                       "fit": {"leaf_size": 70.0, "seed": 3.0}}, fh)
        out = str(tmp_path / "run16")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 0
        with open(os.path.join(out, "resolved_config.json"), encoding="utf-8") as fh:
            resolved = json.load(fh)["fit"]
        assert resolved["leaf_size"] == 70 and isinstance(resolved["leaf_size"], int)
        assert resolved["seed"] == 3 and isinstance(resolved["seed"], int)

    def test_non_positive_gp_init_exits_2_before_any_fit(self, data_csv, tmp_path,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "fit_forest", lambda *a, **k: calls.append("forest"))
        monkeypatch.setattr(cart, "build_tree", lambda *a, **k: calls.append("tree"))
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv},
                       "fit": {"leaf_size": 40, "leaf_method": "gp",
                               "gp_init": {"noise_variance": -0.5},
                               "outlier": {"enabled": True}}}, fh)
        code = run(["fit", "--config", config_path, "--out-dir", str(tmp_path / "run14")])
        assert code == 2
        assert calls == []

    @pytest.mark.parametrize("fit_text", ['{"ridge_eps": 1e400}', '{"ridge_eps": NaN}',
                                          '{"outlier": {"contamination": -Infinity}}'])
    def test_non_finite_config_number_exits_2_before_any_fit(self, data_csv, tmp_path,
                                                             monkeypatch, capsys, fit_text):
        calls = []
        monkeypatch.setattr(cart, "build_tree", lambda *a, **k: calls.append("tree"))
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write('{"data": {"path": %s}, "fit": %s}' % (json.dumps(data_csv), fit_text))
        out = str(tmp_path / "run17")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(os.path.join(out, "resolved_config.json"))

    def test_non_finite_flag_exits_2(self, data_csv, tmp_path, capsys):
        code = run(["fit", "--data", data_csv, "--out-dir", str(tmp_path / "run18"),
                    "--ridge-eps", "nan"])
        assert code == 2
        assert "ridge_eps must be a finite number" in capsys.readouterr().err

    def test_resolved_config_reproduces_the_run(self, data_csv, tmp_path):
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv, "tag": "synth"},
                       "split": {"train_fraction": 0.75, "seed": 2},
                       "fit": {"leaf_size": 50.0, "seed": 4, "ridge_eps": 1,
                               "gp_init": {"noise_variance": 2},
                               "outlier": {"enabled": True, "n_trees": 30}},
                       "sweep": {"leaf_sizes": [30, 60]}}, fh)
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        assert run(["fit", "--config", config_path, "--out-dir", first,
                    "--leaf-method", "linear", "--contamination", "0.04"]) == 0
        assert run(["fit", "--config", os.path.join(first, "resolved_config.json"),
                    "--out-dir", second]) == 0

        def read(run_dir, name):
            with open(os.path.join(run_dir, name), "rb") as fh:
                return fh.read()

        resolved = [json.loads(read(d, "resolved_config.json")) for d in (first, second)]
        assert [r.pop("out_dir") for r in resolved] == [first, second]
        assert resolved[0] == resolved[1]
        assert resolved[0]["fit"]["gp_init"] == {"noise_variance": 2}
        assert read(first, "model.json") == read(second, "model.json")


class TestPredict:
    def fit_once(self, data_csv, tmp_path):
        out = str(tmp_path / "fit")
        assert run(["fit", "--data", data_csv, "--out-dir", out,
                    "--leaf-size", "40"]) == 0
        return os.path.join(out, "model.json")

    def test_predictions_align_and_match_library(self, data_csv, tmp_path, rng):
        model_path = self.fit_once(data_csv, tmp_path)
        # Feature-only input: no target column.
        queries = rng.uniform(-2, 2, size=(25, 3))
        in_path = str(tmp_path / "queries.csv")
        with open(in_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            for row in queries:
                writer.writerow([repr(float(v)) for v in row])
        out_path = str(tmp_path / "scored.csv")
        assert run(["predict", "--model", model_path,
                    "--input", in_path, "--output", out_path]) == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "c", "prediction", "segment_id"]
        assert len(rows) == 26
        got = np.array([float(r[3]) for r in rows[1:]])
        model = load_model(model_path)
        expect = predict_batch(model, queries)
        assert np.array_equal(got, expect)  # repr round-trip is exact
        # Input columns are echoed untouched.
        assert rows[1][:3] == [repr(float(v)) for v in queries[0]]

    def test_rows_routed_once(self, data_csv, tmp_path, monkeypatch):
        model_path = self.fit_once(data_csv, tmp_path)
        calls = []
        real = cart.assign_leaf_batch

        def counting(tree, X):
            calls.append(X.shape[0])
            return real(tree, X)

        monkeypatch.setattr(cart, "assign_leaf_batch", counting)
        out_path = str(tmp_path / "scored.csv")
        assert run(["predict", "--model", model_path,
                    "--input", data_csv, "--output", out_path]) == 0
        assert calls == [240]
        with open(out_path, newline="", encoding="utf-8") as fh:
            ids = [int(r[-1]) for r in list(csv.reader(fh))[1:]]
        features = load_csv(data_csv, [ColumnSpec("a"), ColumnSpec("b"), ColumnSpec("c"),
                                       ColumnSpec("y", kind="target")])[0].features
        assert ids == real(load_model(model_path).tree, features).tolist()

    def test_rows_echoed_in_step_with_features(self, tmp_path):
        # Blank lines, a quoted field holding a comma and a level unseen at
        # fit time: every non-blank input row comes back, in order, followed
        # by the prediction and segment of its own features.
        data_path = str(tmp_path / "cat.csv")
        with open(data_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["size", "x", "y"])
            for i in range(120):
                writer.writerow([("small", "large")[i % 2], repr(i / 60.0),
                                 repr(3.0 * (i % 2) + i / 40.0)])
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_path, "columns": [
                {"name": "size", "kind": "categorical"}, {"name": "x"},
                {"name": "y", "kind": "target"}]},
                "fit": {"leaf_size": 30, "leaf_method": "linear"}}, fh)
        out = str(tmp_path / "fit")
        assert run(["fit", "--config", config_path, "--out-dir", out]) == 0
        model_path = os.path.join(out, "model.json")

        in_path = str(tmp_path / "score.csv")
        with open(in_path, "w", newline="", encoding="utf-8") as fh:
            fh.write('size,note,x\r\nsmall,"left, edge",0.25\r\n\r\n'
                     'large,plain,1.5\r\nmedium,"new, level",0.75\r\n   \r\n'
                     'large,,1.875\r\n')
        out_path = str(tmp_path / "scored.csv")
        assert run(["predict", "--model", model_path,
                    "--input", in_path, "--output", out_path]) == 0

        with open(in_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], [r for r in rows[1:] if r and r[0].strip()]
        assert [r[1] for r in rows] == ["left, edge", "plain", "new, level", ""]
        levels = {"large": [1.0, 0.0], "small": [0.0, 1.0], "medium": [0.0, 0.0]}
        features = np.array([levels[r[0]] + [float(r[2])] for r in rows])
        model = load_model(model_path)
        predictions = predict_batch(model, features)
        segments = cart.assign_leaf_batch(model.tree, features)
        expect_path = str(tmp_path / "expected.csv")
        with open(expect_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header + ["prediction", "segment_id"])
            for row, pred, seg in zip(rows, predictions, segments):
                writer.writerow(row + [repr(float(pred)), int(seg)])
        with open(out_path, "rb") as got, open(expect_path, "rb") as want:
            assert got.read() == want.read()

    def test_input_with_target_column_accepted(self, data_csv, tmp_path):
        model_path = self.fit_once(data_csv, tmp_path)
        out_path = str(tmp_path / "scored2.csv")
        assert run(["predict", "--model", model_path,
                    "--input", data_csv, "--output", out_path]) == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["prediction", "segment_id"]
        assert len(rows) == 241

    def test_blank_target_cell_is_echoed(self, tmp_path):
        # Prediction never reads the target, so a blank target cell is no
        # reason to refuse the row; the output echoes it as it was.
        data_path = str(tmp_path / "abc.csv")
        with open(data_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "y"])
            for i in range(60):
                writer.writerow([repr(i / 60.0), repr((i % 7) / 7.0), repr(i / 30.0 + i % 2)])
        out = str(tmp_path / "fit")
        assert run(["fit", "--data", data_path, "--out-dir", out, "--leaf-size", "20"]) == 0
        model_path = os.path.join(out, "model.json")
        in_path = str(tmp_path / "score.csv")
        with open(in_path, "w", encoding="utf-8") as fh:
            fh.write("a,b,y\n0.5,0.1,\n0.2,0.3,1.0\n")
        out_path = str(tmp_path / "scored.csv")
        assert run(["predict", "--model", model_path,
                    "--input", in_path, "--output", out_path]) == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "y", "prediction", "segment_id"]
        assert [r[:3] for r in rows[1:]] == [["0.5", "0.1", ""], ["0.2", "0.3", "1.0"]]
        expect = predict_batch(load_model(model_path), np.array([[0.5, 0.1], [0.2, 0.3]]))
        assert [float(r[3]) for r in rows[1:]] == expect.tolist()

    def test_malformed_row_is_an_error(self, data_csv, tmp_path):
        model_path = self.fit_once(data_csv, tmp_path)
        in_path = str(tmp_path / "broken.csv")
        with open(in_path, "w", encoding="utf-8") as fh:
            fh.write("a,b,c\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        code = run(["predict", "--model", model_path,
                    "--input", in_path, "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_header_only_input(self, data_csv, tmp_path):
        model_path = self.fit_once(data_csv, tmp_path)
        in_path = str(tmp_path / "empty.csv")
        with open(in_path, "w", encoding="utf-8") as fh:
            fh.write("a,b,c\n")
        out_path = str(tmp_path / "scored3.csv")
        assert run(["predict", "--model", model_path,
                    "--input", in_path, "--output", out_path]) == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b", "c", "prediction", "segment_id"]]

    @pytest.mark.parametrize("recipe", [
        {"columns": [{"name": "a"}], "levels": []},
        {"levels": {}},
        [1, 2],
        {"columns": [{"name": "a"}], "levels": {"a": 5}},
        {"columns": [{"name": "b"}, {"name": "a"}, {"name": "c"}], "levels": {}},
    ], ids=["levels-list", "no-columns", "recipe-list", "levels-not-lists", "columns-reordered"])
    def test_malformed_recipe_exits_2(self, data_csv, tmp_path, capsys, recipe):
        model_path = self.fit_once(data_csv, tmp_path)
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["ingestion"] = recipe
        with open(model_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        code = run(["predict", "--model", model_path,
                    "--input", data_csv, "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        code = run(["predict", "--model", str(tmp_path / "no.json"),
                    "--input", str(tmp_path / "no.csv"),
                    "--output", str(tmp_path / "out.csv")])
        assert code == 1

    def test_missing_input_file(self, data_csv, tmp_path):
        model_path = self.fit_once(data_csv, tmp_path)
        code = run(["predict", "--model", model_path,
                    "--input", str(tmp_path / "no.csv"),
                    "--output", str(tmp_path / "out.csv")])
        assert code == 1

    @pytest.mark.parametrize("content", [b'{"schema_version": "\xff"}',
                                         b"[" * 200000 + b"]" * 200000],
                             ids=["not-utf8", "nested-200000-deep"])
    def test_undecodable_model_exits_2(self, data_csv, tmp_path, capsys, content):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(content)
        code = run(["predict", "--model", str(model_path), "--input", data_csv,
                    "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "is not a valid model document" in capsys.readouterr().err


class TestSweep:
    def test_tree_and_model_sweeps(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "sweeps")
        code = run(["sweep", "--data", data_csv, "--out-dir", out,
                    "--tag", "synth", "--kind", "tree",
                    "--leaf-sizes", "10", "30", "90"])
        assert code == 0
        tree_csv = os.path.join(out, "sweep_synth_tree.csv")
        with open(tree_csv, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 4  # header + 3 rows
        code = run(["sweep", "--data", data_csv, "--out-dir", out,
                    "--tag", "synth", "--kind", "model",
                    "--leaf-method", "linear", "--leaf-sizes", "20", "60"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "* lowest test RMSE" in stdout
        assert os.path.exists(os.path.join(out, "sweep_synth_model.csv"))

    def test_oversized_grid_is_clipped(self, data_csv, tmp_path):
        out = str(tmp_path / "sweeps2")
        code = run(["sweep", "--data", data_csv, "--out-dir", out,
                    "--tag", "synth", "--kind", "tree",
                    "--leaf-sizes", "50", "100000"])
        assert code == 0
        with open(os.path.join(out, "sweep_synth_tree.csv"), encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        # 168 train rows: the huge entry collapses onto the train size.
        assert lines[1].split(",")[0] == "50"
        assert lines[2].split(",")[0] == "168"

    def test_non_positive_leaf_size_exits_2(self, data_csv, tmp_path):
        code = run(["sweep", "--data", data_csv, "--out-dir", str(tmp_path / "sweeps3"),
                    "--kind", "tree", "--leaf-sizes", "0"])
        assert code == 2

    def test_empty_grid_exits_2(self, data_csv, tmp_path):
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"path": data_csv}, "sweep": {"leaf_sizes": []}}, fh)
        code = run(["sweep", "--config", config_path, "--out-dir", str(tmp_path / "sweeps4"),
                    "--kind", "tree"])
        assert code == 2


class TestProfile:
    def test_all_and_single(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "fit")
        assert run(["fit", "--data", data_csv, "--out-dir", out,
                    "--leaf-size", "40"]) == 0
        model_path = os.path.join(out, "model.json")
        capsys.readouterr()
        assert run(["profile", "--model", model_path, "--all"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("segment ") >= 2
        assert "[response std" in stdout
        # One block per segment, in rising mean_response, closed by the total.
        heads = re.findall(r"^segment (\d+): count=(\d+) mean_response=(\S+)$", stdout, re.M)
        model = load_model(model_path)
        assert sorted(int(sid) for sid, _, _ in heads) == list(range(model.tree.n_leaves))
        means = [float(mean) for _, _, mean in heads]
        assert means == sorted(means)
        assert sum(int(count) for _, count, _ in heads) == model.n_train_rows
        assert stdout.rstrip().endswith(
            f"{model.tree.n_leaves} segments, {model.n_train_rows} training rows")
        assert run(["profile", "--model", model_path, "--segment", "0"]) == 0
        single = capsys.readouterr().out
        assert single.startswith("segment 0:")

    def test_requires_a_selector(self, data_csv, tmp_path):
        out = str(tmp_path / "fit")
        assert run(["fit", "--data", data_csv, "--out-dir", out,
                    "--leaf-size", "60"]) == 0
        code = run(["profile", "--model", os.path.join(out, "model.json")])
        assert code == 2

    def test_unknown_segment(self, data_csv, tmp_path):
        out = str(tmp_path / "fit")
        assert run(["fit", "--data", data_csv, "--out-dir", out,
                    "--leaf-size", "60"]) == 0
        code = run(["profile", "--model", os.path.join(out, "model.json"),
                    "--segment", "99"])
        assert code == 2


class TestOutliers:
    def test_scores_written(self, data_csv, tmp_path):
        out = str(tmp_path / "oruns")
        code = run(["outliers", "--data", data_csv, "--out-dir", out,
                    "--contamination", "0.05", "--n-trees", "25"])
        assert code == 0
        with open(os.path.join(out, "outlier_scores.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row_index", "score", "removed"]
        assert len(rows) == 241
        removed = sum(int(r[2]) for r in rows[1:])
        assert removed == 12  # floor(0.05*240 + 0.5)
        scores = [float(r[1]) for r in rows[1:]]
        assert all(0.0 < s < 1.0 for s in scores)

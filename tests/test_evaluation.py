import dataclasses
import math

import numpy as np
import pytest

from treeseg.data import Dataset, train_test_split
from treeseg.evaluation import (kept_training_set, model_generalization_sweep, rmse,
                                tree_generalization_sweep)
from treeseg.outliers import anomaly_score_batch, fit_forest, removal_indices
from treeseg.persistence import load_model, save_model
from treeseg import cart, pipeline
from treeseg.cart import build_tree, predict_mean_batch
from treeseg.pipeline import (FitConfig, OutlierConfig, PipelineError, fit_segmented,
                              predict_batch)


def make_split(rng, n=300, f=0.7):
    X = rng.uniform(-2, 2, size=(n, 2))
    y = np.where(X[:, 0] <= 0, 2.0 + X[:, 1], -5.0 - 0.5 * X[:, 1])
    y = y + rng.normal(size=n) * 0.1
    data = Dataset(X, y, ("f0", "f1"))
    return train_test_split(data, f, seed=13)


class TestRMSE:
    def test_examples(self):
        a = np.array([1.0, 2.0, 3.0])
        assert rmse(a, a) == 0.0
        assert rmse(a + 1.0, a) == pytest.approx(1.0)
        assert rmse(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5))

    def test_symmetry_and_nonnegative(self, rng):
        p = rng.normal(size=40)
        a = rng.normal(size=40)
        assert rmse(p, a) == rmse(a, p) >= 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))


class TestTreeSweep:
    def test_single_leaf_closed_form(self, rng):
        split = make_split(rng)
        n = split.train.n_rows
        report = tree_generalization_sweep(split, [n])
        row = report.rows[0]
        assert row.n_leaves == 1
        assert row.train_rmse == pytest.approx(float(split.train.response.std()), rel=1e-12)
        mean = split.train.response.mean()
        expect_test = float(np.sqrt(np.mean((split.test.response - mean) ** 2)))
        assert row.test_rmse == pytest.approx(expect_test, rel=1e-12)

    def test_train_rmse_non_decreasing_in_leaf_size(self, rng):
        split = make_split(rng, n=400)
        report = tree_generalization_sweep(split, [5, 10, 25, 50, 100, 280])
        train_errors = [r.train_rmse for r in report.rows]
        assert all(b >= a - 1e-12 for a, b in zip(train_errors, train_errors[1:]))

    def test_grid_cleaned_sorted_unique_clipped(self, rng):
        split = make_split(rng, n=100)  # train = 70
        report = tree_generalization_sweep(split, [40, 10, 40, 10000, 25])
        assert [r.leaf_size for r in report.rows] == [10, 25, 40, 70]

    def test_invalid_grid(self, rng):
        split = make_split(rng, n=100)
        with pytest.raises(ValueError):
            tree_generalization_sweep(split, [])
        with pytest.raises(ValueError):
            tree_generalization_sweep(split, [0, 10])

    def test_reproducible(self, rng):
        split = make_split(rng)
        a = tree_generalization_sweep(split, [10, 50])
        b = tree_generalization_sweep(split, [10, 50])
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.train_rmse, ra.test_rmse, ra.n_leaves) == \
                   (rb.train_rmse, rb.test_rmse, rb.n_leaves)

    def test_rows_equal_one_tree_per_size(self, rng):
        # One joint build; each row's figures are those of the size's own
        # tree, and its train RMSE those of routing the training rows.
        split = make_split(rng, n=400)
        grid = [60, 5, 20, 1, 3]
        report = tree_generalization_sweep(split, grid)
        assert len({r.fit_seconds for r in report.rows}) == 1
        for row in report.rows:
            tree, _ = build_tree(split.train, row.leaf_size)
            assert row.n_leaves == tree.n_leaves
            assert row.train_rmse == rmse(predict_mean_batch(tree, split.train.features),
                                          split.train.response)
            assert row.test_rmse == rmse(predict_mean_batch(tree, split.test.features),
                                         split.test.response)

    def test_gap_shrinks_for_well_sampled_steps(self, rng):
        # Tiny leaves memorize the training set (train RMSE ~ 0, test RMSE
        # ~ noise), so their train/test gap dwarfs the single-leaf gap,
        # which is just the sampling difference between the two halves.
        n = 800
        X = rng.uniform(-3, 3, size=(n, 1))
        y = np.sin(X[:, 0]) + rng.normal(size=n) * 0.3
        split = train_test_split(Dataset(X, y, ("x",)), 0.7, seed=1)
        report = tree_generalization_sweep(split, [2, split.train.n_rows])
        gap_small = abs(report.rows[0].test_rmse - report.rows[0].train_rmse)
        gap_large = abs(report.rows[-1].test_rmse - report.rows[-1].train_rmse)
        assert gap_small > gap_large


class TestModelSweep:
    def test_constant_rows_equal_tree_sweep(self, rng):
        split = make_split(rng)
        grid = [10, 40, 120]
        tree_report = tree_generalization_sweep(split, grid)
        model_report = model_generalization_sweep(
            split, grid, FitConfig(leaf_size=10, leaf_method="constant"))
        assert model_report.kind == "full_model"
        for rt, rm in zip(tree_report.rows, model_report.rows):
            assert rt.leaf_size == rm.leaf_size
            assert rt.n_leaves == rm.n_leaves
            assert rm.train_rmse == rt.train_rmse
            assert rm.test_rmse == rt.test_rmse

    def test_best_leaf_size_flagged(self, rng):
        split = make_split(rng, n=500)
        report = model_generalization_sweep(
            split, [5, 25, 80, 200], FitConfig(leaf_size=5, leaf_method="linear"))
        by_test = min(report.rows, key=lambda r: r.test_rmse)
        assert report.best_leaf_size == by_test.leaf_size
        assert "*" in report.to_text()

    def test_linear_train_rmse_beats_tree_at_shared_sizes(self, rng):
        split = make_split(rng, n=400)
        grid = [20, 60, 150]
        tree_report = tree_generalization_sweep(split, grid)
        model_report = model_generalization_sweep(
            split, grid, FitConfig(leaf_size=20, leaf_method="linear"))
        for rt, rm in zip(tree_report.rows, model_report.rows):
            assert rm.train_rmse <= rt.train_rmse + 1e-9

    def test_rows_strictly_increasing_leaf_size(self, rng):
        split = make_split(rng)
        report = model_generalization_sweep(
            split, [100, 10, 50], FitConfig(leaf_size=10, leaf_method="constant"))
        sizes = [r.leaf_size for r in report.rows]
        assert sizes == sorted(set(sizes))

    def test_train_rmse_measured_on_kept_rows(self, rng):
        split = make_split(rng, n=300)
        config = FitConfig(leaf_size=30, leaf_method="constant",
                           outlier=OutlierConfig(enabled=True, contamination=0.05,
                                                 n_trees=20, subsample=64))
        report = model_generalization_sweep(split, [30], config)
        model = fit_segmented(split.train, config)
        kept = kept_training_set(split.train, model)
        assert kept.n_rows == model.n_train_rows < split.train.n_rows
        expect = rmse(predict_batch(model, kept), kept.response)
        assert report.rows[0].train_rmse == pytest.approx(expect, rel=1e-12)

    def test_outlier_forest_fit_once_per_sweep(self, rng, monkeypatch):
        split = make_split(rng, n=300)
        config = FitConfig(leaf_size=10, leaf_method="linear", seed=4,
                           outlier=OutlierConfig(enabled=True, contamination=0.05,
                                                 n_trees=20, subsample=64))
        grid = [80, 10, 40, 20]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return fit_forest(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_forest", counted)
        report = model_generalization_sweep(split, grid, config)
        assert len(calls) == 1
        for row in report.rows:
            model = fit_segmented(split.train, dataclasses.replace(config, leaf_size=row.leaf_size))
            kept = kept_training_set(split.train, model)
            assert model.n_removed_outliers > 0
            assert (row.train_rmse, row.test_rmse, row.n_leaves) == (
                rmse(predict_batch(model, kept), kept.response),
                rmse(predict_batch(model, split.test), split.test.response),
                model.tree.n_leaves)
        assert len(calls) == 1 + len(grid)

    def test_trees_grown_in_one_pass(self, rng, monkeypatch):
        # One cart.build_trees call for the grid; each row is the fit a
        # standalone fit_segmented makes at its leaf size.
        split = make_split(rng, n=300)
        config = FitConfig(leaf_size=10, leaf_method="gp", gp_max_iters=3)
        grid = [120, 30, 60]
        builds = []
        real = cart.build_trees

        def counted(train, sizes):
            builds.append(sorted(sizes))
            return real(train, sizes)

        def refused(*args):
            raise AssertionError("a sweep grows no tree alone")

        monkeypatch.setattr(cart, "build_trees", counted)
        monkeypatch.setattr(cart, "build_tree", refused)
        report = model_generalization_sweep(split, grid, config)
        assert builds == [sorted(grid)]
        monkeypatch.undo()
        for row in report.rows:
            model = fit_segmented(split.train, dataclasses.replace(config, leaf_size=row.leaf_size))
            assert (row.train_rmse, row.test_rmse, row.n_leaves) == (
                rmse(predict_batch(model, split.train), split.train.response),
                rmse(predict_batch(model, split.test), split.test.response),
                model.tree.n_leaves)

    def test_size_above_the_kept_rows_raises(self, rng):
        split = make_split(rng, n=100)  # 70 training rows, some removed
        config = FitConfig(leaf_size=10, leaf_method="constant",
                           outlier=OutlierConfig(enabled=True, contamination=0.2,
                                                 n_trees=20, subsample=64))
        with pytest.raises(PipelineError, match="outlier filtering left fewer rows"):
            fit_segmented(split.train, dataclasses.replace(config, leaf_size=70))
        with pytest.raises(PipelineError, match="outlier filtering left fewer rows"):
            model_generalization_sweep(split, [10, 70], config)

    def test_size_above_the_kept_rows_raises_before_any_tree(self, rng, monkeypatch):
        # The filter checks the grid's largest size against the kept rows,
        # so no tree of the grid is grown first.
        split = make_split(rng, n=100)
        config = FitConfig(leaf_size=10, leaf_method="constant",
                           outlier=OutlierConfig(enabled=True, contamination=0.2,
                                                 n_trees=20, subsample=64))

        def refused(*args):
            raise AssertionError("no tree is grown past a failed leaf-size check")

        monkeypatch.setattr(cart, "build_trees", refused)
        with pytest.raises(PipelineError, match="outlier filtering left fewer rows"):
            model_generalization_sweep(split, [10, 70], config)

    def test_kept_training_set_reads_the_recorded_rows(self, rng, tmp_path):
        split = make_split(rng, n=300)
        config = FitConfig(leaf_size=30, leaf_method="constant", seed=3,
                           outlier=OutlierConfig(enabled=True, contamination=0.05,
                                                 n_trees=20, subsample=64))
        model = fit_segmented(split.train, config)
        forest = fit_forest(split.train, n_trees=20, subsample=64, seed=3)
        removed = removal_indices(anomaly_score_batch(forest, split.train.features), 0.05)
        assert removed.size == model.n_removed_outliers > 0
        assert np.array_equal(kept_training_set(split.train, model).features,
                              np.delete(split.train.features, removed, axis=0))
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with pytest.raises(PipelineError, match="loaded model"):
            kept_training_set(split.train, load_model(path))
        unfiltered = fit_segmented(split.train, FitConfig(leaf_size=30, leaf_method="constant"))
        assert kept_training_set(split.train, unfiltered) is split.train

    def test_csv_round_trip_repr_floats(self, rng, tmp_path):
        split = make_split(rng)
        report = model_generalization_sweep(
            split, [20, 80], FitConfig(leaf_size=20, leaf_method="linear"))
        path = str(tmp_path / "sweep.csv")
        report.to_csv(path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "leaf_size,train_rmse,test_rmse,n_leaves,fit_seconds"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert float(first[1]) == report.rows[0].train_rmse  # repr round-trips

import math

import numpy as np
import pytest

from treeseg.data import Dataset
from treeseg.outliers import (anomaly_score, anomaly_score_batch,
                              average_path_length, fit_forest, removal_indices)
from treeseg.pipeline import FitConfig, OutlierConfig, fit_segmented

EULER = 0.5772156649


def make_dataset(X, rng=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.zeros(X.shape[0])
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(X, y, names)


class TestAveragePathLength:
    def test_small_cases(self):
        assert average_path_length(0) == 0.0
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0

    def test_formula_above_two(self):
        for n in (3, 10, 256, 4096):
            expect = 2.0 * (math.log(n - 1) + EULER) - 2.0 * (n - 1) / n
            assert average_path_length(n) == pytest.approx(expect, rel=1e-12)

    def test_monotone_increasing(self):
        values = [average_path_length(n) for n in range(2, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestForest:
    def test_two_point_score_is_half(self):
        # Two distinct points always separate at the first split, so each
        # path is 1 = c(2) and the score is exactly 2**-1.
        data = make_dataset([[0.0], [10.0]])
        forest = fit_forest(data, n_trees=25, subsample=2, seed=3)
        scores = anomaly_score_batch(forest, data.features)
        assert scores.tolist() == [0.5, 0.5]

    def test_identical_points_score_half(self):
        # No dimension is splittable, so every point sits in a root leaf
        # with value c(psi) and the score is 2**(-c(psi)/c(psi)).
        data = make_dataset(np.full((6, 2), 3.25))
        forest = fit_forest(data, n_trees=10, subsample=4, seed=0)
        scores = anomaly_score_batch(forest, data.features)
        assert scores.tolist() == [0.5] * 6

    def test_planted_outlier_scores_highest(self, rng):
        X = rng.normal(0.0, 1.0, size=(200, 2))
        X[137] = (9.0, -9.0)
        forest = fit_forest(make_dataset(X), n_trees=100, subsample=128, seed=11)
        scores = anomaly_score_batch(forest, X)
        assert int(np.argmax(scores)) == 137
        assert scores[137] > np.median(scores) + 0.1

    def test_distance_rank_agreement(self, rng):
        # Independent oracle: in a single gaussian blob, centroid distance
        # orders points roughly like the anomaly score. Check the top-5
        # scorers all sit in the top quartile by distance.
        X = rng.normal(size=(300, 3))
        forest = fit_forest(make_dataset(X), n_trees=200, subsample=256, seed=5)
        scores = anomaly_score_batch(forest, X)
        dist = np.linalg.norm(X - X.mean(axis=0), axis=1)
        cutoff = np.quantile(dist, 0.75)
        top = np.argsort(scores)[-5:]
        assert all(dist[i] >= cutoff for i in top)

    def test_deterministic_per_seed(self, rng):
        data = make_dataset(rng.normal(size=(50, 2)))
        a = anomaly_score_batch(fit_forest(data, n_trees=20, subsample=32, seed=7),
                                data.features)
        b = anomaly_score_batch(fit_forest(data, n_trees=20, subsample=32, seed=7),
                                data.features)
        c = anomaly_score_batch(fit_forest(data, n_trees=20, subsample=32, seed=8),
                                data.features)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scores_in_unit_interval(self, rng):
        data = make_dataset(rng.normal(size=(80, 2)))
        forest = fit_forest(data, n_trees=30, subsample=64, seed=1)
        scores = anomaly_score_batch(forest, data.features)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_single_equals_batch(self, rng):
        data = make_dataset(rng.normal(size=(40, 2)))
        forest = fit_forest(data, n_trees=15, subsample=32, seed=2)
        batch = anomaly_score_batch(forest, data.features)
        for i in (0, 17, 39):
            assert anomaly_score(forest, data.features[i]) == batch[i]

    def test_subsample_larger_than_dataset(self, rng):
        data = make_dataset(rng.normal(size=(10, 1)))
        forest = fit_forest(data, n_trees=5, subsample=64, seed=0)
        assert forest.subsample_size == 64
        scores = anomaly_score_batch(forest, data.features)
        assert np.isfinite(scores).all()

    def test_validation(self, rng):
        data = make_dataset(rng.normal(size=(10, 1)))
        with pytest.raises(ValueError):
            fit_forest(data, n_trees=0)
        with pytest.raises(ValueError):
            fit_forest(data, subsample=1)
        forest = fit_forest(data, n_trees=3, subsample=4, seed=0)
        with pytest.raises(ValueError):
            anomaly_score_batch(forest, rng.normal(size=(5, 2)))
        with pytest.raises(ValueError):
            anomaly_score(forest, np.zeros(2))


class TestRemoval:
    def test_count_rounds_half_away_from_zero(self):
        scores = np.linspace(0.1, 0.9, 10)
        assert removal_indices(scores, 0.05).size == 1   # 0.5 + 0.5 -> 1
        assert removal_indices(scores, 0.24).size == 2   # 2.4 + 0.5 -> 2
        assert removal_indices(scores, 0.25).size == 3   # 2.5 + 0.5 -> 3
        scores9 = np.linspace(0.1, 0.9, 9)
        assert removal_indices(scores9, 0.05).size == 0  # 0.45 + 0.5 -> 0

    def test_zero_contamination_is_noop(self):
        scores = np.array([0.9, 0.1, 0.99])
        assert removal_indices(scores, 0.0).size == 0

    def test_picks_highest_scores(self):
        scores = np.array([0.2, 0.9, 0.1, 0.8, 0.5])
        removed = removal_indices(scores, 0.4)  # k = 2
        assert sorted(removed.tolist()) == [1, 3]

    def test_ties_keep_lower_index(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
        removed = removal_indices(scores, 0.4)  # k = 2
        assert sorted(removed.tolist()) == [3, 4]

    def test_result_sorted_ascending(self):
        scores = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
        removed = removal_indices(scores, 0.5)  # k = 3
        assert removed.tolist() == sorted(removed.tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            removal_indices(np.array([0.5]), -0.1)
        with pytest.raises(ValueError):
            removal_indices(np.array([0.5]), 1.0)


class TestFilter:
    def test_partition(self, rng):
        X = rng.normal(size=(60, 2))
        X[5] = (12.0, 12.0)
        data = Dataset(X, rng.normal(size=60), ("a", "b"))
        model = fit_segmented(data, FitConfig(
            leaf_size=10, leaf_method="constant", seed=4,
            outlier=OutlierConfig(enabled=True, contamination=0.05, n_trees=50, subsample=32)))
        kept = model.kept_rows
        removed = np.setdiff1d(np.arange(60), kept)
        assert kept.size + removed.size == 60
        assert removed.size == model.n_removed_outliers == 3  # floor(3.0 + 0.5)
        merged = np.sort(np.concatenate([data.response[kept], data.response[removed]]))
        assert np.array_equal(merged, np.sort(data.response))
        assert 12.0 in X[removed, 0]
        forest = fit_forest(data, n_trees=50, subsample=32, seed=4)
        assert np.array_equal(removed, removal_indices(anomaly_score_batch(forest, X), 0.05))

    def test_zero_contamination_keeps_everything(self, rng):
        data = make_dataset(rng.normal(size=(30, 2)))
        model = fit_segmented(data, FitConfig(
            leaf_size=5, leaf_method="constant",
            outlier=OutlierConfig(enabled=True, contamination=0.0, n_trees=10, subsample=16)))
        assert model.n_removed_outliers == 0
        assert np.array_equal(data.take(model.kept_rows).features, data.features)

    def test_recall_over_repeated_trials(self, rng):
        # A clear planted outlier should be caught in nearly every seeding.
        hits = 0
        trials = 20
        for t in range(trials):
            X = rng.normal(size=(100, 2))
            X[0] = (15.0, 15.0)
            data = make_dataset(X)
            forest = fit_forest(data, n_trees=100, subsample=64, seed=1000 + t)
            removed = removal_indices(anomaly_score_batch(forest, X), 0.03)
            if 15.0 in X[removed, 0]:
                hits += 1
        assert hits == trials

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from treeseg.data import Dataset
from treeseg.outliers import (anomaly_score_batch, average_path_length, fit_forest,
                              removal_indices)
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
        forests = [fit_forest(data, n_trees=20, subsample=32, seed=seed) for seed in (7, 7, 8)]
        a, b, c = (anomaly_score_batch(forest, data.features) for forest in forests)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(forests[0].threshold, forests[2].threshold)

    def test_scores_in_unit_interval(self, rng):
        data = make_dataset(rng.normal(size=(80, 2)))
        forest = fit_forest(data, n_trees=30, subsample=64, seed=1)
        scores = anomaly_score_batch(forest, data.features)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_subsample_larger_than_dataset(self, rng):
        data = make_dataset(rng.normal(size=(10, 1)))
        forest = fit_forest(data, n_trees=5, subsample=64, seed=0)
        assert forest.c_psi == average_path_length(64)
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


FOREST_ARRAYS = ("feature", "threshold", "left", "right", "leaf_value")


def check_forest(data, forest, n_trees, subsample, seed):
    """Regrow the forest node by node from its documented draws and compare.

    One `default_rng(seed)` draws every tree's subsample in tree order.
    Then, depth by depth, the nodes that may split (below the height limit,
    with a splittable feature) take one column each of a
    `rng.random((2, k))` draw, in node order: the first number picks the
    feature among the splittable ones, the second places the cut.
    """
    rng = np.random.default_rng(seed)
    height_limit = max(1, math.ceil(math.log2(subsample)))
    level = [(t, t,  # tree t starts at node t
              data.features[rng.choice(data.n_rows, size=subsample,
                                       replace=subsample > data.n_rows)])
             for t in range(n_trees)]
    assert forest.n_trees == n_trees
    leaf_rows = np.zeros(n_trees, dtype=int)
    first = 0
    for depth in range(height_limit + 1):
        # Nodes are numbered level by level, each node's children in turn.
        assert [node for _, node, _ in level] == list(range(first, first + len(level)))
        first += len(level)
        splittable = [rows.min(axis=0) < rows.max(axis=0) for _, _, rows in level]
        may_split = [i for i, s in enumerate(splittable) if depth < height_limit and s.any()]
        draws = dict(zip(may_split, rng.random((2, len(may_split))).T))
        children = []
        for i, (t, node, rows) in enumerate(level):
            if i in draws:
                columns = np.flatnonzero(splittable[i])
                q = columns[min(int(draws[i][0] * columns.size), columns.size - 1)]
                x = rows[:, q]
                lo, hi = x.min(), x.max()
                with np.errstate(over="ignore", invalid="ignore"):
                    p = lo + draws[i][1] * (hi - lo)
                if not lo < p < hi:
                    p = np.nextafter(lo, hi)
                if p < hi:
                    assert forest.feature[node] == q
                    assert forest.threshold[node] == np.nextafter(p, -np.inf)
                    assert np.nextafter(forest.threshold[node], np.inf) == p
                    goes_left = x <= forest.threshold[node]  # as cart.route walks
                    assert np.array_equal(goes_left, x < p)
                    children.append((t, int(forest.left[node]), rows[goes_left]))
                    children.append((t, int(forest.right[node]), rows[~goes_left]))
                    continue
            assert forest.left[node] == forest.right[node] == -1
            assert forest.leaf_value[node] == depth + average_path_length(rows.shape[0])
            leaf_rows[t] += rows.shape[0]
        level = children
    assert not level  # no leaf below the height limit
    assert first == forest.feature.size  # every node belongs to a tree
    assert np.all(leaf_rows == subsample)


_TIED = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0])
_REAL = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def forest_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=_TIED | _REAL))
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        X[:, j] = X[0, j]  # constant column
    return (make_dataset(X), draw(st.integers(1, 5)), draw(st.integers(2, 70)),
            draw(st.integers(0, 2**32 - 1)))


class TestForestBuild:
    @settings(max_examples=100, deadline=None)
    @given(forest_cases())
    def test_random_forests_are_well_formed(self, case):
        data, n_trees, subsample, seed = case
        forest = fit_forest(data, n_trees=n_trees, subsample=subsample, seed=seed)
        check_forest(data, forest, n_trees, subsample, seed)
        again = fit_forest(data, n_trees=n_trees, subsample=subsample, seed=seed)
        for name in FOREST_ARRAYS:
            assert np.array_equal(getattr(forest, name), getattr(again, name))

    @pytest.mark.parametrize("n_rows, subsample", [(10, 64), (1, 16), (5, 2), (300, 2)])
    def test_subsample_edges(self, rng, n_rows, subsample):
        # subsample > n_rows draws with replacement; n = 1 gives root leaves.
        data = make_dataset(rng.normal(size=(n_rows, 2)))
        forest = fit_forest(data, n_trees=8, subsample=subsample, seed=2)
        check_forest(data, forest, 8, subsample, 2)

    def test_constant_column_is_never_cut(self, rng):
        X = rng.normal(size=(80, 3))
        X[:, 1] = 4.5
        data = make_dataset(X)
        forest = fit_forest(data, n_trees=400, subsample=32, seed=1)
        check_forest(data, forest, 400, 32, 1)
        internal = forest.left >= 0
        assert internal.any() and not np.any(forest.feature[internal] == 1)
        # The root's feature is uniform over the two splittable columns
        # (binomial(400, 1/2): sd 10).
        picks = np.bincount(forest.feature[:forest.n_trees], minlength=3)
        assert 150 <= picks[0] <= 250 and 150 <= picks[2] <= 250

    def test_duplicate_rows_give_root_leaves(self):
        data = make_dataset(np.tile([[1.0, -2.0]], (30, 1)))
        forest = fit_forest(data, n_trees=6, subsample=16, seed=0)
        check_forest(data, forest, 6, 16, 0)
        assert forest.feature.size == 6 and np.all(forest.left == -1)
        assert np.all(forest.leaf_value == average_path_length(16))

    def test_cut_on_a_row_sends_the_row_right(self):
        # Three adjacent doubles: every root cut lands on the middle one,
        # by rounding or by the nextafter(lo, hi) fallback, and x < p
        # sends that row right.
        middle = np.nextafter(1.0, 2.0)
        x = np.array([1.0, middle, np.nextafter(middle, 2.0)])
        data = make_dataset(x[:, None])
        forest = fit_forest(data, n_trees=20, subsample=3, seed=0)
        check_forest(data, forest, 20, 3, 0)
        assert np.all(np.nextafter(forest.threshold[:forest.n_trees], np.inf) == x[1])

    def test_range_wider_than_the_largest_double(self):
        # hi - lo overflows; the cut falls back to nextafter(lo, hi).
        data = make_dataset([[-1e308], [0.0], [1e308]])
        forest = fit_forest(data, n_trees=4, subsample=3, seed=0)
        check_forest(data, forest, 4, 3, 0)


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

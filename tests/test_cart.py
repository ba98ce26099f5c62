"""Tree tests, anchored by an exact rational brute-force split oracle."""

from fractions import Fraction

import numpy as np
import pytest

from treeseg import cart
from treeseg.data import Dataset


def brute_force_split(X, y, min_child):
    """Independent exhaustive scan in exact rational arithmetic.

    Considers every (feature, midpoint-between-consecutive-distinct-values)
    candidate with both children >= min_child, computes the gain as an exact
    Fraction, and applies the tie rule (lower feature, lower threshold).
    Returns (feature, threshold, gain: Fraction) or None.
    """
    n = len(y)
    yf = [Fraction(float(v)) for v in y]
    total = sum(yf)
    parent = sum(v * v for v in yf) - total * total / n
    best = None
    for j in range(X.shape[1]):
        order = sorted(range(n), key=lambda i: X[i, j])
        run = Fraction(0)
        prefix = []
        for i in order:
            run += yf[i]
            prefix.append(run)
        for k in range(n - 1):
            a, b = X[order[k], j], X[order[k + 1], j]
            if not a < b:
                continue
            n_l = k + 1
            n_r = n - n_l
            if n_l < min_child or n_r < min_child:
                continue
            threshold = 0.5 * (a + b)
            if threshold >= b:  # same open-interval guard as the contract
                threshold = a
            s_l = prefix[k]
            s_r = total - s_l
            gain = s_l * s_l / n_l + s_r * s_r / n_r - total * total / n
            if gain <= 0:
                continue
            key = (j, threshold)
            if best is None or gain > best[2] or (gain == best[2] and key < (best[0], best[1])):
                best = (j, float(threshold), gain)
    del parent
    return best


def random_instance(seed):
    """Mixes continuous and heavily tied discrete instances."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 51))
    d = int(rng.integers(1, 5))
    if seed % 2 == 0:
        X = rng.normal(0, 3, size=(n, d))
        y = rng.normal(0, 5, size=n)
    else:
        # small integer grids force exact ties across features and thresholds
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(-2, 3, size=n).astype(float)
    if seed % 7 == 0 and d >= 2:
        X[:, 1] = X[:, 0]  # duplicated column: cross-feature ties
    min_child = int(rng.integers(1, 5))
    return X, y, min_child


class TestBestSplitOracle:
    def test_matches_brute_force_on_200_plus_instances(self):
        checked = 0
        tie_cases = 0
        for seed in range(240):
            X, y, min_child = random_instance(seed)
            expected = brute_force_split(X, y, min_child)
            got = cart.best_split(X, y, min_child)
            if expected is None:
                assert got is None, f"seed {seed}: expected no split, got {got}"
            else:
                assert got is not None, f"seed {seed}: expected {expected}, got None"
                assert got.feature == expected[0], f"seed {seed}"
                assert got.threshold == expected[1], f"seed {seed}"
                scale = max(1.0, abs(float(expected[2])))
                assert abs(got.gain - float(expected[2])) <= 1e-9 * scale, f"seed {seed}"
                if seed % 2 == 1:
                    tie_cases += 1
            checked += 1
        assert checked >= 200
        assert tie_cases >= 80  # the discrete half really exercises ties

    def test_spec_example_four_point_step(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        rule = cart.best_split(X, y, 1)
        assert rule.feature == 0
        assert rule.threshold == 2.5
        assert rule.gain == pytest.approx(100.0, abs=1e-12)

    def test_constant_response_no_split(self):
        X = np.arange(12.0).reshape(6, 2)
        assert cart.best_split(X, np.full(6, 3.25), 1) is None

    def test_duplicate_columns_tie_to_lower_feature(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=20)
        X = np.column_stack([col, col])
        y = rng.normal(size=20)
        rule = cart.best_split(X, y, 2)
        if rule is not None:
            assert rule.feature == 0

    def test_min_child_respected(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.array([0.0] * 9 + [100.0])
        rule = cart.best_split(X, y, 3)
        assert rule is not None
        left = int((X[:, 0] <= rule.threshold).sum())
        assert 3 <= left <= 7

    def test_too_few_rows_returns_none(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0])
        assert cart.best_split(X, y, 2) is None

    def test_invalid_min_child_rejected(self):
        with pytest.raises(cart.CartError):
            cart.best_split(np.zeros((4, 1)), np.zeros(4), 0)

    def test_overflowing_gains_raise(self):
        # Squares of responses near 1e211 overflow float64: every gain is
        # inf or NaN, which must not pass for "no split".
        x = np.arange(1200.0)
        data = make_dataset(x[:, None], 1.5 ** x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(cart.CartError, match="too large for float64"):
                cart.build_tree(data, 1)


def make_dataset(X, y, names=None):
    names = names or tuple(f"f{j}" for j in range(X.shape[1]))
    return Dataset(np.asarray(X, float), np.asarray(y, float), tuple(names))


class TestBuildTree:
    def test_single_leaf_when_leaf_size_is_n(self):
        data = make_dataset(np.arange(8.0).reshape(-1, 1), [1, 2, 3, 4, 5, 6, 7, 8])
        tree, _ = cart.build_tree(data, leaf_size=8)
        assert tree.n_leaves == 1
        assert cart.predict_mean_batch(tree, [[99.0]])[0] == pytest.approx(4.5)

    def test_two_plateau_first_split_at_boundary(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.uniform(0, 1, 50), rng.uniform(2, 3, 50)]).reshape(-1, 1)
        y = np.array([0.0] * 50 + [10.0] * 50)
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=10)
        assert tree.left[0] >= 0  # the root is a split
        assert 1.0 <= tree.threshold[0] <= 2.0
        assert cart.predict_mean_batch(tree, [[0.5]])[0] == pytest.approx(0.0)
        assert cart.predict_mean_batch(tree, [[2.5]])[0] == pytest.approx(10.0)

    def test_partition_and_min_size(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        tree, leaf_rows = cart.build_tree(make_dataset(X, y), leaf_size=17)
        leaves = np.flatnonzero(tree.left < 0)
        all_rows = np.concatenate(leaf_rows)
        assert sorted(all_rows.tolist()) == list(range(200))
        assert all(tree.count[leaves] >= 17)
        assert tree.segment_id[leaves].tolist() == list(range(tree.n_leaves))
        assert [rows.size for rows in leaf_rows] == tree.count[leaves].tolist()

    def test_leaf_stats_match_rows(self, rng):
        X = rng.normal(size=(120, 2))
        y = rng.normal(size=120)
        tree, leaf_rows = cart.build_tree(make_dataset(X, y), leaf_size=20)
        for segment_id, rows in enumerate(leaf_rows):
            node = tree.leaf_node(segment_id)
            sel = y[rows]
            assert tree.mean[node] == pytest.approx(sel.mean(), rel=1e-12)
            assert tree.std[node] == pytest.approx(sel.std(), rel=1e-12)

    def test_gain_identity(self, rng):
        X = rng.normal(size=(300, 3))
        y = rng.normal(size=300) * 4
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=25)

        def sse(idx):
            v = y[idx]
            return float(((v - v.mean()) ** 2).sum()) if idx.size else 0.0

        stack = [(0, np.arange(300))]
        seen = 0
        while stack:
            node, rows = stack.pop()
            if tree.left[node] < 0:
                continue
            mask = X[rows, tree.feature[node]] <= tree.threshold[node]
            l_rows, r_rows = rows[mask], rows[~mask]
            identity = sse(rows) - sse(l_rows) - sse(r_rows)
            assert identity == pytest.approx(tree.gain[node], rel=1e-9, abs=1e-9)
            stack.append((tree.left[node], l_rows))
            stack.append((tree.right[node], r_rows))
            seen += 1
        assert seen >= 3

    def test_monotone_leaf_count(self, rng):
        X = rng.normal(size=(250, 2))
        y = rng.normal(size=250)
        data = make_dataset(X, y)
        counts = [cart.build_tree(data, ls)[0].n_leaves for ls in (5, 10, 25, 60, 125, 250)]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 1

    def test_leaf_size_validation(self):
        data = make_dataset(np.zeros((5, 1)), np.arange(5.0))
        with pytest.raises(cart.CartError):
            cart.build_tree(data, leaf_size=0)
        with pytest.raises(cart.CartError):
            cart.build_tree(data, leaf_size=6)

    def test_training_rows_route_to_their_leaf(self, rng):
        X = rng.normal(size=(150, 3))
        y = rng.normal(size=150)
        tree, leaf_rows = cart.build_tree(make_dataset(X, y), leaf_size=12)
        ids = cart.assign_leaf_batch(tree, X)
        for segment_id, rows in enumerate(leaf_rows):
            assert np.all(ids[rows] == segment_id)

    def test_scale_equivariance_of_routing(self, rng):
        X = rng.normal(size=(180, 3))
        y = rng.normal(size=180)
        tree_a, _ = cart.build_tree(make_dataset(X, y), leaf_size=15)
        X_scaled = X.copy()
        X_scaled[:, 1] *= 8.0
        tree_b, _ = cart.build_tree(make_dataset(X_scaled, y), leaf_size=15)
        ids_a = cart.assign_leaf_batch(tree_a, X)
        ids_b = cart.assign_leaf_batch(tree_b, X_scaled)
        # memberships agree as partitions (ids may be relabeled)
        for segment in range(tree_a.n_leaves):
            members = ids_b[ids_a == segment]
            assert members.size > 0
            assert np.all(members == members[0])


def walk_to_leaf(tree, x):
    """Reference walk of one row down the flat arrays, node by node."""
    node = 0
    while tree.left[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return tree.segment_id[node]


class TestRouting:
    def test_boundary_goes_left(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 8.0, 8.0])
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=1)
        threshold = tree.threshold[0]
        left_id, below_id = cart.assign_leaf_batch(tree, [[threshold], [threshold - 0.25]])
        assert left_id == below_id

    def test_single_and_batch_agree(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=9)
        Q = rng.normal(size=(64, 2))
        batch = cart.assign_leaf_batch(tree, Q)
        singles = np.concatenate([cart.assign_leaf_batch(tree, q[None, :]) for q in Q])
        assert np.array_equal(batch, singles)
        means_batch = cart.predict_mean_batch(tree, Q)
        means_single = np.concatenate([cart.predict_mean_batch(tree, q[None, :]) for q in Q])
        assert np.array_equal(means_batch, means_single)

    def test_batch_routing_matches_pointer_walk_on_deep_tree(self, rng):
        X = rng.normal(size=(400, 3))
        y = np.sin(2.0 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(size=400) * 0.1
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=5)
        assert tree.n_leaves > 30
        Q = np.vstack([rng.normal(size=(200, 3)), X[:50]])
        singles = np.array([walk_to_leaf(tree, q) for q in Q])
        assert np.array_equal(cart.assign_leaf_batch(tree, Q), singles)
        for q, sid in zip(Q[:40], singles):
            assert cart.assign_leaf_batch(tree, q[None, :]).tolist() == [sid]

    def test_batch_routing_of_zero_rows(self, rng):
        X = rng.normal(size=(60, 2))
        tree, _ = cart.build_tree(make_dataset(X, rng.normal(size=60)), leaf_size=5)
        ids = cart.assign_leaf_batch(tree, np.empty((0, 2)))
        assert ids.shape == (0,) and ids.dtype == np.int64

    def test_dimension_mismatch(self):
        tree, _ = cart.build_tree(make_dataset(np.zeros((4, 2)), np.arange(4.0)), leaf_size=4)
        with pytest.raises(cart.CartError):
            cart.predict_mean_batch(tree, [[1.0, 2.0, 3.0]])
        with pytest.raises(cart.CartError):
            cart.assign_leaf_batch(tree, np.zeros((3, 5)))


class TestProfile:
    def test_single_leaf_profile_empty_conditions(self):
        data = make_dataset(np.zeros((6, 1)), np.arange(6.0))
        tree, _ = cart.build_tree(data, leaf_size=6)
        profile = cart.segment_profile(tree, 0)
        assert profile.conditions == ()
        assert profile.count == 6
        assert "entire training set" in profile.to_text()

    def test_depth_one_profiles_mirror_root_rule(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 8.0, 8.0])
        tree, _ = cart.build_tree(make_dataset(X, y, ("income",)), leaf_size=1)
        left = cart.segment_profile(tree, tree.segment_id[tree.left[0]])
        right = cart.segment_profile(tree, tree.segment_id[tree.right[0]])
        assert left.conditions[0].op == "<=" and right.conditions[0].op == ">"
        assert left.conditions[0].threshold == tree.threshold[0]
        assert "income" in left.to_text()

    def test_conditions_root_first(self, rng):
        X = rng.normal(size=(120, 2))
        y = X[:, 0] * 3 + rng.normal(size=120) * 0.1
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=15)
        deepest = max(range(tree.n_leaves),
                      key=lambda s: len(cart.segment_profile(tree, s).conditions))
        profile = cart.segment_profile(tree, deepest)
        assert len(profile.conditions) >= 2
        assert profile.conditions[0].feature == tree.feature[0]
        assert profile.conditions[0].threshold == tree.threshold[0]

    def test_unknown_segment_rejected(self):
        tree, _ = cart.build_tree(make_dataset(np.zeros((3, 1)), np.arange(3.0)), leaf_size=3)
        with pytest.raises(cart.CartError):
            cart.segment_profile(tree, 5)


class TestTreeDocument:
    def test_round_trip_preserves_routing_and_means(self, rng):
        X = rng.normal(size=(140, 3))
        y = rng.normal(size=140)
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=11)
        doc = cart.tree_to_dict(tree)
        clone = cart.tree_from_dict(doc)
        Q = rng.normal(size=(200, 3))
        assert np.array_equal(cart.assign_leaf_batch(tree, Q), cart.assign_leaf_batch(clone, Q))
        assert np.array_equal(cart.predict_mean_batch(tree, Q), cart.predict_mean_batch(clone, Q))

    def test_document_counts_and_means_aggregate(self, rng):
        X = rng.normal(size=(90, 2))
        y = rng.normal(size=90)
        tree, _ = cart.build_tree(make_dataset(X, y), leaf_size=10)
        doc = cart.tree_to_dict(tree)
        assert doc["root"]["count"] == 90
        assert doc["root"]["mean"] == pytest.approx(y.mean(), rel=1e-12)
        assert doc["feature_names"] == ["f0", "f1"]

    def test_permuted_segment_ids_kept(self, rng):
        X = rng.normal(size=(120, 2))
        tree, _ = cart.build_tree(make_dataset(X, rng.normal(size=120)), leaf_size=12)
        doc = cart.tree_to_dict(tree)
        perm = rng.permutation(tree.n_leaves)
        leaves, stack = [], [doc["root"]]
        while stack:
            node = stack.pop()
            if node["kind"] == "leaf":
                node["segment_id"] = int(perm[node["segment_id"]])
                leaves.append(node)
            else:
                stack += [node["left"], node["right"]]
        clone = cart.tree_from_dict(doc)
        assert cart.tree_to_dict(clone) == doc
        assert np.array_equal(cart.assign_leaf_batch(clone, X), perm[cart.assign_leaf_batch(tree, X)])
        for s in range(tree.n_leaves):
            assert (cart.segment_profile(clone, int(perm[s])).conditions
                    == cart.segment_profile(tree, s).conditions)
        leaves[0]["segment_id"] = leaves[1]["segment_id"]
        with pytest.raises(cart.CartError):
            cart.tree_from_dict(doc)

    def test_bad_document_rejected(self):
        with pytest.raises(cart.CartError):
            cart.tree_from_dict({"leaf_size": 1, "n_leaves": 1, "feature_names": ["a"],
                                 "root": {"kind": "mystery"}})


def oracle_data(kind, rng):
    """Real-valued, integer-grid and heavily tied instances for the oracle walk."""
    n = 240
    if kind == "real":
        X = rng.normal(size=(n, 3))
        y = np.sin(2.0 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(size=n) * 0.1
    elif kind == "grid":
        X = rng.integers(0, 8, size=(n, 3)).astype(float)
        y = X[:, 0] - 0.5 * X[:, 2] + rng.normal(size=n)
    else:
        X = rng.integers(0, 3, size=(n, 3)).astype(float)
        X[:, 2] = X[:, 0]  # duplicated column: cross-feature ties
        y = rng.integers(-2, 3, size=n).astype(float)
    return X, y


class TestBuildTreeMatchesOracle:
    @pytest.mark.parametrize("leaf_size", [1, 3, 20])
    @pytest.mark.parametrize("kind", ["real", "grid", "tied"])
    def test_every_node_splits_as_best_split(self, kind, leaf_size, rng):
        # build_tree never sorts a node; the public best_split sorts each
        # node afresh. Both must pick the same split, bit for bit.
        X, y = oracle_data(kind, rng)
        tree, leaf_rows = cart.build_tree(make_dataset(X, y), leaf_size)
        stack = [(0, np.arange(X.shape[0]))]
        splits = 0
        while stack:
            node, rows = stack.pop()
            rule = cart.best_split(X[rows], y[rows], leaf_size)
            if tree.left[node] < 0:
                assert rule is None
                assert np.array_equal(leaf_rows[tree.segment_id[node]], rows)
                continue
            assert (rule.feature, rule.threshold, rule.gain) == (
                tree.feature[node], tree.threshold[node], tree.gain[node])
            mask = X[rows, rule.feature] <= rule.threshold
            stack.append((tree.left[node], rows[mask]))
            stack.append((tree.right[node], rows[~mask]))
            splits += 1
        assert splits >= 3


def tree_equal(a, b):
    """Same tree document and same leaf rows, bit for bit."""
    (tree_a, rows_a), (tree_b, rows_b) = a, b
    assert cart.tree_to_dict(tree_a) == cart.tree_to_dict(tree_b)
    for name in ("feature", "threshold", "gain", "left", "right", "segment_id", "count",
                 "mean", "std"):
        assert np.array_equal(getattr(tree_a, name), getattr(tree_b, name)), name
    assert len(rows_a) == len(rows_b)
    assert all(np.array_equal(ra, rb) for ra, rb in zip(rows_a, rows_b))


class TestBuildTrees:
    @pytest.mark.parametrize("kind", ["real", "grid", "tied"])
    def test_each_tree_equals_its_own_build(self, kind, rng):
        # Sizes 1-3 run the exact stage; duplicates collapse, order is free,
        # and sizes above n/2 leave the root a leaf.
        X, y = oracle_data(kind, rng)
        data = make_dataset(X, y)
        n = X.shape[0]
        grid = [20, 3, 1, 2, 3, 7, n, n // 2 + 1, 1]
        trees = cart.build_trees(data, grid)
        assert sorted(trees) == sorted(set(grid))
        for leaf_size in grid:
            tree_equal(trees[leaf_size], cart.build_tree(data, leaf_size))
            assert trees[leaf_size][0].leaf_size == leaf_size

    def test_invalid_grids_raise_like_build_tree(self, rng):
        X, y = oracle_data("real", rng)
        data = make_dataset(X, y)
        n = X.shape[0]
        for grid in ([3, n + 1, 1], [0, 5], []):
            with pytest.raises(cart.CartError):
                cart.build_trees(data, grid)
        with pytest.raises(cart.CartError):
            cart.build_tree(data, n + 1)

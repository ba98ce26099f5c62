"""Property tests of the tree partition on small random matrices."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from treeseg import cart  # noqa: E402
from treeseg.data import Dataset  # noqa: E402

# Few distinct values, so ties within and across columns are common.
_TIED = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0])
_REAL = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=_TIED | _REAL))
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        X[:, j] = X[0, j]  # constant column
    y = draw(arrays(np.float64, n, elements=_TIED | _REAL))
    return Dataset(X, y, tuple(f"f{j}" for j in range(d)))


@st.composite
def trees(draw):
    data = draw(datasets())
    leaf_size = draw(st.integers(1, data.n_rows))
    return data, leaf_size, cart.build_tree(data, leaf_size)


_SETTINGS = settings(max_examples=150, deadline=None)


@_SETTINGS
@given(trees())
def test_leaf_rows_partition_the_training_rows(case):
    data, leaf_size, (tree, leaf_rows) = case
    assert len(leaf_rows) == tree.n_leaves
    assert np.array_equal(np.sort(np.concatenate(leaf_rows)), np.arange(data.n_rows))
    for rows in leaf_rows:
        assert rows.size >= leaf_size
        assert np.all(np.diff(rows) > 0)


@_SETTINGS
@given(trees())
def test_training_rows_route_to_their_own_leaf(case):
    data, _, (tree, leaf_rows) = case
    segment = cart.assign_leaf_batch(tree, data.features)
    for segment_id, rows in enumerate(leaf_rows):
        assert np.all(segment[rows] == segment_id)


@_SETTINGS
@given(st.data())
def test_joint_build_equals_one_build_per_size(draw):
    data = draw.draw(datasets())
    grid = draw.draw(st.lists(st.integers(1, data.n_rows), min_size=1, max_size=6))
    trees = cart.build_trees(data, grid)
    assert sorted(trees) == sorted(set(grid))
    for leaf_size in set(grid):
        (tree, leaf_rows), (one, one_rows) = trees[leaf_size], cart.build_tree(data, leaf_size)
        assert cart.tree_to_dict(tree) == cart.tree_to_dict(one)
        assert len(leaf_rows) == len(one_rows)
        assert all(np.array_equal(a, b) for a, b in zip(leaf_rows, one_rows))


@_SETTINGS
@given(datasets())
def test_feature_order_is_a_read_only_stable_argsort(data):
    order = data.feature_order
    assert np.array_equal(order, np.argsort(data.features, axis=0, kind="stable").T)
    assert order is data.feature_order  # sorted once, then shared
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0, 0] = 0

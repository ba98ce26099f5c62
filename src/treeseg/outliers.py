"""Isolation-forest anomaly scoring and training-set filtering.

Each tree isolates a uniform subsample with random axis-aligned cuts;
records that end up in shallow leaves are easy to isolate and score close
to 1. Filtering drops the requested fraction of highest-scoring rows
before any model fitting. Scores follow s(x) = 2^(-E[h(x)] / c(psi)) where
h is the leaf depth plus the average-path-length adjustment c(leaf count).

Liu, Ting & Zhou (ICDM 2008) grow each tree recursively. `fit_forest`
grows all trees together instead, one depth at a time, with a few array
passes per depth for every node of every tree. The forest is one set of
flat arrays in the layout of `cart`, numbered level by level, and each
tree is routed from its root by `cart.route`, the walk the regression
tree uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cart import route
from .data import Dataset

_EULER_GAMMA = 0.5772156649


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length c(n) in a binary search tree.

    c(0) = c(1) = 0 and c(2) = 1 by convention; beyond that
    c(n) = 2(ln(n-1) + gamma) - 2(n-1)/n.
    """
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + _EULER_GAMMA) - 2.0 * (n - 1) / n


@dataclass
class IsolationForest:
    """Every tree of the forest in one flat layout that `cart.route` walks.

    Internal node i sends x to `left[i]` when x[feature[i]] < p, for the
    cut p drawn at that node, and to `right[i]` otherwise. The router tests
    `<=`, so `threshold[i]` holds nextafter(p, -inf), the largest double
    below p: for doubles, x < p exactly when x <= nextafter(p, -inf).
    Leaves have left[i] == -1 and carry `leaf_value[i]` = depth + c(count).
    Nodes are numbered level by level across all trees: the `n_trees`
    roots first, so tree t starts at node t, then every tree's depth-1
    nodes, and so on.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    n_trees: int
    c_psi: float
    n_features: int


def fit_forest(data: Dataset, n_trees: int = 100, subsample: int = 256,
               seed: int = 0) -> IsolationForest:
    """Build an isolation forest on independent uniform subsamples.

    One random stream, `default_rng(seed)`, first draws every tree's
    subsample in tree order, without replacement (with replacement only
    when subsample exceeds the dataset). The trees then grow together, one
    depth at a time: every tree's rows sit in one block, grouped by node,
    and each depth takes all nodes' per-feature ranges in one pass. A node
    is a leaf at depth >= ceil(log2(subsample)), with at most one row, or
    when no feature is splittable. Every other node of the depth gets two
    numbers from one `rng.random((2, k))` draw: the first picks a feature
    uniformly among the node's splittable ones, the second places the cut
    at lo + u (hi - lo) on it. A cut that misses the open interval
    (lo, hi) falls back to nextafter(lo, hi); if that is hi, the node is
    a leaf. Deterministic for a fixed seed.
    """
    if subsample < 2:
        raise ValueError("subsample must be >= 2")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n = data.n_rows
    if n == 0:
        raise ValueError("cannot fit a forest on an empty dataset")
    height_limit = max(1, math.ceil(math.log2(subsample)))
    rng = np.random.default_rng(seed)
    take = np.concatenate([rng.choice(n, size=subsample, replace=subsample > n)
                           for _ in range(n_trees)])
    block = data.features[take]  # the rows of the open nodes, grouped by node
    counts = np.full(n_trees, subsample, dtype=np.intp)  # rows of each node at this depth
    # c(count) for every count a node can hold, from the scalar formula, so
    # that leaf values are the same doubles as depth + average_path_length.
    c_table = np.array([average_path_length(m) for m in range(subsample + 1)])
    levels = []
    first = 0  # number of the depth's first node
    for depth in range(height_limit + 1):
        k = counts.size
        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.zeros(k, dtype=np.float64)
        left = np.full(k, -1, dtype=np.int64)
        right = np.full(k, -1, dtype=np.int64)
        leaf_value = depth + c_table[counts]
        levels.append((feature, threshold, left, right, leaf_value))
        if depth == height_limit:
            break
        starts = np.cumsum(counts) - counts  # every node holds at least one row
        lo = np.minimum.reduceat(block, starts, axis=0)
        hi = np.maximum.reduceat(block, starts, axis=0)
        splittable = lo < hi
        n_split = splittable.sum(axis=1)
        nodes = np.flatnonzero(n_split)  # a node with one row has none
        u = rng.random((2, nodes.size))
        pick = np.minimum((u[0] * n_split[nodes]).astype(np.intp), n_split[nodes] - 1)
        q = (np.cumsum(splittable[nodes], axis=1) > pick[:, None]).argmax(axis=1)
        lo_q, hi_q = lo[nodes, q], hi[nodes, q]
        with np.errstate(over="ignore", invalid="ignore"):  # hi - lo may overflow
            p = lo_q + u[1] * (hi_q - lo_q)
        missed = ~((lo_q < p) & (p < hi_q))  # guard the open-interval invariant
        p[missed] = np.nextafter(lo_q[missed], hi_q[missed])
        cut = p < hi_q
        nodes, q, p = nodes[cut], q[cut], p[cut]
        if nodes.size == 0:
            break
        children = first + k + 2 * np.arange(nodes.size)
        feature[nodes] = q
        threshold[nodes] = np.nextafter(p, -np.inf)
        left[nodes] = children
        right[nodes] = children + 1
        leaf_value[nodes] = 0.0
        # Rows of the nodes that split, sent to their children: the left
        # child holds x < p, and each child's rows stay together.
        rank = np.full(k, -1, dtype=np.intp)
        rank[nodes] = np.arange(nodes.size)
        row_rank = np.repeat(rank, counts)
        rows = np.flatnonzero(row_rank >= 0)
        row_rank = row_rank[rows]
        goes_right = ~(block[rows, q[row_rank]] < p[row_rank])
        child = 2 * row_rank + goes_right
        block = block[rows[np.argsort(child, kind="stable")]]
        counts = np.bincount(child, minlength=2 * nodes.size)
        first += k
    feature, threshold, left, right, leaf_value = (np.concatenate(a) for a in zip(*levels))
    return IsolationForest(feature=feature, threshold=threshold, left=left, right=right,
                           leaf_value=leaf_value, n_trees=n_trees,
                           c_psi=average_path_length(subsample), n_features=data.n_features)


def anomaly_score_batch(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """Score every row: 2^(-mean path length / c(psi)), each in (0, 1)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected a matrix with {forest.n_features} columns")
    total = np.zeros(X.shape[0], dtype=np.float64)
    for t in range(forest.n_trees):
        total += forest.leaf_value[route(forest, X, t)]
    mean_path = total / forest.n_trees
    return np.power(2.0, -mean_path / forest.c_psi)


def removal_indices(scores: np.ndarray, contamination: float) -> np.ndarray:
    """Row indices to drop: the round(contamination*N) highest scores.

    Score ties at the cutoff are broken by row index with the lower index
    kept. Rounding is half-away-from-zero. Returned sorted ascending.
    """
    if not 0.0 <= contamination < 1.0:
        raise ValueError("contamination must be in [0, 1)")
    n = scores.shape[0]
    k = int(math.floor(contamination * n + 0.5))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((-np.arange(n), -scores))  # score desc, then index desc
    return np.sort(order[:k])


"""Isolation-forest anomaly scoring and training-set filtering.

Each tree recursively isolates a uniform subsample with random axis-aligned
cuts; records that end up in shallow leaves are easy to isolate and score
close to 1. Filtering drops the requested fraction of highest-scoring rows
before any model fitting. Scores follow s(x) = 2^(-E[h(x)] / c(psi)) where
h is the leaf depth plus the average-path-length adjustment c(leaf count).

Trees use the flat preorder layout of `cart` and are routed by
`cart.route`, the walk the regression tree uses.
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
class IsolationTree:
    """One random isolation tree in the flat layout `cart.route` walks.

    Internal node i sends x to `left[i]` when x[feature[i]] < p, for the
    cut p drawn at that node, and to `right[i]` otherwise. The router tests
    `<=`, so `threshold[i]` holds nextafter(p, -inf), the largest double
    below p: for doubles, x < p exactly when x <= nextafter(p, -inf).
    Leaves have left[i] == -1 and carry `leaf_value[i]` = depth + c(count).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    height_limit: int


@dataclass
class IsolationForest:
    trees: list[IsolationTree]
    subsample_size: int
    n_trees: int
    c_psi: float
    n_features: int
    seed: int


def _build_tree(X: np.ndarray, rng: np.random.Generator, height_limit: int) -> IsolationTree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0], dtype=np.intp), 0)]
    while stack:
        node, rows, depth = stack.pop()
        sub = X[rows]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        splittable = np.nonzero(lo < hi)[0]
        if depth >= height_limit or rows.size <= 1 or splittable.size == 0:
            leaf_value[node] = depth + average_path_length(rows.size)
            continue
        q = int(splittable[rng.integers(splittable.size)])
        p = float(rng.uniform(lo[q], hi[q]))
        if not (lo[q] < p < hi[q]):  # guard the open-interval invariant
            p = float(np.nextafter(lo[q], hi[q]))
            if not (p < hi[q]):
                leaf_value[node] = depth + average_path_length(rows.size)
                continue
        mask = sub[:, q] < p
        feature[node] = q
        threshold[node] = float(np.nextafter(p, -np.inf))
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], rows[mask], depth + 1))
        stack.append((right[node], rows[~mask], depth + 1))

    return IsolationTree(feature=np.array(feature, dtype=np.int64),
                         threshold=np.array(threshold, dtype=np.float64),
                         left=np.array(left, dtype=np.int64),
                         right=np.array(right, dtype=np.int64),
                         leaf_value=np.array(leaf_value, dtype=np.float64),
                         height_limit=height_limit)


def fit_forest(data: Dataset, n_trees: int = 100, subsample: int = 256,
               seed: int = 0) -> IsolationForest:
    """Build an isolation forest on independent uniform subsamples.

    Each tree gets its own random stream derived from the seed, drawn
    without replacement (with replacement only when subsample exceeds the
    dataset). height_limit = ceil(log2(subsample)). Deterministic for a
    fixed seed.
    """
    if subsample < 2:
        raise ValueError("subsample must be >= 2")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n = data.n_rows
    if n == 0:
        raise ValueError("cannot fit a forest on an empty dataset")
    height_limit = max(1, math.ceil(math.log2(subsample)))
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for ss in streams:
        rng = np.random.default_rng(ss)
        take = rng.choice(n, size=subsample, replace=subsample > n)
        trees.append(_build_tree(data.features[take], rng, height_limit))
    return IsolationForest(trees=trees, subsample_size=subsample, n_trees=n_trees,
                           c_psi=average_path_length(subsample),
                           n_features=data.n_features, seed=seed)


def anomaly_score_batch(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """Score every row: 2^(-mean path length / c(psi)), each in (0, 1)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected a matrix with {forest.n_features} columns")
    total = np.zeros(X.shape[0], dtype=np.float64)
    for tree in forest.trees:
        total += tree.leaf_value[route(tree, X)]
    mean_path = total / forest.n_trees
    return np.power(2.0, -mean_path / forest.c_psi)


def anomaly_score(forest: IsolationForest, x: np.ndarray) -> float:
    """Anomaly score of a single record (a one-row batch)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} feature values, got {x.shape[0]}")
    return float(anomaly_score_batch(forest, x[None, :])[0])


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


"""Variance-minimizing binary regression tree used as the data segmenter.

Splits are axis-aligned thresholds chosen to maximize the reduction in the
sum of squared deviations of the response. The minimum-child-size constraint
(`leaf_size`) is the only stopping rule: a node splits only when both
children would keep at least `leaf_size` rows and the best gain is positive.

No node sorts. Each feature is sorted once per training set
(`Dataset.feature_order`), and a split hands each child its rows in every
feature's sorted order by a stable partition of the parent's order (the
SLIQ/SPRINT attribute lists of Mehta et al. and Shafer et al., 1996).
Ties stay in rising row index, so a child's order is exactly the stable
sort of its own rows, and `best_split`, which sorts a node afresh, picks
the same split bit for bit. `build_trees` grows the trees of several leaf
sizes in one pass: the trees agree until their best splits differ, so a
shared node is scanned once, and its gains serve every size through the
cuts whose smaller child keeps at least that many rows.

Split selection must be exactly reproducible, ties included, so the scan
runs in two stages: one float64 prefix-sum pass over the node's whole
features x rows order (one cumulative sum, one gain array for every
(feature, midpoint) candidate), then an exact rational re-rank of the
candidates within a small band of the best gain. The exact stage almost
never triggers on real-valued data; it makes tie-breaking (lowest feature
index, then lowest threshold) an arithmetic fact rather than a float
accident.

A tree is a set of parallel arrays indexed by node, in preorder: the root
is node 0, and a left child comes right after its parent, before the right
child's subtree. Internal node i sends a row left when
`x[feature[i]] <= threshold[i]`; leaves have `left[i] == right[i] == -1`.
`route` walks any tree in this layout and returns each row's leaf node;
the isolation forest in `outliers` shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import Dataset, _integer, _real


class CartError(ValueError):
    """Raised for invalid tree construction or routing requests."""


@dataclass(frozen=True)
class SplitRule:
    """Axis-aligned split: rows with feature value <= threshold go left."""

    feature: int
    threshold: float
    gain: float


@dataclass(frozen=True)
class RegressionTree:
    """Segmentation tree as parallel per-node arrays, in preorder.

    Splits use `feature`, `threshold`, `gain`, `left` and `right` (-1, 0.0,
    0.0, -1, -1 at leaves). Leaves carry their `segment_id` and the `count`,
    `mean` and population `std` of their training responses (-1, 0, 0.0,
    0.0 at internal nodes).
    """

    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    left: np.ndarray
    right: np.ndarray
    segment_id: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    leaf_size: int
    feature_names: tuple[str, ...]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.left < 0))

    def leaf_node(self, segment_id: int) -> int:
        """Node index of a segment's leaf."""
        nodes = np.flatnonzero((self.segment_id == segment_id) & (self.left < 0))
        if nodes.size == 0:
            raise CartError(f"unknown segment id {segment_id}")
        return int(nodes[0])


def _tree(nodes: list[list], leaf_size: int, feature_names) -> RegressionTree:
    """Tree from per-node rows [feature, threshold, gain, left, right,
    segment_id, count, mean, std], listed in preorder."""
    feature, threshold, gain, left, right, segment_id, count, mean, std = zip(*nodes)
    return RegressionTree(
        feature=np.array(feature, dtype=np.int64), threshold=np.array(threshold, dtype=np.float64),
        gain=np.array(gain, dtype=np.float64), left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64), segment_id=np.array(segment_id, dtype=np.int64),
        count=np.array(count, dtype=np.int64), mean=np.array(mean, dtype=np.float64),
        std=np.array(std, dtype=np.float64), leaf_size=leaf_size,
        feature_names=tuple(feature_names))


# Candidates whose float64 gain falls within BAND_REL * scale of the best are
# re-ranked exactly; the float error of the centered prefix-sum gain is
# orders of magnitude below this for any realistic node size.
_BAND_REL = 1e-9


def _gains_exact(ys: np.ndarray, ks: np.ndarray) -> list[Fraction]:
    """Exact rational gains of the cuts after sorted positions ks, given a
    node's responses in one feature's sorted order."""
    n = ys.shape[0]
    prefix = []
    run = Fraction(0)
    for v in ys.tolist():
        run += Fraction(v)
        prefix.append(run)
    s_tot = prefix[-1]
    out = []
    for k in ks:
        s_l = prefix[k]
        n_l = int(k) + 1
        s_r = s_tot - s_l
        n_r = n - n_l
        out.append(s_l * s_l / n_l + s_r * s_r / n_r - s_tot * s_tot / n)
    return out


def _pick(gains: np.ndarray, lo: int, xs: np.ndarray, y: np.ndarray, order: np.ndarray,
          sse_parent: float) -> SplitRule | None:
    """Best split among the candidate cuts after sorted positions lo, lo+1, ...
    whose float64 gains are the columns of `gains` (features x positions)."""
    if gains.size == 0:
        return None
    best = int(np.argmax(gains))  # the first maximum, or the first NaN
    best_gain = float(gains.flat[best])
    if best_gain == -np.inf:
        return None
    if not (np.isfinite(best_gain) and np.isfinite(sse_parent)):
        raise CartError("the response is too large for float64 split gains")

    band = _BAND_REL * max(sse_parent, abs(best_gain))
    if best_gain > band and np.count_nonzero(gains >= best_gain - band) == 1:
        feature, k = divmod(best, gains.shape[1])
        lower, upper = float(xs[feature, lo + k]), float(xs[feature, lo + k + 1])
        threshold = 0.5 * (lower + upper)
        return SplitRule(feature, lower if threshold >= upper else threshold, best_gain)

    # Feature first, then rising position (so rising threshold): the tie order.
    features, ks = np.divmod(np.flatnonzero(gains >= best_gain - band), gains.shape[1])
    ks += lo
    lower, upper = xs[features, ks], xs[features, ks + 1]
    thresholds = 0.5 * (lower + upper)
    # Midpoints of adjacent representable values can round up to the right
    # value; clamp so `value <= threshold` always realizes the intended cut.
    thresholds = np.where(thresholds >= upper, lower, thresholds)

    # Near-tie or sign in doubt: settle it with exact rational arithmetic.
    best_rule = None
    best_exact = Fraction(0)
    for j in np.unique(features).tolist():
        sel = features == j
        exact = _gains_exact(y[order[j]], ks[sel])
        for threshold, gain in zip(thresholds[sel].tolist(), exact):
            if gain > best_exact:
                best_exact = gain
                best_rule = SplitRule(feature=j, threshold=threshold, gain=float(gain))
    return best_rule


def _scan(columns: np.ndarray, y: np.ndarray, rows: np.ndarray, order: np.ndarray,
          sizes: list[int]) -> list[SplitRule | None]:
    """Best split of the node holding `rows` (ascending indices into y), for
    each minimum child size in `sizes` (ascending), aligned with `sizes`.

    `columns` is the features x rows matrix; `order` is features x len(rows),
    row j listing the node's rows sorted stably by `columns[j]`. The gains
    are computed once, at the smallest size; a larger size takes the best of
    the cuts that leave both of its children enough rows.
    """
    n = rows.shape[0]
    rules: list[SplitRule | None] = [None] * len(sizes)
    m = sizes[0]
    if n < 2 * m:
        return rules
    y_node = y[rows]
    mean = np.add.reduce(y_node) / n  # ndarray.mean's bits, with less call overhead
    yc = y_node - mean
    sse_parent = float(yc @ yc)
    if sse_parent == 0.0:
        return rules

    # Column c of the candidate block is the cut after sorted position
    # m-1+c, for c = 0 .. n-2m; every array below is features x positions.
    xs = columns[np.arange(order.shape[0])[:, None], order]
    prefix = np.cumsum(y[order] - mean, axis=1)
    lo, hi = m - 1, n - m
    s_tot = prefix[:, -1:].copy()
    s_l = prefix[:, lo:hi]
    n_l = np.arange(lo, hi) + 1.0
    # s_l*s_l/n_l + s_r*s_r/n_r - s_tot*s_tot/n, in place, in that order.
    gains = s_l * s_l
    gains /= n_l
    s_r = np.subtract(s_tot, s_l, out=s_l)
    s_r *= s_r
    s_r /= n - n_l
    gains += s_r
    gains -= s_tot * s_tot / n
    gains[~(xs[:, lo:hi] < xs[:, lo + 1:hi + 1])] = -np.inf  # no cut between equal values
    for i, size in enumerate(sizes):
        if n < 2 * size:
            break
        # Both children keep >= size rows: cuts after positions size-1 .. n-size-1.
        rules[i] = _pick(gains[:, size - m:n - size - m + 1], size - 1, xs, y, order, sse_parent)
    return rules


def best_split(X: np.ndarray, y: np.ndarray, min_child: int) -> SplitRule | None:
    """Best variance-reducing split over every (feature, midpoint) candidate.

    Candidates are the midpoints between consecutive distinct sorted values
    of each feature, restricted to positions where both children hold at
    least `min_child` rows. Returns None when no candidate has positive
    gain. Ties are broken by lower feature index, then lower threshold.
    Raises CartError when the response is too large for float64 gains.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if min_child < 1:
        raise CartError("min_child must be >= 1")
    order = np.argsort(X, axis=0, kind="stable").T
    return _scan(X.T, y, np.arange(y.shape[0]), order, [min_child])[0]


def build_tree(train: Dataset, leaf_size: int) -> tuple[RegressionTree, list[np.ndarray]]:
    """Grow the segmentation tree; every leaf keeps >= leaf_size rows.

    Returns the tree and, indexed by segment id, the training rows of each
    leaf. Construction is deterministic: split scanning, tie-breaking and
    the left-first segment numbering have no random or order-dependent
    state. This is `build_trees` with a one-size grid.
    """
    return build_trees(train, [leaf_size])[leaf_size]


def build_trees(train: Dataset, leaf_sizes
                ) -> dict[int, tuple[RegressionTree, list[np.ndarray]]]:
    """Grow the tree of every leaf size in `leaf_sizes` in one pass.

    Returns, for each distinct size, what `build_tree(train, size)` returns,
    bit for bit. The trees agree until their best splits differ, so a node
    that several trees share is scanned once for all of them. No node sorts:
    the root starts from `train.feature_order`, and each child's order is a
    stable partition of its parent's.
    """
    n = train.n_rows
    sizes = sorted(set(leaf_sizes))
    if not sizes:
        raise CartError("leaf_sizes must be non-empty")
    if sizes[0] < 1:
        raise CartError("leaf_size must be >= 1")
    if sizes[-1] > n:
        raise CartError(f"leaf_size={sizes[-1]} exceeds the {n} training rows")
    X, y = train.features, train.response
    columns = X.T

    def child_order(order: np.ndarray, side: np.ndarray, size: int,
                    group: list[int]) -> np.ndarray | None:
        # Compressing each sorted row keeps its order, so the child's row j is
        # still its rows sorted by feature j with ties by rising index.
        return order[side].reshape(order.shape[0], size) if size >= 2 * group[0] else None

    nodes: dict[int, list[list]] = {size: [] for size in sizes}
    leaf_rows: dict[int, list[np.ndarray]] = {size: [] for size in sizes}
    goes_left = np.empty(n, dtype=bool)
    # An entry is a node shared by the trees of a group of sizes (ascending):
    # its rows, their per-feature order (None when too few rows to split) and,
    # per size, the node whose right child it is in that tree, or -1. The
    # stack pops a left child right after its parent, so in each tree nodes
    # are numbered, and leaves given segment ids, in preorder.
    root_order = train.feature_order if n >= 2 * sizes[0] else None
    stack: list[tuple] = [(np.arange(n, dtype=np.intp), root_order, sizes, [-1] * len(sizes))]
    while stack:
        rows, order, group, parents = stack.pop()
        rules = [None] * len(group) if order is None else _scan(columns, y, rows, order, group)
        leaf = None
        splits: dict[tuple, tuple[list[int], list[int]]] = {}
        for size, parent, rule in zip(group, parents, rules):
            tree = nodes[size]
            node = len(tree)
            if parent >= 0:
                tree[parent][4] = node
            if rule is None:
                if leaf is None:
                    # The bits of ndarray.mean and .std, with less call overhead.
                    v = y[rows]
                    mean = np.add.reduce(v) / v.size
                    dev = v - mean
                    var = np.add.reduce(dev * dev) / v.size
                    leaf = [int(v.size), float(mean), float(np.sqrt(var))]
                tree.append([-1, 0.0, 0.0, -1, -1, len(leaf_rows[size]), *leaf])
                leaf_rows[size].append(rows)
            else:
                # Each size keeps its own gain: the same cut can come from the
                # exact stage for one size and the float64 stage for another.
                tree.append([rule.feature, rule.threshold, rule.gain, node + 1, -1, -1, 0, 0.0, 0.0])
                split = splits.setdefault((rule.feature, rule.threshold), ([], []))
                split[0].append(size)
                split[1].append(node)
        for (feature, threshold), (sub, sub_nodes) in splits.items():
            mask = columns[feature][rows] <= threshold
            left, right = rows[mask], rows[~mask]
            goes_left[rows] = mask
            side = goes_left[order]
            stack.append((right, child_order(order, ~side, right.size, sub), sub, sub_nodes))
            stack.append((left, child_order(order, side, left.size, sub), sub, [-1] * len(sub)))
    return {size: (_tree(nodes[size], size, train.feature_names), leaf_rows[size])
            for size in sizes}


def route(tree, X: np.ndarray, start: int = 0) -> np.ndarray:
    """Leaf node of every row of X, for any tree in the flat layout.

    `tree` needs `feature`, `threshold`, `left` and `right` arrays; the walk
    begins at node `start`, and a row goes left at node i when
    `X[row, feature[i]] <= threshold[i]`. Only children that some rows
    reach are walked, so routing few rows costs time in proportion to the
    depth, not to the size of the tree.
    """
    feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
    columns = X.T  # a 1-D gather from one column is cheaper than X[idx, j]
    out = np.empty(X.shape[0], dtype=np.intp)
    walk = [(start, np.arange(X.shape[0], dtype=np.intp))]
    while walk:
        node, idx = walk.pop()
        if left[node] < 0:
            out[idx] = node
            continue
        mask = columns[feature[node]][idx] <= threshold[node]
        goes_left = idx[mask]
        if goes_left.size == idx.size:
            walk.append((left[node], idx))
        elif goes_left.size == 0:
            walk.append((right[node], idx))
        else:
            walk.append((right[node], idx[~mask]))
            walk.append((left[node], goes_left))
    return out


def _route_checked(tree: RegressionTree, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise CartError(f"expected a matrix with {tree.n_features} columns")
    return route(tree, X)


def assign_leaf_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Segment id of every row (<= goes left, including equality)."""
    return tree.segment_id[_route_checked(tree, X)]


def predict_mean_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Plain-CART prediction of every row: the training mean of its leaf."""
    return tree.mean[_route_checked(tree, X)]


@dataclass(frozen=True)
class Condition:
    feature: int
    name: str
    op: str  # "<=" or ">"
    threshold: float

    def to_text(self) -> str:
        return f"{self.name} {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class Profile:
    """Root-to-leaf rule path of one segment, plus its size and mean."""

    segment_id: int
    conditions: tuple[Condition, ...]
    count: int
    mean_response: float

    def to_text(self) -> str:
        head = f"segment {self.segment_id}: count={self.count} mean_response={self.mean_response:.6g}"
        if not self.conditions:
            return head + "\n  (entire training set)"
        return head + "\n" + "\n".join(f"  {c.to_text()}" for c in self.conditions)


def segment_profile(tree: RegressionTree, segment_id: int) -> Profile:
    """Conjunction of split conditions on the path to a segment, root first."""
    target = tree.leaf_node(segment_id)
    conditions = []
    node = 0
    while node != target:
        f = int(tree.feature[node])
        # Preorder: the left subtree of a node holds the nodes before right[node].
        goes_left = target < tree.right[node]
        conditions.append(Condition(f, tree.feature_names[f], "<=" if goes_left else ">",
                                    float(tree.threshold[node])))
        node = int(tree.left[node] if goes_left else tree.right[node])
    return Profile(segment_id=segment_id, conditions=tuple(conditions),
                   count=int(tree.count[target]), mean_response=float(tree.mean[target]))


def tree_to_dict(tree: RegressionTree) -> dict:
    """Nested-node document of the tree (feature names, thresholds, counts, means)."""
    feature, threshold, gain, left, right, segment_id, count, mean, std = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.gain, tree.left, tree.right,
                             tree.segment_id, tree.count, tree.mean, tree.std))

    def node_doc(i: int) -> tuple[dict, int, float]:
        if left[i] < 0:
            doc = {"kind": "leaf", "segment_id": segment_id[i],
                   "count": count[i], "mean": mean[i], "std": std[i]}
            return doc, count[i], mean[i]
        left_doc, nl, ml = node_doc(left[i])
        right_doc, nr, mr = node_doc(right[i])
        n = nl + nr
        m = (nl * ml + nr * mr) / n
        doc = {"kind": "split", "feature": feature[i],
               "feature_name": tree.feature_names[feature[i]],
               "threshold": threshold[i], "gain": gain[i],
               "count": n, "mean": m, "left": left_doc, "right": right_doc}
        return doc, n, m

    root_doc, _, _ = node_doc(0)
    return {"leaf_size": tree.leaf_size, "n_leaves": tree.n_leaves,
            "feature_names": list(tree.feature_names), "root": root_doc}


def tree_from_dict(doc: dict) -> RegressionTree:
    """Rebuild a RegressionTree from its nested-node document.

    Segment ids are kept as the document gives them; they must be a
    permutation of 0..n_leaves-1. Split counts and means are not read:
    `tree_to_dict` derives them from the leaves.
    """
    nodes: list[list] = []

    def add(node_doc: dict) -> None:
        if not isinstance(node_doc, dict):
            raise CartError(f"a tree node must be an object, got {node_doc!r}")
        kind = node_doc.get("kind")
        if kind == "leaf":
            nodes.append([-1, 0.0, 0.0, -1, -1, _integer("segment_id", node_doc["segment_id"]),
                          _integer("count", node_doc["count"]), _real("mean", node_doc["mean"]),
                          _real("std", node_doc.get("std", 0.0))])
        elif kind == "split":
            row = [_integer("feature", node_doc["feature"]),
                   _real("threshold", node_doc["threshold"]), _real("gain", node_doc["gain"]),
                   len(nodes) + 1, -1, -1, 0, 0.0, 0.0]
            nodes.append(row)
            add(node_doc["left"])
            row[4] = len(nodes)
            add(node_doc["right"])
        else:
            raise CartError(f"unknown tree node kind {kind!r}")

    try:
        add(doc["root"])
    except RecursionError:  # a JSON parser may accept deeper nesting than Python calls
        raise CartError("tree document is nested too deeply") from None
    leaf_size = _integer("leaf_size", doc["leaf_size"])
    n_leaves = _integer("n_leaves", doc["n_leaves"])
    feature_names = doc["feature_names"]
    if not (isinstance(feature_names, list) and all(isinstance(n, str) for n in feature_names)):
        raise CartError(f"tree feature_names must be a list of strings, got {feature_names!r}")
    segment_ids = sorted(row[5] for row in nodes if row[3] < 0)
    if n_leaves != len(segment_ids) or segment_ids != list(range(n_leaves)):
        raise CartError("tree document has inconsistent segment ids")
    if any(not 0 <= row[0] < len(feature_names) for row in nodes if row[3] >= 0):
        raise CartError("tree document splits on a feature it does not name")
    try:
        return _tree(nodes, leaf_size, feature_names)
    except OverflowError as exc:
        raise CartError("tree document has an integer out of range") from exc

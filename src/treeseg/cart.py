"""Variance-minimizing binary regression tree used as the data segmenter.

Splits are axis-aligned thresholds chosen to maximize the reduction in the
sum of squared deviations of the response. The minimum-child-size constraint
(`leaf_size`) is the only stopping rule: a node splits only when both
children would keep at least `leaf_size` rows and the best gain is positive.

Split selection must be exactly reproducible, ties included, so the scan
runs in three stages: a vectorized float64 prefix-sum pass over every
(feature, midpoint) candidate, an extended-precision re-check of candidates
within a small band of the best gain, and an exact rational re-rank of any
that still tie. The exact stages almost never trigger on real-valued data;
they make tie-breaking (lowest feature index, then lowest threshold) an
arithmetic fact rather than a float accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import Dataset


class CartError(ValueError):
    """Raised for invalid tree construction or routing requests."""


@dataclass(frozen=True)
class SplitRule:
    """Axis-aligned split: rows with feature value <= threshold go left."""

    feature: int
    threshold: float
    gain: float


@dataclass
class Leaf:
    segment_id: int
    mean_response: float
    count: int
    row_indices: np.ndarray | None = None
    response_std: float = 0.0  # population std of the leaf's training responses


@dataclass
class Internal:
    rule: SplitRule
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Internal | Leaf


@dataclass
class RegressionTree:
    root: TreeNode
    leaf_size: int
    n_leaves: int
    feature_names: tuple[str, ...]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


# Candidates whose float64 gain falls within BAND_REL * scale of the best are
# re-examined at higher precision; the float error of the centered prefix-sum
# gain is orders of magnitude below this for any realistic node size.
_BAND_REL = 1e-9
_BAND_REL_LONGDOUBLE = 1e-12


def _scan_feature(x: np.ndarray, yc: np.ndarray, min_child: int):
    """All valid candidate splits on one feature, by centered prefix sums.

    Returns (order, ks, thresholds, gains) or None when the feature admits
    no split with both children >= min_child at a distinct-value boundary.
    """
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    valid = xs[:-1] < xs[1:]
    if min_child > 1:
        valid[: min_child - 1] = False
        valid[n - min_child:] = False
    ks = np.nonzero(valid)[0]
    if ks.size == 0:
        return None
    prefix = np.cumsum(yc[order])
    s_tot = prefix[-1]
    s_l = prefix[ks]
    n_l = ks + 1.0
    s_r = s_tot - s_l
    n_r = n - n_l
    gains = s_l * s_l / n_l + s_r * s_r / n_r - s_tot * s_tot / n
    lo, hi = xs[ks], xs[ks + 1]
    thresholds = 0.5 * (lo + hi)
    # Midpoints of adjacent representable values can round up to the right
    # value; clamp so `value <= threshold` always realizes the intended cut.
    thresholds = np.where(thresholds >= hi, lo, thresholds)
    return order, ks, thresholds, gains


def _gains_longdouble(x: np.ndarray, y: np.ndarray, order: np.ndarray, ks: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    ys = y[order].astype(np.longdouble)
    yc = ys - ys.mean()
    prefix = np.cumsum(yc)
    s_tot = prefix[-1]
    s_l = prefix[ks]
    n_l = (ks + 1).astype(np.longdouble)
    s_r = s_tot - s_l
    n_r = n - n_l
    return s_l * s_l / n_l + s_r * s_r / n_r - s_tot * s_tot / n


def _gains_exact(y: np.ndarray, order: np.ndarray, ks: np.ndarray) -> list[Fraction]:
    """Exact rational gains for the given candidate positions of one feature."""
    n = y.shape[0]
    ys = [Fraction(float(v)) for v in y[order]]
    prefix = []
    run = Fraction(0)
    for v in ys:
        run += v
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


def best_split(X: np.ndarray, y: np.ndarray, min_child: int) -> SplitRule | None:
    """Best variance-reducing split over every (feature, midpoint) candidate.

    Candidates are the midpoints between consecutive distinct sorted values
    of each feature, restricted to positions where both children hold at
    least `min_child` rows. Returns None when no candidate has positive
    gain. Ties are broken by lower feature index, then lower threshold.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if min_child < 1:
        raise CartError("min_child must be >= 1")
    n = y.shape[0]
    if n < 2 * min_child:
        return None
    yc = y - y.mean()
    sse_parent = float(yc @ yc)
    if sse_parent == 0.0:
        return None

    scans: dict[int, tuple] = {}
    best_gain = -np.inf
    for j in range(X.shape[1]):
        scan = _scan_feature(X[:, j], yc, min_child)
        if scan is None:
            continue
        scans[j] = scan
        top = float(scan[3].max())
        if top > best_gain:
            best_gain = top
    if not scans:
        return None

    band = _BAND_REL * max(sse_parent, abs(best_gain))
    selected: list[tuple[int, int, float, int]] = []  # (feature, pos-in-ks, threshold, k)
    for j, (order, ks, thresholds, gains) in scans.items():
        for pos in np.nonzero(gains >= best_gain - band)[0]:
            selected.append((j, int(pos), float(thresholds[pos]), int(ks[pos])))

    if len(selected) == 1 and best_gain > band:
        j, pos, threshold, _ = selected[0]
        return SplitRule(feature=j, threshold=threshold, gain=float(scans[j][3][pos]))

    # Near-tie: re-evaluate the short list in 80-bit precision.
    ld_gains: dict[tuple[int, int], np.longdouble] = {}
    for j in {c[0] for c in selected}:
        order, ks, _, _ = scans[j]
        pos_list = [c[1] for c in selected if c[0] == j]
        g = _gains_longdouble(X[:, j], y, order, ks[pos_list])
        for pos, gain in zip(pos_list, g):
            ld_gains[(j, pos)] = gain
    top_ld = max(ld_gains.values())
    band_ld = np.longdouble(_BAND_REL_LONGDOUBLE) * np.longdouble(sse_parent)
    survivors = [c for c in selected if ld_gains[(c[0], c[1])] >= top_ld - band_ld]

    if len(survivors) == 1 and top_ld > band_ld:
        j, pos, threshold, _ = survivors[0]
        return SplitRule(feature=j, threshold=threshold, gain=float(ld_gains[(j, pos)]))

    # Genuine tie or sign in doubt: settle it with exact rational arithmetic.
    best_rule = None
    best_exact = Fraction(0)
    survivors.sort(key=lambda c: (c[0], c[2]))
    for j in sorted({c[0] for c in survivors}):
        order, ks, _, _ = scans[j]
        cands = [c for c in survivors if c[0] == j]
        exact = _gains_exact(y, order, ks[[c[1] for c in cands]])
        for cand, gain in zip(cands, exact):
            if gain > best_exact:
                best_exact = gain
                best_rule = SplitRule(feature=cand[0], threshold=cand[2], gain=float(gain))
    return best_rule


def build_tree(train: Dataset, leaf_size: int) -> RegressionTree:
    """Grow the segmentation tree; every leaf keeps >= leaf_size rows.

    Construction is deterministic: split scanning, tie-breaking, and the
    left-first segment numbering have no random or order-dependent state.
    """
    n = train.n_rows
    if leaf_size < 1:
        raise CartError("leaf_size must be >= 1")
    if leaf_size > n:
        raise CartError(f"leaf_size={leaf_size} exceeds the {n} training rows")
    X, y = train.features, train.response

    root: TreeNode | None = None
    stack: list[tuple[np.ndarray, Internal | None, str]] = [(np.arange(n, dtype=np.intp), None, "")]
    while stack:
        rows, parent, side = stack.pop()
        rule = best_split(X[rows], y[rows], leaf_size) if rows.size >= 2 * leaf_size else None
        node: TreeNode
        if rule is None:
            node = Leaf(segment_id=-1, mean_response=float(y[rows].mean()),
                        count=int(rows.size), row_indices=rows,
                        response_std=float(y[rows].std()))
        else:
            node = Internal(rule=rule, left=None, right=None)  # children attached below
            mask = X[rows, rule.feature] <= rule.threshold
            stack.append((rows[~mask], node, "right"))
            stack.append((rows[mask], node, "left"))
        if parent is None:
            root = node
        elif side == "left":
            parent.left = node
        else:
            parent.right = node

    n_leaves = 0
    walk: list[TreeNode] = [root]
    while walk:
        node = walk.pop()
        if isinstance(node, Leaf):
            node.segment_id = n_leaves
            n_leaves += 1
        else:
            walk.append(node.right)
            walk.append(node.left)
    return RegressionTree(root=root, leaf_size=leaf_size, n_leaves=n_leaves,
                          feature_names=train.feature_names)


def leaves_of(tree: RegressionTree) -> list[Leaf]:
    """All leaves ordered by segment id."""
    out: list[Leaf] = []
    walk: list[TreeNode] = [tree.root]
    while walk:
        node = walk.pop()
        if isinstance(node, Leaf):
            out.append(node)
        else:
            walk.append(node.right)
            walk.append(node.left)
    return out


def _check_vector(tree: RegressionTree, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != tree.n_features:
        raise CartError(f"expected {tree.n_features} feature values, got {x.shape[0]}")
    return x


def _leaf_for(tree: RegressionTree, x: np.ndarray) -> Leaf:
    node = tree.root
    while isinstance(node, Internal):
        node = node.left if x[node.rule.feature] <= node.rule.threshold else node.right
    return node


def assign_leaf(tree: RegressionTree, x) -> int:
    """Segment id of the leaf x routes to (<= goes left, including equality)."""
    return _leaf_for(tree, _check_vector(tree, x)).segment_id


def predict_mean(tree: RegressionTree, x) -> float:
    """Plain-CART prediction: the training mean of the routed leaf."""
    return _leaf_for(tree, _check_vector(tree, x)).mean_response


def assign_leaf_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Vectorized routing of a whole matrix; one segment id per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise CartError(f"expected a matrix with {tree.n_features} columns")
    ids = np.empty(X.shape[0], dtype=np.int64)
    walk: list[tuple[TreeNode, np.ndarray]] = [(tree.root, np.arange(X.shape[0], dtype=np.intp))]
    while walk:
        node, idx = walk.pop()
        if isinstance(node, Leaf):
            ids[idx] = node.segment_id
        else:
            mask = X[idx, node.rule.feature] <= node.rule.threshold
            # Only walk into children that some rows reach: routing few
            # rows then costs time in proportion to depth, not tree size.
            left, right = idx[mask], idx[~mask]
            if left.size:
                walk.append((node.left, left))
            if right.size:
                walk.append((node.right, right))
    return ids


def predict_mean_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    means = np.empty(tree.n_leaves, dtype=np.float64)
    for leaf in leaves_of(tree):
        means[leaf.segment_id] = leaf.mean_response
    return means[assign_leaf_batch(tree, X)]


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
    walk: list[tuple[TreeNode, tuple[Condition, ...]]] = [(tree.root, ())]
    while walk:
        node, path = walk.pop()
        if isinstance(node, Leaf):
            if node.segment_id == segment_id:
                return Profile(segment_id=segment_id, conditions=path,
                               count=node.count, mean_response=node.mean_response)
            continue
        rule = node.rule
        name = tree.feature_names[rule.feature]
        walk.append((node.left, path + (Condition(rule.feature, name, "<=", rule.threshold),)))
        walk.append((node.right, path + (Condition(rule.feature, name, ">", rule.threshold),)))
    raise CartError(f"unknown segment id {segment_id}")


def tree_to_dict(tree: RegressionTree) -> dict:
    """Nested-node document of the tree (feature names, thresholds, counts, means)."""

    def node_doc(node: TreeNode) -> tuple[dict, int, float]:
        if isinstance(node, Leaf):
            doc = {"kind": "leaf", "segment_id": node.segment_id,
                   "count": node.count, "mean": node.mean_response,
                   "std": node.response_std}
            return doc, node.count, node.mean_response
        left, nl, ml = node_doc(node.left)
        right, nr, mr = node_doc(node.right)
        count = nl + nr
        mean = (nl * ml + nr * mr) / count
        doc = {"kind": "split", "feature": node.rule.feature,
               "feature_name": tree.feature_names[node.rule.feature],
               "threshold": node.rule.threshold, "gain": node.rule.gain,
               "count": count, "mean": mean, "left": left, "right": right}
        return doc, count, mean

    root_doc, _, _ = node_doc(tree.root)
    return {"leaf_size": tree.leaf_size, "n_leaves": tree.n_leaves,
            "feature_names": list(tree.feature_names), "root": root_doc}


def tree_from_dict(doc: dict) -> RegressionTree:
    """Rebuild a RegressionTree from its nested-node document."""

    def build(node_doc: dict) -> TreeNode:
        kind = node_doc.get("kind")
        if kind == "leaf":
            return Leaf(segment_id=int(node_doc["segment_id"]),
                        mean_response=float(node_doc["mean"]),
                        count=int(node_doc["count"]), row_indices=None,
                        response_std=float(node_doc.get("std", 0.0)))
        if kind == "split":
            rule = SplitRule(feature=int(node_doc["feature"]),
                             threshold=float(node_doc["threshold"]),
                             gain=float(node_doc["gain"]))
            return Internal(rule=rule, left=build(node_doc["left"]), right=build(node_doc["right"]))
        raise CartError(f"unknown tree node kind {kind!r}")

    tree = RegressionTree(root=build(doc["root"]), leaf_size=int(doc["leaf_size"]),
                          n_leaves=int(doc["n_leaves"]),
                          feature_names=tuple(doc["feature_names"]))
    ids = sorted(leaf.segment_id for leaf in leaves_of(tree))
    if ids != list(range(tree.n_leaves)):
        raise CartError("tree document has inconsistent segment ids")
    return tree

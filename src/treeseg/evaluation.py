"""RMSE and the two leaf-size generalization sweeps.

Two sweep flavors: `tree_generalization_sweep` scores the bare tree (leaf
means only) to show how the train/test gap narrows as leaves grow, and
`model_generalization_sweep` runs the full fit at each leaf size to locate
the generalization sweet spot. Reports serialize to plot-ready CSV and a
human-readable table.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import cart
from .data import Dataset, SplitPair
from .pipeline import FitConfig, PipelineError, filter_outliers, fit_leaves, predict_batch


def rmse(pred: np.ndarray, actual: np.ndarray) -> float:
    """Root mean squared error."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError("pred and actual must be 1-D vectors of equal length")
    if pred.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    diff = pred - actual
    return float(np.sqrt((diff * diff).mean()))


@dataclass(frozen=True)
class SweepRow:
    leaf_size: int
    train_rmse: float
    test_rmse: float
    n_leaves: int
    fit_seconds: float


@dataclass
class SweepReport:
    rows: list[SweepRow]
    kind: str                    # "tree_only" | "full_model"
    dataset_tag: str
    n_train: int
    n_test: int
    best_leaf_size: int | None = None  # test-RMSE minimizer (full_model sweeps)

    def to_csv(self, path: str) -> None:
        lines = ["leaf_size,train_rmse,test_rmse,n_leaves,fit_seconds"]
        for r in self.rows:
            lines.append(f"{r.leaf_size},{r.train_rmse!r},{r.test_rmse!r},"
                         f"{r.n_leaves},{r.fit_seconds!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_text(self) -> str:
        head = (f"{self.kind} sweep on {self.dataset_tag} "
                f"(train={self.n_train}, test={self.n_test})")
        cols = f"{'leaf_size':>9}  {'train_rmse':>12}  {'test_rmse':>12}  {'leaves':>6}  {'seconds':>8}"
        body = []
        for r in self.rows:
            mark = " *" if r.leaf_size == self.best_leaf_size else ""
            body.append(f"{r.leaf_size:>9}  {r.train_rmse:>12.6g}  {r.test_rmse:>12.6g}  "
                        f"{r.n_leaves:>6}  {r.fit_seconds:>8.2f}{mark}")
        note = ["", "* lowest test RMSE"] if self.best_leaf_size is not None else []
        return "\n".join([head, cols, *body, *note])


def _clean_grid(leaf_sizes, n_train: int) -> list[int]:
    # Sorted, deduplicated, and clipped to the training-set size so the
    # stock grid works on small datasets.
    sizes = sorted(set(min(int(s), n_train) for s in leaf_sizes))
    if not sizes:
        raise PipelineError("leaf_sizes must be non-empty")
    if sizes[0] < 1:
        raise PipelineError("leaf sizes must be >= 1")
    return sizes


def tree_generalization_sweep(split: SplitPair, leaf_sizes,
                              dataset_tag: str = "") -> SweepReport:
    """Bare-tree train/test RMSE at each leaf size (constant leaf means).

    The interesting shape: small leaves drive train RMSE down while the
    train/test gap widens; large leaves close the gap at higher error.
    The trees are grown jointly (`cart.build_trees`), so every row's
    `fit_seconds` is the time of that one joint build.
    """
    train, test = split.train, split.test
    sizes = _clean_grid(leaf_sizes, train.n_rows)
    t0 = time.perf_counter()
    trees = cart.build_trees(train, sizes)
    elapsed = time.perf_counter() - t0
    rows = []
    for ls in sizes:
        tree, leaf_rows = trees[ls]
        # Training rows route to their own leaf, so the training predictions
        # are the leaf means laid over the leaf rows (segment ids are preorder).
        train_pred = np.empty(train.n_rows)
        for rows_of_leaf, mean in zip(leaf_rows, tree.mean[tree.left < 0]):
            train_pred[rows_of_leaf] = mean
        rows.append(SweepRow(
            leaf_size=ls,
            train_rmse=rmse(train_pred, train.response),
            test_rmse=rmse(cart.predict_mean_batch(tree, test.features), test.response),
            n_leaves=tree.n_leaves,
            fit_seconds=elapsed))
    return SweepReport(rows=rows, kind="tree_only", dataset_tag=dataset_tag,
                       n_train=train.n_rows, n_test=test.n_rows)


def model_generalization_sweep(split: SplitPair, leaf_sizes, config: FitConfig,
                               dataset_tag: str = "") -> SweepReport:
    """Full segmented-model train/test RMSE at each leaf size.

    Each row fits the pipeline with the template config at that leaf size;
    the leaf size with the lowest test RMSE is flagged. The outlier filter
    does not depend on the leaf size, so it runs once, and every row's tree
    is grown from the same kept rows. The trees are grown jointly
    (`cart.build_trees`), each bit for bit the tree a fit at that size
    grows, so a row's `fit_seconds` is the time of that one joint build
    plus its own leaf fits. Train RMSE is measured on the rows the model
    actually saw (post-filter).
    """
    train, test = split.train, split.test
    sizes = _clean_grid(leaf_sizes, train.n_rows)
    kept, kept_rows = filter_outliers(train, config, sizes[-1])
    t0 = time.perf_counter()
    trees = cart.build_trees(kept, sizes)
    build_seconds = time.perf_counter() - t0
    rows = []
    best = None
    for ls in sizes:
        t0 = time.perf_counter()
        model = fit_leaves(kept, *trees[ls], dataclasses.replace(config, leaf_size=ls),
                           kept_rows, train.n_rows - kept.n_rows)
        elapsed = build_seconds + (time.perf_counter() - t0)
        row = SweepRow(
            leaf_size=ls,
            train_rmse=rmse(predict_batch(model, kept), kept.response),
            test_rmse=rmse(predict_batch(model, test), test.response),
            n_leaves=model.tree.n_leaves,
            fit_seconds=elapsed)
        rows.append(row)
        if best is None or row.test_rmse < best.test_rmse:
            best = row
    return SweepReport(rows=rows, kind="full_model", dataset_tag=dataset_tag,
                       n_train=train.n_rows, n_test=test.n_rows,
                       best_leaf_size=best.leaf_size if best else None)


def kept_training_set(train: Dataset, model) -> Dataset:
    """The rows of `train` the model's tree saw: those its outlier filter kept.

    `train` must be the training set the model was fit on. A model loaded
    from a document does not carry the kept rows, so for one whose filter
    removed rows this raises PipelineError.
    """
    if not model.n_removed_outliers:
        return train
    if model.kept_rows is None:
        raise PipelineError(
            "the rows the outlier filter kept are known only to the process that "
            "fit the model; a loaded model does not carry them")
    return train.take(model.kept_rows)

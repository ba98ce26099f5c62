"""End-to-end segmented regression: filter, segment, fit per leaf, score.

The training flow is: optionally drop outliers from the training set, grow
the segmentation tree, then fit one regressor per leaf (with per-leaf input
standardization for the linear and GP methods); segments do not depend on
one another, so GP leaves are fit as one stage, under the rule _lapack
states. scipy, which only GP fitting needs, is loaded with the first GP
leaf stage, which also refuses a scipy build whose LAPACK signatures are
not the LP64 ones treeseg calls.
Prediction routes a record down the tree and applies that segment's model.
Any leaf whose fit fails falls back to the segment's constant mean and the
fallback is recorded — a model always comes back able to predict.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import cart
from .data import DataError, Dataset, Scaler, _integer, _real
from .leaf_models import (ConstantModel, KernelParams, LeafFitError, LeafModel, fit_constant,
                          fit_gp, fit_ols)
from .outliers import anomaly_score_batch, fit_forest, removal_indices

LEAF_METHODS = ("constant", "linear", "gp")


class PipelineError(ValueError):
    """Raised for invalid fit configurations."""


@dataclass(frozen=True)
class OutlierConfig:
    enabled: bool = False
    contamination: float = 0.05
    n_trees: int = 100
    subsample: int = 256

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise PipelineError(f"outlier.enabled must be true or false, got {self.enabled!r}")
        if not 0.0 <= self.contamination < 1.0:
            raise PipelineError("contamination must be in [0, 1)")
        if self.n_trees < 1:
            raise PipelineError("n_trees must be >= 1")
        if self.subsample < 2:
            raise PipelineError("subsample must be >= 2")


@dataclass(frozen=True)
class FitConfig:
    """Everything that determines a fit, so runs are reproducible."""

    leaf_size: int = 100
    leaf_method: str = "linear"
    outlier: OutlierConfig = field(default_factory=OutlierConfig)
    seed: int = 0
    ridge_eps: float = 0.0
    gp_max_iters: int = 100
    gp_init: dict | None = None  # optional overrides of the per-leaf defaults

    def __post_init__(self):
        if self.leaf_size < 1:
            raise PipelineError("leaf_size must be >= 1")
        if self.leaf_method not in LEAF_METHODS:
            raise PipelineError(
                f"unknown leaf_method {self.leaf_method!r}; expected one of {LEAF_METHODS}")
        if self.ridge_eps < 0:
            raise PipelineError("ridge_eps must be >= 0")
        if self.gp_max_iters < 0:
            raise PipelineError("gp_max_iters must be >= 0")
        if self.gp_init is not None:
            if not isinstance(self.gp_init, dict):
                raise PipelineError("gp_init must map kernel parameter names to values")
            unknown = set(self.gp_init) - {f.name for f in dataclasses.fields(KernelParams)}
            if unknown:
                raise PipelineError(f"unknown gp_init keys: {sorted(unknown)}")
            for name, v in self.gp_init.items():
                try:
                    positive = _real(name, v) > 0
                except DataError:
                    positive = False
                if not positive:
                    raise PipelineError(f"gp_init {name} must be a positive finite real, got {v!r}")

    def to_doc(self) -> dict:
        """JSON-ready form, as model documents and run configs store it."""
        doc = dataclasses.asdict(self)
        doc["gp_init"] = doc["gp_init"] or None
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "FitConfig":
        """Inverse of `to_doc`, and the one reader of fit settings: numbers
        must pass `data._integer`/`data._real`, and `outlier.enabled` must be
        a boolean. Keys it does not know are ignored."""
        out = doc["outlier"]
        gp_init = doc.get("gp_init")
        return cls(
            leaf_size=_integer("leaf_size", doc["leaf_size"]),
            leaf_method=doc["leaf_method"],
            seed=_integer("seed", doc["seed"]),
            ridge_eps=_real("ridge_eps", doc["ridge_eps"]),
            gp_max_iters=_integer("gp_max_iters", doc["gp_max_iters"]),
            gp_init=dict(gp_init) or None if isinstance(gp_init, dict) else gp_init,
            outlier=OutlierConfig(
                enabled=out["enabled"],
                contamination=_real("outlier.contamination", out["contamination"]),
                n_trees=_integer("outlier.n_trees", out["n_trees"]),
                subsample=_integer("outlier.subsample", out["subsample"])))


@dataclass(frozen=True)
class LeafFitStatus:
    status: str            # "fitted" | "fallback"
    method: str            # model actually in place for this segment
    reason: str | None = None


@dataclass
class SegmentedModel:
    tree: cart.RegressionTree
    leaf_models: dict[int, LeafModel]
    scalers: dict[int, Scaler | None]
    config: FitConfig
    fit_report: dict[int, LeafFitStatus]
    n_removed_outliers: int = 0
    # Rows of the fit's training set that the outlier filter kept, when the
    # filter ran in this process; never serialized, so None after a load.
    kept_rows: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        return self.tree.n_features

    @property
    def n_train_rows(self) -> int:
        """Rows the tree was grown on, after the outlier filter."""
        return sum(self.tree.count[self.tree.left < 0].tolist())

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.tree.feature_names


def default_gp_init(Xs: np.ndarray, y: np.ndarray,
                    overrides: dict | None = None) -> KernelParams:
    """Kernel start for a GP leaf from its least-squares fit on the leaf's
    standardized inputs Xs.

    The OLS weights w and residuals r split var(y) into what the linear term
    explains and what is left: linear_variance = mean(w^2), rbf_variance =
    var(r), noise_variance = var(r) / 2, rbf_lengthscale = sqrt(d). Each
    variance is kept inside fit_gp's box: at least 1e-6 var(y), so an
    exactly linear response still starts from positive parameters, and at
    most 1e8 var(y), so a start whose mean(w^2) overflows (a weight of 1e161
    on a column of 1e-178 values) stays finite. `overrides` win field by
    field.
    """
    ols = fit_ols(Xs, y)
    var_y = float(np.var(y))
    with np.errstate(over="ignore", invalid="ignore"):  # w^2 or the residuals may overflow
        mean_w2 = float(np.mean(ols.weights * ols.weights))
        var_r = float(np.var(y - ols.predict(Xs)))

    def start(v: float) -> float:
        # fmax and fmin drop a NaN for the other argument.
        return float(np.fmin(np.fmax(v, 1e-6 * var_y), 1e8 * var_y))

    values = {
        "linear_variance": start(mean_w2),
        "rbf_variance": start(var_r),
        "rbf_lengthscale": float(np.sqrt(Xs.shape[1])),
        "noise_variance": start(0.5 * var_r),
    }
    if overrides:
        values.update(overrides)
    return KernelParams(**values)


def _fit_leaf(X: np.ndarray, y: np.ndarray,
              config: FitConfig) -> tuple[LeafModel, Scaler | None, LeafFitStatus]:
    method = config.leaf_method
    if method == "constant":
        return (fit_constant(y), None,
                LeafFitStatus("fitted", "constant"))

    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    try:
        if method == "linear":
            model = fit_ols(Xs, y, config.ridge_eps)
            reason = "ridge fallback engaged" if model.used_fallback else None
            return model, scaler, LeafFitStatus("fitted", "linear", reason)
        if float(np.var(y)) == 0.0:
            raise LeafFitError("response is constant within the segment")
        init = default_gp_init(Xs, y, config.gp_init)
        model = fit_gp(Xs, y, init, max_iters=config.gp_max_iters)
        return model, scaler, LeafFitStatus("fitted", "gp")
    except LeafFitError as exc:
        return (fit_constant(y), None,
                LeafFitStatus("fallback", "constant", str(exc)))


def score_outliers(data: Dataset, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Anomaly score of every row of `data` and the sorted rows the filter removes.

    The forest is fit on `data` itself with `config.outlier` and `config.seed`.
    """
    oc = config.outlier
    forest = fit_forest(data, n_trees=oc.n_trees,
                        subsample=min(oc.subsample, max(data.n_rows, 2)), seed=config.seed)
    scores = anomaly_score_batch(forest, data.features)
    return scores, removal_indices(scores, oc.contamination)


def fit_segmented(train: Dataset, config: FitConfig) -> SegmentedModel:
    """Algorithm: filter outliers (train only), segment, fit each segment.

    Deterministic for fixed (train, config). Leaf-fit failures fall back to
    the segment's constant mean, recorded in fit_report.
    """
    kept, kept_rows = filter_outliers(train, config, config.leaf_size)
    tree, leaf_rows = cart.build_tree(kept, config.leaf_size)
    return fit_leaves(kept, tree, leaf_rows, config, kept_rows, train.n_rows - kept.n_rows)


def filter_outliers(train: Dataset, config: FitConfig,
                    leaf_size: int) -> tuple[Dataset, np.ndarray | None]:
    """The training rows the outlier filter keeps, and their indices in `train`.

    With the filter off, `train` itself and None. The result depends on the
    training set, `config.seed` and `config.outlier`, not on the leaf size.
    `leaf_size` is the largest size a tree will be grown at from the kept
    rows, and is only checked: PipelineError is raised, before the forest
    is fit, when it exceeds the training rows, and when it exceeds the rows
    the filter kept.
    """
    if leaf_size > train.n_rows:
        raise PipelineError(f"leaf_size={leaf_size} exceeds the {train.n_rows} training rows")
    if not config.outlier.enabled:
        return train, None
    removed = score_outliers(train, config)[1]
    kept_rows = np.setdiff1d(np.arange(train.n_rows), removed)
    if leaf_size > kept_rows.size:
        raise PipelineError(
            "outlier filtering left fewer rows than leaf_size; lower the "
            "contamination or the leaf size")
    return train.take(kept_rows), kept_rows


def fit_leaves(kept: Dataset, tree: cart.RegressionTree, leaf_rows: list[np.ndarray],
               config: FitConfig, kept_rows: np.ndarray | None,
               n_removed: int) -> SegmentedModel:
    """Fit one model per segment of `tree`, grown on `kept` at
    `config.leaf_size`; `leaf_rows` are the rows of each segment, as
    `cart.build_tree` returns them. `kept_rows` and `n_removed` record the
    outlier filter's outcome on the model.

    Segments do not depend on one another. GP leaves are fit as one stage
    by _lapack.fit_pinned, under the rule _lapack's docstring states, so
    each leaf's fit is the same computation on any thread and at any
    OPENBLAS_NUM_THREADS. Constant and linear leaves, which take a
    fraction of a GP leaf's time, are fit one at a time on the calling
    thread, unpinned and without loading scipy: their bits do not depend
    on the BLAS thread count either (tests/test_pipeline.py checks both).
    Each GP leaf in flight holds its own m x m buffers, so peak memory grows
    with the number of workers (README "Notes on performance" gives the
    rule).
    """
    def fit(segment_id: int):
        rows = leaf_rows[segment_id]
        return _fit_leaf(kept.features[rows], kept.response[rows], config)

    segments = range(len(leaf_rows))
    if config.leaf_method != "gp":
        fits = [fit(s) for s in segments]
    else:
        from . import _lapack

        fits = _lapack.fit_pinned(fit, segments)

    leaf_models: dict[int, LeafModel] = {}
    scalers: dict[int, Scaler | None] = {}
    report: dict[int, LeafFitStatus] = {}
    for segment_id, (model, scaler, status) in enumerate(fits):
        leaf_models[segment_id] = model
        scalers[segment_id] = scaler
        report[segment_id] = status
    return SegmentedModel(tree=tree, leaf_models=leaf_models, scalers=scalers,
                          config=config, fit_report=report, n_removed_outliers=n_removed,
                          kept_rows=kept_rows)


def _features_of(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.features
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise PipelineError("expected a Dataset or a 2-D feature matrix")
    return X


def predict_with_segments(model: SegmentedModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and segment ids for every row, each row routed once.

    Rows are grouped by segment; each prediction is elementwise equal to
    calling predict on its row (same reductions, batch-size invariant).
    """
    X = _features_of(data)
    if X.shape[1] != model.n_features:
        raise PipelineError(f"expected {model.n_features} feature columns, got {X.shape[1]}")
    out = np.empty(X.shape[0], dtype=np.float64)
    ids = cart.assign_leaf_batch(model.tree, X)
    for segment_id in np.unique(ids):
        sel = np.nonzero(ids == segment_id)[0]
        block = X[sel]
        scaler = model.scalers[int(segment_id)]
        if scaler is not None:
            block = scaler.transform(block)
        out[sel] = model.leaf_models[int(segment_id)].predict(block)
    return out, ids


def predict_batch(model: SegmentedModel, data) -> np.ndarray:
    """Predictions for every row (see predict_with_segments)."""
    return predict_with_segments(model, data)[0]


def predict(model: SegmentedModel, x) -> float:
    """Prediction for one record — routed through the batch path (1-row batch)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != model.n_features:
        raise PipelineError(f"expected {model.n_features} feature values, got {x.shape[0]}")
    return float(predict_batch(model, x[None, :])[0])

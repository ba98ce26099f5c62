"""Versioned, deterministic JSON serialization of fitted models.

One self-contained, human-diffable document per model: config snapshot,
tree, per-segment model payloads, scalers, and the fit report. Numbers are
rendered with repr-lossless formatting so every stored double round-trips
bit-exactly; keys are sorted so saving the same model twice produces
byte-identical files. Loading re-checks structural invariants and rejects
documents written by a newer schema.

GP leaves store their kernel parameters, training inputs, alpha vector and
jitter, not the Cholesky factor. Loading rejects a document whose
covariance would not factorize at the stored jitter through
`leaf_models.check_covariance`: an O(m d) rounding-error certificate that
builds no m x m matrix, with the factorization itself as the fallback when
the certificate cannot decide. It also checks that the fit report covers
every segment with entries a fit could write, that n_train_rows equals
the rows the tree's leaves hold and n_removed_outliers is not negative,
that the tree's leaf_size is the config's, that every number passes the
run config's rules (`data._integer`, `data._real`; arrays must hold
finite JSON numbers only, no strings, booleans or nulls), and that the
ingestion recipe reads under
`data.recipe_from_doc`. The file is decoded by `data.read_json`, as run
configs are; a document that cannot be decoded or breaks any of these
checks raises PersistenceError, and only a file that cannot be opened
raises OSError. Posterior means depend only on the
kernel parameters, the training inputs and alpha (the model derives its
mean-path constants from them on first use), so round-tripped predictions
are bit-identical without the factor.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os

import numpy as np

from . import cart
from .data import ColumnSpec, DataError, Scaler, _integer, _real, read_json, recipe_from_doc
from .leaf_models import (ConstantModel, GPModel, KernelParams, LeafFitError,
                          LinearModel, check_covariance)
from .pipeline import FitConfig, LeafFitStatus, SegmentedModel

SCHEMA_VERSION = 1
_DOCUMENT_KIND = "segmented-regression-model"


class PersistenceError(ValueError):
    """Raised when a model document cannot be written, parsed, or validated."""


def _leaf_model_doc(model) -> dict:
    if isinstance(model, ConstantModel):
        return {"type": "constant", "mean": model.mean}
    if isinstance(model, LinearModel):
        return {"type": "linear", "weights": model.weights.tolist(),
                "intercept": model.intercept, "ridge_eps": model.ridge_eps,
                "used_fallback": model.used_fallback}
    if isinstance(model, GPModel):
        return {"type": "gp",
                "params": dataclasses.asdict(model.params),
                "training_inputs": model.training_inputs.tolist(),
                "alpha": model.alpha.tolist(),
                "y_mean": model.y_mean,
                "jitter": model.jitter,
                "log_marginal": model.log_marginal,
                "n_iterations": model.n_iterations,
                "n_evaluations": model.n_evaluations,
                "converged": model.converged}
    raise PersistenceError(f"cannot serialize leaf model of type {type(model).__name__}")


def _finite_array(name: str, values) -> np.ndarray:
    """A read-only float64 array of finite numbers, from a JSON list of
    numbers or a list of such lists.

    Elements are type-checked before conversion, which would otherwise read
    a string such as "0.5" or a boolean as a float.
    """
    rows = values if isinstance(values, list) and values and type(values[0]) is list else [values]
    if not (all(type(row) is list for row in rows)
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
        raise PersistenceError(f"{name} are not finite numbers")
    try:
        array = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise PersistenceError(f"{name} are not finite numbers") from None
    if not np.isfinite(array).all():
        raise PersistenceError(f"{name} are not finite numbers")
    array.setflags(write=False)
    return array


def _flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise PersistenceError(f"{name} must be true or false, got {value!r}")
    return value


def _leaf_model_from_doc(doc: dict, n_features: int):
    if not isinstance(doc, dict):
        raise PersistenceError(f"a leaf model must be an object, got {doc!r}")
    kind = doc.get("type")
    if kind == "constant":
        return ConstantModel(mean=_real("mean", doc["mean"]))
    if kind == "linear":
        weights = _finite_array("linear weights", doc["weights"])
        if weights.shape != (n_features,):
            raise PersistenceError(
                f"linear model weights have shape {weights.shape} for {n_features} features")
        return LinearModel(weights=weights, intercept=_real("intercept", doc["intercept"]),
                           ridge_eps=_real("ridge_eps", doc["ridge_eps"]),
                           used_fallback=_flag("used_fallback", doc["used_fallback"]))
    if kind == "gp":
        p = doc["params"]
        params = KernelParams(*(_real(f.name, p[f.name])
                                for f in dataclasses.fields(KernelParams)))
        X = _finite_array("gp training inputs", doc["training_inputs"])
        alpha = _finite_array("gp alpha values", doc["alpha"])
        if X.ndim != 2 or X.shape[1] != n_features:
            raise PersistenceError("gp training inputs do not match the feature count")
        if alpha.shape != (X.shape[0],):
            raise PersistenceError("gp alpha length does not match its training inputs")
        jitter = _real("jitter", doc["jitter"])
        try:
            check_covariance(params, X, jitter)
        except LeafFitError as exc:
            raise PersistenceError("stored gp covariance is not positive definite") from exc
        return GPModel(params=params, training_inputs=X, alpha=alpha,
                       y_mean=_real("y_mean", doc["y_mean"]), jitter=jitter,
                       log_marginal=_real("log_marginal", doc["log_marginal"]),
                       n_iterations=_integer("n_iterations", doc.get("n_iterations", 0)),
                       n_evaluations=_integer("n_evaluations", doc.get("n_evaluations", 0)),
                       converged=_flag("converged", doc.get("converged", False)))
    raise PersistenceError(f"unknown leaf model type {kind!r}")


def _fit_status_from_doc(segment_id: int, doc: dict, leaf_type: str) -> LeafFitStatus:
    """A fit-report entry as a fit writes it: a known status, the type of
    the segment's stored model as its method, and a string or null reason."""
    status, method, reason = doc["status"], doc["method"], doc.get("reason")
    if (status not in ("fitted", "fallback") or method != leaf_type
            or not isinstance(reason, (str, type(None)))):
        raise PersistenceError(f"fit report of segment {segment_id} is not one a fit "
                               f"writes: {doc!r}")
    return LeafFitStatus(status, method, reason)


def _scaler_doc(scaler: Scaler | None) -> dict | None:
    if scaler is None:
        return None
    return {"mean": scaler.mean.tolist(), "std": scaler.std.tolist()}


def _scaler_from_doc(doc: dict | None, n_features: int) -> Scaler | None:
    if doc is None:
        return None
    mean = _finite_array("scaler means", doc["mean"])
    std = _finite_array("scaler stds", doc["std"])
    if mean.shape != (n_features,) or std.shape != (n_features,):
        raise PersistenceError("scaler dimensions do not match the feature count")
    return Scaler(mean=mean, std=std)


def model_document(model: SegmentedModel, ingestion: dict | None = None) -> dict:
    """The complete serializable document for a fitted model."""
    ids = sorted(model.leaf_models)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": _DOCUMENT_KIND,
        "config": model.config.to_doc(),
        "tree": cart.tree_to_dict(model.tree),
        "leaf_models": {str(i): _leaf_model_doc(model.leaf_models[i]) for i in ids},
        "scalers": {str(i): _scaler_doc(model.scalers.get(i)) for i in ids},
        "fit_report": {str(i): {"status": s.status, "method": s.method, "reason": s.reason}
                       for i, s in sorted(model.fit_report.items())},
        "n_train_rows": model.n_train_rows,
        "n_removed_outliers": model.n_removed_outliers,
        "ingestion": ingestion,
    }


def save_model(model: SegmentedModel, path: str, ingestion: dict | None = None) -> None:
    """Write the model document atomically; identical models save identical bytes."""
    doc = model_document(model, ingestion)
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise PersistenceError(f"model contains non-finite numbers: {exc}") from exc
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    os.replace(tmp, path)


def load_bundle(path: str) -> tuple[SegmentedModel,
                                   tuple[list[ColumnSpec], dict[str, tuple[str, ...]]] | None]:
    """Load and validate a model document; also returns its ingestion recipe
    as read by `data.recipe_from_doc`: the column specs and known category
    levels, or None when the document has none."""
    try:
        doc = read_json(path)
    except DataError as exc:
        raise PersistenceError(f"{path} is not a valid model document: {exc}") from exc
    if "schema_version" not in doc:
        raise PersistenceError(f"{path} is not a model document")

    try:
        version = _integer("schema_version", doc["schema_version"])
        if version > SCHEMA_VERSION:
            raise PersistenceError(
                f"{path} has schema_version {version!r}, newer than the supported "
                f"{SCHEMA_VERSION}; upgrade this package to read it")
        if version != SCHEMA_VERSION:
            raise PersistenceError(f"{path} has unsupported schema_version {version!r}")
        if doc.get("kind") != _DOCUMENT_KIND:
            raise PersistenceError(f"{path} is not a {_DOCUMENT_KIND} document")
        config = FitConfig.from_doc(doc["config"])
        tree = cart.tree_from_dict(doc["tree"])
        if tree.leaf_size != config.leaf_size:
            raise PersistenceError(f"{path} failed validation: the tree's leaf_size "
                                   f"{tree.leaf_size} is not the config's {config.leaf_size}")
        n_features = tree.n_features
        expected = {str(i) for i in range(tree.n_leaves)}  # one key per segment, as written
        for section, entries in (("leaf_models", "leaf models do"), ("scalers", "scalers do"),
                                 ("fit_report", "fit report does")):
            if not isinstance(doc[section], dict):
                raise PersistenceError(f"{path}: {section} is not an object keyed by segment")
            if set(doc[section]) != expected:
                raise PersistenceError(f"{path}: {entries} not cover every segment")
        leaf_models = {int(k): _leaf_model_from_doc(v, n_features)
                       for k, v in doc["leaf_models"].items()}
        scalers = {int(k): _scaler_from_doc(v, n_features)
                   for k, v in doc["scalers"].items()}
        report = {int(k): _fit_status_from_doc(int(k), v, doc["leaf_models"][k]["type"])
                  for k, v in doc["fit_report"].items()}
        n_train_rows = _integer("n_train_rows", doc["n_train_rows"])
        n_removed = _integer("n_removed_outliers", doc["n_removed_outliers"])
        if n_removed < 0:
            raise PersistenceError(f"{path}: n_removed_outliers is negative ({n_removed})")
        recipe = recipe_from_doc(doc.get("ingestion"))
    except (KeyError, TypeError, ValueError, cart.CartError) as exc:
        if isinstance(exc, PersistenceError):
            raise
        raise PersistenceError(f"{path} failed validation: {exc}") from exc

    model = SegmentedModel(tree=tree, leaf_models=leaf_models, scalers=scalers,
                           config=config, fit_report=report, n_removed_outliers=n_removed)
    if n_train_rows != model.n_train_rows:
        raise PersistenceError(
            f"{path}: n_train_rows is {n_train_rows} but the tree's leaves hold "
            f"{model.n_train_rows} rows")
    return model, recipe


def load_model(path: str) -> SegmentedModel:
    """Load a model document, validating structure and schema version."""
    return load_bundle(path)[0]

import os

import numpy as np
import pytest

from treeseg import cart
from treeseg.leaf_models import LinearModel

DATA_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "data"))


def dataset_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def require_dataset(name: str) -> str:
    """Path to a benchmark CSV, skipping the test when it is not present.

    The benchmark files are produced by scripts/fetch_data.py; environments
    without access to the upstream hosts (this sandbox resolves no dataset
    mirrors) run the rest of the suite and skip these with this reason.
    """
    path = dataset_path(name)
    if not os.path.exists(path):
        pytest.skip(f"{name} not fetched; run `python scripts/fetch_data.py` "
                    "(requires network access to the dataset hosts)")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def segment_by_segment(model, X) -> np.ndarray:
    """Reference scoring: each row of X alone through its own segment's
    scaler and model, with the scaler's and the linear model's arithmetic
    written out as it was when segments were scored one at a time:
    (x - mean) / std, a zero std read as 1, then (z * w).sum(axis=1) + b.
    Constant and GP segments call their model's predict on the row."""
    X = np.asarray(X, dtype=np.float64)
    ids = cart.assign_leaf_batch(model.tree, X)
    out = np.empty(X.shape[0])
    for i, s in enumerate(ids.tolist()):
        row = X[i:i + 1].copy()
        leaf, scaler = model.leaf_models[s], model.scalers[s]
        if scaler is not None:
            row = (row - scaler.mean) / np.where(scaler.std == 0.0, 1.0, scaler.std)
        if isinstance(leaf, LinearModel):
            out[i] = ((row * leaf.weights).sum(axis=1) + leaf.intercept)[0]
        else:
            out[i] = leaf.predict(row)[0]
    return out

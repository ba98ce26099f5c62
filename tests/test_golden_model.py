"""Golden model document: a fixed seeded fit must save exactly these bytes.

`golden_model.json` pins the whole document format (config, tree, linear
leaves, scalers, fit report) byte for byte, so a change to how any part of
the model is held in memory cannot change what is written. Rewrite it only
for a deliberate format change or a deliberate change of the seeded
outlier forest (which moves the rows the filter removes), by running this
file as a script: `PYTHONPATH=src python tests/test_golden_model.py`.
"""

import os

import numpy as np

from treeseg.data import Dataset
from treeseg.persistence import load_model, save_model
from treeseg.pipeline import FitConfig, OutlierConfig, fit_segmented

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_model.json")


def golden_fit():
    rng = np.random.default_rng(2024)
    X = rng.uniform(-2, 2, size=(300, 3))
    y = np.where(X[:, 0] <= 0, 1.0 + X[:, 1], -2.0 + 0.5 * X[:, 2]) + rng.normal(size=300) * 0.1
    X[7] = (9.0, -9.0, 9.0)  # an outlier for the filter to remove
    config = FitConfig(leaf_size=40, leaf_method="linear", seed=3,
                       outlier=OutlierConfig(enabled=True, contamination=0.02,
                                             n_trees=20, subsample=64))
    return fit_segmented(Dataset(X, y, ("a", "b", "c")), config)


def golden_bytes() -> bytes:
    with open(GOLDEN, "rb") as fh:
        return fh.read()


def test_fresh_fit_saves_golden_bytes(tmp_path):
    path = str(tmp_path / "model.json")
    save_model(golden_fit(), path)
    with open(path, "rb") as fh:
        assert fh.read() == golden_bytes()


def test_load_then_save_gives_golden_bytes(tmp_path):
    path = str(tmp_path / "resaved.json")
    save_model(load_model(GOLDEN), path)
    with open(path, "rb") as fh:
        assert fh.read() == golden_bytes()


if __name__ == "__main__":
    save_model(golden_fit(), GOLDEN)

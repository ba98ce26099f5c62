"""Golden tree digests: seeded data must grow exactly these trees.

`golden_trees.json` holds, for each dataset below and each leaf size of the
sweep grid, the SHA-256 of the tree document
(`json.dumps(tree_to_dict(tree), sort_keys=True)`) and of the training rows
of every leaf. Any change to split scanning, tie-breaking, thresholds,
gains or segment numbering shows up as a changed digest. Rewrite the file
only for a deliberate change to how trees are grown, by running this file
as a script: `PYTHONPATH=src python tests/test_golden_trees.py`.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from treeseg.cart import build_tree, build_trees, tree_to_dict
from treeseg.data import Dataset

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_trees.json")
LEAF_SIZES = (10, 20, 40, 70, 100, 200, 400, 700, 1000, 2000)
N_ROWS = 2400


def _real(rng):
    # Housing-like: smooth nonlinear signal in 8 continuous features.
    X = rng.normal(size=(N_ROWS, 8))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * np.abs(X[:, 3]) + rng.normal(size=N_ROWS) * 0.2
    return X, y


def _integer_grid(rng):
    # Few distinct values per feature: many equal neighbours, exact-stage ties.
    X = rng.integers(0, 12, size=(N_ROWS, 5)).astype(np.float64)
    y = (X[:, 0] // 3 + X[:, 1] % 4 + rng.integers(0, 3, size=N_ROWS)).astype(np.float64)
    return X, y


def _tied(rng):
    # Heavy ties: binary features, duplicated columns and a two-valued response.
    X = rng.integers(0, 2, size=(N_ROWS, 4)).astype(np.float64)
    X = np.hstack([X, X[:, :2]])
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 2, size=N_ROWS) >= 2).astype(np.float64)
    return X, y


DATASETS = {"real": (_real, 11), "integer_grid": (_integer_grid, 12), "tied": (_tied, 13)}


def digests(name: str, joint: bool = False) -> dict[str, list[str]]:
    """Digests of each grid tree, grown one size at a time or (`joint`) all
    sizes in one `build_trees` pass."""
    make, seed = DATASETS[name]
    X, y = make(np.random.default_rng(seed))
    data = Dataset(X, y, tuple(f"x{j}" for j in range(X.shape[1])))
    grown = build_trees(data, LEAF_SIZES) if joint else None
    out = {}
    for leaf_size in LEAF_SIZES:
        tree, leaf_rows = grown[leaf_size] if joint else build_tree(data, leaf_size)
        doc = json.dumps(tree_to_dict(tree), sort_keys=True)
        rows = json.dumps([r.tolist() for r in leaf_rows])
        out[str(leaf_size)] = [hashlib.sha256(doc.encode()).hexdigest(),
                               hashlib.sha256(rows.encode()).hexdigest()]
    return out


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_trees_match_golden_digests(name):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert digests(name) == golden[name]


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_jointly_grown_trees_match_golden_digests(name):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert digests(name, joint=True) == golden[name]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: digests(name) for name in sorted(DATASETS)}, fh, indent=1, sort_keys=True)
        fh.write("\n")

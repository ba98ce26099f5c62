"""The paper's relative claims on seeded stand-in data.

Criteria 1-4 (test_acceptance.py) check the paper's claims on the real
CCPP and California Housing files, and skip where those are not fetched.
These tests check the same claims in relative form on perfbench's seeded
generators of the same shape, which add Gaussian noise of a known sd to a
fixed response: GP leaves beat linear leaves by criterion 3's margin,
segmented linear leaves beat one global linear fit, and the train/test gap
of a bare tree shrinks from small leaves to large ones. Rows, seeds and
margins were fixed before the first run; absolute thresholds belong to the
real data.
"""
import os
import sys

import numpy as np
import pytest

from treeseg.data import Dataset, train_test_split
from treeseg.evaluation import rmse, tree_generalization_sweep
from treeseg.leaf_models import fit_ols
from treeseg.pipeline import FitConfig, fit_segmented, predict_batch

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from workloads import ccpp_rows, housing_rows  # noqa: E402

SEEDS = [5, 21]


def split_of(table, seed, log_target=False):
    response = np.log(table.response) if log_target else table.response
    return train_test_split(Dataset(table.features, response, table.feature_names), 0.7, seed)


def segmented_rmse(split, leaf_size, method):
    model = fit_segmented(split.train, FitConfig(leaf_size=leaf_size, leaf_method=method))
    return rmse(predict_batch(model, split.test), split.test.response)


def global_rmse(split):
    return rmse(fit_ols(split.train.features, split.train.response).predict(split.test.features),
                split.test.response)


@pytest.mark.parametrize("seed", SEEDS)
def test_ccpp_gp_beats_linear_beats_global(seed):
    # 2100 training rows at leaf_size 300: four leaves on either seed.
    split = split_of(ccpp_rows(np.random.default_rng(seed), 3000), seed)
    gp, linear = segmented_rmse(split, 300, "gp"), segmented_rmse(split, 300, "linear")
    single = global_rmse(split)
    assert linear - gp >= 0.2, (gp, linear)
    assert linear < single, (linear, single)


@pytest.mark.parametrize("seed", SEEDS)
def test_housing_linear_leaves_beat_global(seed):
    split = split_of(housing_rows(np.random.default_rng(seed), 6000), seed, log_target=True)
    assert segmented_rmse(split, 70, "linear") < global_rmse(split)


@pytest.mark.parametrize("seed", SEEDS)
def test_ccpp_tree_gap_shrinks_with_leaf_size(seed):
    split = split_of(ccpp_rows(np.random.default_rng(seed), 3000), seed)
    rows = tree_generalization_sweep(split, [10, 2000]).rows
    gaps = [abs(row.test_rmse - row.train_rmse) for row in rows]
    assert [row.leaf_size for row in rows] == [10, 2000]
    assert gaps[0] > gaps[1], gaps

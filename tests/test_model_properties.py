"""Property tests of the fitted model's bitwise contract on small random data.

Single-row and batch predictions agree bit for bit however the rows are
split into batches; a saved model loads and saves again to the same bytes;
a refit on the same inputs gives the same bits.
"""

import json
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from treeseg.data import Dataset  # noqa: E402
from treeseg.persistence import load_model, model_document, save_model  # noqa: E402
from treeseg.pipeline import (FitConfig, OutlierConfig, fit_segmented,  # noqa: E402
                              predict, predict_batch)

# Few distinct values, so ties in the tree and singular leaf designs are common.
_TIED = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0])
_REAL = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_VALUES = _TIED | _REAL


@st.composite
def fits(draw):
    """A small training set and a config that fits on it."""
    n = draw(st.integers(6, 40))
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=_VALUES))
    y = draw(arrays(np.float64, n, elements=_VALUES))
    config = FitConfig(
        leaf_size=draw(st.integers(1, n // 2)),
        leaf_method=draw(st.sampled_from(["constant", "linear", "gp"])),
        seed=draw(st.integers(0, 3)),
        gp_max_iters=3,
        outlier=OutlierConfig(enabled=draw(st.booleans()), contamination=0.1,
                              n_trees=5, subsample=16))
    return Dataset(X, y, tuple(f"f{j}" for j in range(d))), config


@st.composite
def fits_and_queries(draw):
    """A fit as fits() draws it, extra query rows and cut points that split
    the training rows and the extra rows into batches."""
    train, config = draw(fits())
    extra = draw(arrays(np.float64, (draw(st.integers(0, 12)), train.n_features),
                        elements=_VALUES))
    cuts = sorted(draw(st.lists(st.integers(0, train.n_rows + extra.shape[0]), max_size=4)))
    return train, config, extra, cuts


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


_SETTINGS = settings(max_examples=60, deadline=None)

# A leaf whose OLS weight is 2.7e161 on a column of ~1e-178 values, so
# mean(w^2) overflows; the GP start must still be finite.
OVERFLOWING_START = (
    Dataset(np.array([[-1.5, -1.5], [4.91615818e-178, -1.5], [0.0, 0.0], [0.0, 0.0],
                      [0.0, 0.0], [0.0, 0.0]]),
            np.array([0.0, -1.5, 0.0, 0.0, 0.0, 0.0]), ("f0", "f1")),
    FitConfig(leaf_size=2, leaf_method="gp", gp_max_iters=3, seed=0,
              outlier=OutlierConfig(enabled=True, contamination=0.1, n_trees=5, subsample=16)))


@_SETTINGS
@example(OVERFLOWING_START + (np.empty((0, 2)), []))
@given(fits_and_queries())
def test_single_row_and_batch_predictions_agree_under_any_split(case):
    train, config, extra, cuts = case
    model = fit_segmented(train, config)
    queries = np.vstack([train.features, extra])
    whole = predict_batch(model, queries)
    pieces = [predict_batch(model, part) for part in np.split(queries, cuts)]
    assert bits(np.concatenate(pieces)) == bits(whole)
    singles = [predict(model, row) for row in queries]
    assert bits(singles) == bits(whole)


@_SETTINGS
@given(fits())
def test_save_load_save_gives_identical_bytes(case):
    train, config = case
    model = fit_segmented(train, config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    assert bits(predict_batch(loaded, train)) == bits(predict_batch(model, train))


@_SETTINGS
@given(fits())
def test_refit_on_the_same_inputs_gives_the_same_bits(case):
    train, config = case
    a = fit_segmented(train, config)
    # A fresh Dataset of equal values: nothing is shared through caches.
    copy = Dataset(train.features.copy(), train.response.copy(), train.feature_names)
    b = fit_segmented(copy, config)
    assert (json.dumps(model_document(a), sort_keys=True)
            == json.dumps(model_document(b), sort_keys=True))
    assert bits(predict_batch(a, train)) == bits(predict_batch(b, train))

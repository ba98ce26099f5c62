"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The two
benchmark datasets are produced by scripts/fetch_data.py; criteria that
need them skip (with the fetch instructions) when the files are absent.
Criterion 5 is excluded by design — see its test for the reason.
"""
import math
import time

import numpy as np
import pytest

from conftest import require_dataset
from test_cart import brute_force_split, random_instance
from treeseg import cart
from treeseg.data import ColumnSpec, Dataset, load_csv, train_test_split
from treeseg.evaluation import (model_generalization_sweep, rmse,
                                tree_generalization_sweep)
from treeseg.leaf_models import (KernelParams, fit_constant, fit_gp, fit_ols,
                                 kernel_matrix, log_marginal_likelihood)
from treeseg.outliers import anomaly_score_batch, fit_forest, removal_indices
from treeseg.persistence import load_model, save_model
from treeseg.pipeline import (FitConfig, OutlierConfig, fit_segmented,
                              predict_batch)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def load_cal_housing():
    path = require_dataset("california_housing.csv")
    specs = [ColumnSpec(n) for n in
             ("med_inc", "house_age", "ave_rooms", "ave_bedrms",
              "population", "ave_occup", "latitude", "longitude")]
    specs.append(ColumnSpec("med_house_value", kind="target", transform="log"))
    data, _ = load_csv(path, specs)
    return data


def load_ccpp():
    path = require_dataset("ccpp.csv")
    specs = [ColumnSpec(n) for n in ("at", "v", "ap", "rh")]
    specs.append(ColumnSpec("pe", kind="target"))
    data, _ = load_csv(path, specs)
    return data


def test_criterion_01_california_housing_accuracy():
    data = load_cal_housing()
    split = train_test_split(data, 0.7, seed=0)
    t0 = time.perf_counter()
    model = fit_segmented(split.train, FitConfig(leaf_size=70, leaf_method="linear"))
    test_rmse = rmse(predict_batch(model, split.test), split.test.response)
    elapsed = time.perf_counter() - t0
    verdict(1, test_rmse <= 0.27 and elapsed < 60.0,
            f"California Housing linear leaves l_s=70: test RMSE {test_rmse:.4f} "
            f"(limit 0.27) in {elapsed:.1f}s (limit 60s)")


def test_criterion_02_ccpp_accuracy():
    data = load_ccpp()
    split = train_test_split(data, 0.7, seed=0)
    t0 = time.perf_counter()
    model = fit_segmented(split.train, FitConfig(leaf_size=1000, leaf_method="gp"))
    test_rmse = rmse(predict_batch(model, split.test), split.test.response)
    elapsed = time.perf_counter() - t0
    verdict(2, test_rmse <= 3.2 and elapsed < 600.0,
            f"CCPP gp leaves l_s=1000: test RMSE {test_rmse:.4f} "
            f"(limit 3.2) in {elapsed:.1f}s (limit 600s)")


def test_criterion_03_ccpp_leaf_model_escalation():
    data = load_ccpp()
    split = train_test_split(data, 0.7, seed=0)
    gp_model = fit_segmented(split.train, FitConfig(leaf_size=1000, leaf_method="gp"))
    linear_model = fit_segmented(split.train,
                                 FitConfig(leaf_size=1000, leaf_method="linear"))
    baseline = fit_segmented(split.train,
                             FitConfig(leaf_size=split.train.n_rows,
                                       leaf_method="linear"))
    gp_rmse = rmse(predict_batch(gp_model, split.test), split.test.response)
    linear_rmse = rmse(predict_batch(linear_model, split.test), split.test.response)
    single_rmse = rmse(predict_batch(baseline, split.test), split.test.response)
    verdict(3, (linear_rmse - gp_rmse >= 0.2) and (linear_rmse < single_rmse),
            f"CCPP l_s=1000: gp {gp_rmse:.4f} vs linear {linear_rmse:.4f} "
            f"(margin {linear_rmse - gp_rmse:.4f}, need >= 0.2); "
            f"single-leaf linear baseline {single_rmse:.4f}")


def test_criterion_04_generalization_gap_shape():
    grid = [10, 20, 40, 70, 100, 200, 400, 700, 1000, 2000]
    failures = []
    details = []
    for tag, loader in (("california_housing", load_cal_housing),
                        ("ccpp", load_ccpp)):
        split = train_test_split(loader(), 0.7, seed=0)
        for kind, report in (
                ("tree", tree_generalization_sweep(split, grid, dataset_tag=tag)),
                ("model", model_generalization_sweep(
                    split, grid, FitConfig(leaf_size=10, leaf_method="linear"),
                    dataset_tag=tag))):
            gap_small = abs(report.rows[0].test_rmse - report.rows[0].train_rmse)
            gap_large = abs(report.rows[-1].test_rmse - report.rows[-1].train_rmse)
            details.append(f"{tag}/{kind}: {gap_small:.4f} vs {gap_large:.4f}")
            if not gap_small > gap_large:
                failures.append(f"{tag}/{kind}")
    verdict(4, not failures,
            "train/test gap at smallest vs largest leaf size — " + "; ".join(details))


def test_criterion_05_airline_excluded():
    print("\ncriterion 5: EXCLUDED — the airline benchmark is not reproducible "
          "at desk scale (upstream retrieval and preprocessing are underspecified); "
          "criteria 6-9 substitute for it")
    pytest.skip("criterion 5 excluded by design; substituted by criteria 6-9")


def test_criterion_06_split_oracle():
    matches = 0
    tie_instances = 0
    for seed in range(230):
        X, y, min_child = random_instance(seed)
        got = cart.best_split(X, y, min_child)
        want = brute_force_split(X, y, min_child)
        if want is None:
            assert got is None, f"instance {seed}: expected no split"
        else:
            assert got is not None, f"instance {seed}: expected a split"
            assert (got.feature, got.threshold) == (want[0], want[1]), \
                f"instance {seed}: got {(got.feature, got.threshold)}, want {want[:2]}"
            assert got.gain == pytest.approx(float(want[2]),
                                             abs=1e-9 * max(1.0, abs(float(want[2]))))
            if seed % 2 == 1:  # small-integer-grid instances: exact gain ties
                tie_instances += 1
    matches = 230
    verdict(6, matches >= 200 and tie_instances >= 80,
            f"best_split matched exhaustive brute force on {matches} random "
            f"instances ({tie_instances} from the tie-heavy integer-grid family)")


def test_criterion_07_gp_numerics():
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(55):
        params = KernelParams(
            linear_variance=float(rng.uniform(0.1, 3.0)),
            rbf_variance=float(rng.uniform(0.1, 3.0)),
            rbf_lengthscale=float(rng.uniform(0.5, 3.0)),
            noise_variance=float(rng.uniform(0.05, 1.0)))
        m = int(rng.integers(5, 31))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(m, d))
        y = rng.normal(size=m)
        _, grad = log_marginal_likelihood(params, X, y)
        z = params.to_log()
        fd = np.empty(4)
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            up, _ = log_marginal_likelihood(KernelParams.from_log(zp), X, y)
            dn, _ = log_marginal_likelihood(KernelParams.from_log(zm), X, y)
            fd[i] = (up - dn) / (2.0 * h)
        worst = max(worst, np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()))

    # Solve residual on every fitted leaf of a segmented GP model.
    X = rng.uniform(-2, 2, size=(400, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(size=400) * 0.1
    model = fit_segmented(Dataset(X, y, ("a", "b")),
                          FitConfig(leaf_size=80, leaf_method="gp", gp_max_iters=30))
    worst_resid = 0.0
    ids = cart.assign_leaf_batch(model.tree, X)
    for segment_id, leaf_model in model.leaf_models.items():
        if not hasattr(leaf_model, "alpha"):
            continue
        m = leaf_model.training_inputs.shape[0]
        K = kernel_matrix(leaf_model.params, leaf_model.training_inputs,
                          leaf_model.training_inputs)
        Kn = K + (leaf_model.params.noise_variance + leaf_model.jitter) * np.eye(m)
        yc = y[ids == segment_id] - leaf_model.y_mean
        resid = float(np.linalg.norm(Kn @ leaf_model.alpha - yc) / np.linalg.norm(yc))
        worst_resid = max(worst_resid, resid)
    n_gp = sum(1 for lm in model.leaf_models.values() if hasattr(lm, "alpha"))
    verdict(7, worst < 1e-4 and worst_resid < 1e-6 and n_gp >= 2,
            f"gradient vs central differences: worst relative error {worst:.2e} "
            f"over 55 problems (limit 1e-4); worst solve residual {worst_resid:.2e} "
            f"over {n_gp} fitted leaves (limit 1e-6)")


def test_criterion_08_degenerate_equivalence():
    rng = np.random.default_rng(8)
    n = 200
    X = rng.uniform(-2, 2, size=(n, 3))
    y = X @ np.array([1.5, -1.0, 0.5]) + np.sin(X[:, 0]) + rng.normal(size=n) * 0.1
    data = Dataset(X, y, ("a", "b", "c"))
    probes = rng.uniform(-2, 2, size=(300, 3))
    worst_rel = 0.0

    # Single-leaf segmented models vs the global leaf model.
    single = fit_segmented(data, FitConfig(leaf_size=n, leaf_method="constant"))
    got = predict_batch(single, probes)
    want = np.full(300, fit_constant(y).mean)
    worst_rel = max(worst_rel, float(np.abs(got - want).max() / (1.0 + np.abs(want).max())))

    single = fit_segmented(data, FitConfig(leaf_size=n, leaf_method="linear"))
    got = predict_batch(single, probes)
    want = fit_ols(X, y).predict(probes)
    worst_rel = max(worst_rel, float(np.abs(got - want).max() / (1.0 + np.abs(want).max())))

    single = fit_segmented(data, FitConfig(leaf_size=n, leaf_method="gp",
                                           gp_max_iters=10))
    got = predict_batch(single, probes)
    scaler_mean = X.mean(axis=0)
    scaler_std = np.where(X.std(axis=0) == 0.0, 1.0, X.std(axis=0))
    from treeseg.pipeline import default_gp_init
    Xs = (X - scaler_mean) / scaler_std
    global_gp = fit_gp(Xs, y, default_gp_init(Xs, y, None), max_iters=10)
    want = global_gp.predict((probes - scaler_mean) / scaler_std)
    worst_rel = max(worst_rel, float(np.abs(got - want).max() / (1.0 + np.abs(want).max())))

    # constant-leaf segmentation equals the plain CART tree bit for bit.
    model = fit_segmented(data, FitConfig(leaf_size=25, leaf_method="constant"))
    seg_pred = predict_batch(model, probes)
    cart_pred = cart.predict_mean_batch(model.tree, probes)
    exact = bool(np.array_equal(seg_pred, cart_pred))

    verdict(8, worst_rel < 1e-9 and exact,
            f"single-leaf pipeline vs global model: max relative gap {worst_rel:.2e} "
            f"(limit 1e-9); constant leaves equal plain CART exactly: {exact}")


def test_criterion_09_outlier_filter_sanity():
    trials = 100
    hits = 0
    rng = np.random.default_rng(9)
    for trial in range(trials):
        X = rng.normal(size=(150, 2))
        planted = rng.integers(0, 150)
        X[planted] = rng.uniform(10, 14, size=2) * rng.choice([-1.0, 1.0], size=2)
        data = Dataset(X, np.zeros(150), ("a", "b"))
        forest = fit_forest(data, n_trees=100, subsample=64, seed=trial)
        removed = removal_indices(anomaly_score_batch(forest, X), 1.0 / 150.0 + 1e-9)
        removed_rows = set(map(tuple, X[removed]))
        if tuple(X[planted]) in removed_rows:
            hits += 1
    recall = hits / trials

    rng = np.random.default_rng(99)
    X = rng.normal(size=(80, 2))
    data = Dataset(X, np.zeros(80), ("a", "b"))
    forest = fit_forest(data, n_trees=50, subsample=64, seed=0)
    removed = removal_indices(anomaly_score_batch(forest, X), 0.0)
    kept = data.take(np.setdiff1d(np.arange(80), removed))
    noop = removed.size == 0 and np.array_equal(kept.features, data.features)

    verdict(9, recall >= 0.95 and noop,
            f"planted outlier removed in {hits}/{trials} trials "
            f"(recall {recall:.0%}, need >= 95%); contamination=0 left all "
            f"80 rows untouched: {noop}")


def test_criterion_10_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    X = rng.uniform(-2, 2, size=(300, 2))
    y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(size=300) * 0.1
    data = Dataset(X, y, ("a", "b"))
    probes = rng.uniform(-2.5, 2.5, size=(1000, 2))
    all_exact = True
    parts = []
    for method, iters in (("constant", 0), ("linear", 0), ("gp", 8)):
        model = fit_segmented(data, FitConfig(leaf_size=60, leaf_method=method,
                                              gp_max_iters=iters))
        before = predict_batch(model, probes)
        path = str(tmp_path / f"{method}.json")
        save_model(model, path)
        after = predict_batch(load_model(path), probes)
        exact = bool(np.array_equal(before, after))
        all_exact = all_exact and exact
        parts.append(f"{method}: {'exact' if exact else 'DIFFERS'}")
    verdict(10, all_exact,
            "save/load preserves 1000 predictions bit for bit — " + ", ".join(parts))

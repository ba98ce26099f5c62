"""Correctness checks, computed apart from the program under test.

Each check returns a list of problems (empty when it passes), so a run can
report every failure at once and the self-test can show that each check
fails on corrupted input. Routing, kernels, least squares and marginal
likelihoods are recomputed here with plain numpy from the saved model
document, not through the package's own code paths.
"""

from __future__ import annotations

import csv
import math

import numpy as np


# -- the tree, read from the model document ------------------------------

def route(tree_doc: dict, X: np.ndarray) -> np.ndarray:
    """Segment id of every row, walking the documented split rules."""
    ids = np.full(X.shape[0], -1, dtype=np.int64)
    stack = [(tree_doc["root"], np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node["kind"] == "leaf":
            ids[rows] = node["segment_id"]
            continue
        left = X[rows, node["feature"]] <= node["threshold"]
        stack.append((node["left"], rows[left]))
        stack.append((node["right"], rows[~left]))
    return ids


def leaf_docs(tree_doc: dict) -> dict[int, dict]:
    out, stack = {}, [tree_doc["root"]]
    while stack:
        node = stack.pop()
        if node["kind"] == "leaf":
            out[node["segment_id"]] = node
        else:
            stack += [node["left"], node["right"]]
    return out


def check_partition(tree_doc: dict, ids: np.ndarray, y: np.ndarray,
                    leaf_size: int, n_train_rows: int) -> list[str]:
    """The training rows the model kept fall into the leaves exactly as recorded."""
    problems = []
    leaves = leaf_docs(tree_doc)
    if ids.shape[0] != n_train_rows:
        problems.append(f"partition: {ids.shape[0]} kept rows, model records {n_train_rows}")
    if sorted(leaves) != list(range(len(leaves))):
        problems.append("partition: segment ids are not 0..n_leaves-1")
    if (ids < 0).any():
        problems.append("partition: some rows reach no leaf")
    counts = np.bincount(ids[ids >= 0], minlength=max(leaves) + 1)
    for sid, leaf in leaves.items():
        if leaf["count"] < leaf_size:
            problems.append(f"partition: leaf {sid} holds {leaf['count']} < {leaf_size} rows")
        if counts[sid] != leaf["count"]:
            problems.append(f"partition: leaf {sid} records {leaf['count']} rows, "
                            f"{counts[sid]} route to it")
        elif counts[sid]:
            mean = float(y[ids == sid].mean())
            if abs(mean - leaf["mean"]) > 1e-9 * (1.0 + abs(mean)):
                problems.append(f"partition: leaf {sid} mean {leaf['mean']!r} != {mean!r}")
    return problems


# -- leaf models ---------------------------------------------------------

def _standardize(X_leaf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = X_leaf.mean(axis=0)
    sd = X_leaf.std(axis=0)
    return mu, np.where(sd == 0.0, 1.0, sd)


def check_linear_leaves(model_doc: dict, X_fit, y_fit, ids_fit,
                        X_eval, ids_eval, pred_eval) -> list[str]:
    """Each linear (or constant) leaf predicts what lstsq on its rows predicts."""
    problems = []
    tol = 1e-7 * (1.0 + float(np.abs(y_fit).max()))
    for key, leaf in model_doc["leaf_models"].items():
        sid = int(key)
        rows = ids_fit == sid
        sel = ids_eval == sid
        if leaf["type"] == "linear":
            A = np.column_stack([X_fit[rows], np.ones(int(rows.sum()))])
            coef = np.linalg.lstsq(A, y_fit[rows], rcond=None)[0]
            ref = np.column_stack([X_eval[sel], np.ones(int(sel.sum()))]) @ coef
        elif leaf["type"] == "constant":
            ref = np.full(int(sel.sum()), y_fit[rows].mean())
        else:
            continue
        err = float(np.abs(pred_eval[sel] - ref).max(initial=0.0))
        if not err <= tol:
            problems.append(f"linear leaf {sid}: prediction differs from lstsq by {err:.3g}")
    return problems


def _kernel(params: dict, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq = ((A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * (A @ B.T))
    sq = np.maximum(sq, 0.0)
    ell2 = params["rbf_lengthscale"] ** 2
    return params["linear_variance"] * (A @ B.T) + params["rbf_variance"] * np.exp(-0.5 * sq / ell2)


def gp_lml(params: dict, X: np.ndarray, yc: np.ndarray, jitter: float) -> float:
    """Log marginal likelihood by a dense solve and slogdet."""
    K = _kernel(params, X, X)
    K[np.diag_indices_from(K)] += params["noise_variance"] + jitter
    sign, logdet = np.linalg.slogdet(K)
    if sign <= 0:
        return -math.inf
    return float(-0.5 * yc @ np.linalg.solve(K, yc) - 0.5 * logdet
                 - 0.5 * yc.shape[0] * math.log(2.0 * math.pi))


def check_gp_leaves(model_doc: dict, X_fit, y_fit, ids_fit,
                    X_eval, ids_eval, pred_eval) -> list[str]:
    """GP leaves: posterior mean by a dense solve, and LML no worse than at init."""
    problems = []
    for key, leaf in model_doc["leaf_models"].items():
        if leaf["type"] != "gp":
            continue
        sid = int(key)
        rows = ids_fit == sid
        X_leaf, y_leaf = X_fit[rows], y_fit[rows]
        mu, sd = _standardize(X_leaf)
        Xs = (X_leaf - mu) / sd
        stored = np.asarray(leaf["training_inputs"], dtype=np.float64)
        if stored.shape != Xs.shape or not np.allclose(stored, Xs, rtol=0, atol=1e-9):
            problems.append(f"gp leaf {sid}: stored inputs are not the leaf's standardized rows")
            continue
        params = leaf["params"]
        yc = y_leaf - y_leaf.mean()
        K = _kernel(params, Xs, Xs)
        K[np.diag_indices_from(K)] += params["noise_variance"] + leaf["jitter"]
        alpha = np.linalg.solve(K, yc)
        sel = ids_eval == sid
        ref = _kernel(params, (X_eval[sel] - mu) / sd, Xs) @ alpha + y_leaf.mean()
        tol = 1e-7 * (1.0 + float(np.abs(y_leaf).max()))
        err = float(np.abs(pred_eval[sel] - ref).max(initial=0.0))
        if not err <= tol:
            problems.append(f"gp leaf {sid}: posterior mean differs from a dense solve by {err:.3g}")

        final = gp_lml(params, Xs, yc, leaf["jitter"])
        var_y = float(np.var(y_leaf))
        init = gp_lml({"linear_variance": var_y, "rbf_variance": var_y,
                       "rbf_lengthscale": math.sqrt(Xs.shape[1]),
                       "noise_variance": 0.1 * var_y}, Xs, yc, 0.0)
        if not final >= init - 1e-9 * (1.0 + abs(init)):
            problems.append(f"gp leaf {sid}: final LML {final:.10g} below initial {init:.10g}")
        if not abs(final - leaf["log_marginal"]) <= 1e-6 * (1.0 + abs(final)):
            problems.append(f"gp leaf {sid}: stored LML {leaf['log_marginal']!r} != {final!r}")
    return problems


# -- bitwise contracts ---------------------------------------------------

def check_same_bits(label: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return [f"{label}: shapes {a.shape} and {b.shape} differ"]
    differ = int((a.view(np.uint64) != b.view(np.uint64)).sum())
    return [f"{label}: {differ} of {a.size} values differ in their bits"] if differ else []


def check_same_bytes(label: str, paths: list[str]) -> list[str]:
    blobs = []
    for path in paths:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    if any(blob != blobs[0] for blob in blobs[1:]):
        return [f"{label}: {', '.join(paths)} are not byte-identical"]
    return []


def check_scored_csv(input_path: str, scored_path: str, batch_pred: np.ndarray,
                     segment_ids: np.ndarray) -> list[str]:
    """`treeseg predict` output: input rows in order, plus batch-equal predictions."""
    with open(input_path, newline="", encoding="utf-8") as fh:
        source = list(csv.reader(fh))
    with open(scored_path, newline="", encoding="utf-8") as fh:
        scored = list(csv.reader(fh))
    if not scored or scored[0] != source[0] + ["prediction", "segment_id"]:
        return ["scored csv: header is not the input header plus prediction, segment_id"]
    if len(scored) != len(source):
        return [f"scored csv: {len(scored) - 1} rows for {len(source) - 1} input rows"]
    problems = []
    misaligned = sum(out[:-2] != src for out, src in zip(scored[1:], source[1:]))
    if misaligned:
        problems.append(f"scored csv: {misaligned} rows do not carry their input cells")
    preds = np.array([float(row[-2]) for row in scored[1:]])
    problems += check_same_bits("scored csv vs predict_batch", preds, batch_pred)
    segs = np.array([int(row[-1]) for row in scored[1:]])
    if not np.array_equal(segs, segment_ids):
        problems.append(f"scored csv: {int((segs != segment_ids).sum())} segment ids "
                        "differ from routing the documented tree")
    return problems


# -- accuracy and the sweep ----------------------------------------------

def check_accuracy(test_rmse: float, ols_rmse: float, noise_sd: float, n_test: int) -> list[str]:
    """No worse than one global least-squares fit; not below the noise floor.

    The RMS of n independent N(0, s^2) draws has relative sd about
    1/sqrt(2n); five of those below the noise level is out of reach for any
    model that does not see the test noise.
    """
    problems = []
    if not test_rmse <= ols_rmse:
        problems.append(f"accuracy: test RMSE {test_rmse:.6g} worse than global OLS {ols_rmse:.6g}")
    floor = noise_sd * (1.0 - 5.0 / math.sqrt(2.0 * n_test))
    if not test_rmse >= floor:
        problems.append(f"accuracy: test RMSE {test_rmse:.6g} below the noise floor {floor:.6g}")
    return problems


def ols_rmse(X_train, y_train, X_test, y_test) -> float:
    coef = np.linalg.lstsq(np.column_stack([X_train, np.ones(len(X_train))]), y_train,
                           rcond=None)[0]
    pred = np.column_stack([X_test, np.ones(len(X_test))]) @ coef
    return float(np.sqrt(np.mean((pred - y_test) ** 2)))


def check_sweep(csv_path: str, grid: list[int], n_train: int,
                tree_doc: dict | None = None, X_test=None, y_test=None) -> list[str]:
    """The tree sweep covers the clipped grid; leaf counts respect leaf_size.

    With `tree_doc` (a model fitted on the unfiltered training rows) the
    sweep's row at that leaf size must reproduce the tree's bare-mean train
    RMSE, from the documented leaf stds, and test RMSE, from routing.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    want = sorted({min(s, n_train) for s in grid})
    got = [int(r["leaf_size"]) for r in rows]
    if got != want:
        return [f"sweep: leaf sizes {got} != {want}"]
    for r in rows:
        ls, leaves = int(r["leaf_size"]), int(r["n_leaves"])
        if not 1 <= leaves <= n_train // ls:
            problems.append(f"sweep: {leaves} leaves at leaf_size {ls}")
        for key in ("train_rmse", "test_rmse"):
            if not 0.0 < float(r[key]) < math.inf:
                problems.append(f"sweep: {key} {r[key]} at leaf_size {ls}")
    if tree_doc is not None:
        row = next((r for r in rows if int(r["leaf_size"]) == tree_doc["leaf_size"]), None)
        if row is None:
            return problems + ["sweep: the model's leaf size is not in the grid"]
        leaves = leaf_docs(tree_doc)
        if int(row["n_leaves"]) != len(leaves):
            problems.append(f"sweep: {row['n_leaves']} leaves, the model has {len(leaves)}")
        sse = sum(leaf["count"] * leaf["std"] ** 2 for leaf in leaves.values())
        train_ref = math.sqrt(sse / sum(leaf["count"] for leaf in leaves.values()))
        means = np.array([leaves[i]["mean"] for i in range(len(leaves))])
        test_ref = float(np.sqrt(np.mean((means[route(tree_doc, X_test)] - y_test) ** 2)))
        for key, ref in (("train_rmse", train_ref), ("test_rmse", test_ref)):
            if not abs(float(row[key]) - ref) <= 1e-9 * ref:
                problems.append(f"sweep: {key} {row[key]} != {ref!r} from the model's tree")
    return problems

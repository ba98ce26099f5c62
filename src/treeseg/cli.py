"""Command-line interface: fit, predict, sweep, profile, outliers.

A run is described by a JSON config file; individual flags override file
values (flags win). Every command that computes writes the fully resolved
configuration into the output directory, so any result can be reproduced
from the artifacts alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import cart, evaluation
from .data import (ColumnSpec, DataError, _integer, _real, columns_from_doc, ingest, load_csv,
                   read_json, train_test_split)
from .leaf_models import GPModel
from .persistence import PersistenceError, load_bundle, save_model
from .pipeline import (LEAF_METHODS, FitConfig, OutlierConfig, PipelineError, fit_segmented,
                       predict_batch, predict_with_segments, score_outliers)

_DEFAULT_SWEEP = [10, 20, 40, 70, 100, 200, 400, 700, 1000, 2000]
# Keys that older run configs may hold and that are now ignored, by dotted path.
_RETIRED_KEYS = frozenset({"threads"})


@dataclass
class RunConfig:
    """Fully resolved run description (file values + flag overrides)."""

    data_path: str
    columns: list[ColumnSpec] | None  # None: all numeric, last column is the target
    train_fraction: float = 0.7
    split_seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)
    sweep_sizes: list[int] = field(default_factory=lambda: list(_DEFAULT_SWEEP))
    out_dir: str = "runs"
    dataset_tag: str = "dataset"

    def to_doc(self) -> dict:
        return {
            "data": {
                "path": self.data_path,
                "tag": self.dataset_tag,
                "columns": None if self.columns is None else [asdict(c) for c in self.columns],
            },
            "split": {"train_fraction": self.train_fraction, "seed": self.split_seed},
            "fit": self.fit.to_doc(),
            "sweep": {"leaf_sizes": self.sweep_sizes},
            "out_dir": self.out_dir,
        }


def _overlay(base: dict, values: dict, prefix: str = "") -> dict:
    """Lay the non-null entries of `values` over `base`, in place. Where
    `base` holds an object, `values` must hold one too, laid over in turn.
    A key that `base` lacks is an error, unless it is a retired key."""
    for key, value in values.items():
        name = prefix + key
        if key not in base:
            if name in _RETIRED_KEYS:
                continue
            raise DataError(f"unknown config key {name!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise DataError(f"config section {key!r} must be a JSON object, got {value!r}")
            _overlay(base[key], value, name + ".")
        elif value is not None:
            base[key] = value
    return base


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, overlaid by the config file's values, then by the flags.

    The fit settings are read by `FitConfig.from_doc`, as on model load.
    """
    doc = RunConfig(data_path=None, columns=None, dataset_tag=None).to_doc()
    if args.config:
        _overlay(doc, read_json(args.config))
    _overlay(doc, {
        "data": {"path": args.data, "tag": args.tag},
        "split": {"train_fraction": args.train_fraction, "seed": args.split_seed},
        "fit": {"leaf_size": args.leaf_size, "leaf_method": args.leaf_method,
                "seed": args.seed, "ridge_eps": args.ridge_eps,
                "gp_max_iters": args.gp_max_iters,
                "outlier": {"enabled": None if args.outliers is None else args.outliers == "on",
                            "contamination": args.contamination, "n_trees": args.n_trees}},
        "sweep": {"leaf_sizes": getattr(args, "leaf_sizes", None)},
        "out_dir": args.out_dir})

    data, sweep_sizes = doc["data"], doc["sweep"]["leaf_sizes"]
    if not data["path"]:
        raise DataError("no dataset given: pass --data or set data.path in the config file")
    if not isinstance(sweep_sizes, list):
        raise DataError(f"sweep.leaf_sizes must be a list of integers, got {sweep_sizes!r}")
    data_path = str(data["path"])
    tag = data["tag"]
    if tag is None:
        tag = os.path.splitext(os.path.basename(data_path))[0] or "dataset"
    return RunConfig(
        data_path=data_path,
        columns=None if data["columns"] is None else columns_from_doc(data["columns"]),
        train_fraction=_real("split.train_fraction", doc["split"]["train_fraction"]),
        split_seed=_integer("split.seed", doc["split"]["seed"]),
        fit=FitConfig.from_doc(doc["fit"]),
        sweep_sizes=[_integer("sweep.leaf_sizes", v) for v in sweep_sizes],
        out_dir=str(doc["out_dir"]),
        dataset_tag=str(tag))


def _prepare(cfg: RunConfig):
    """Shared front half: output dir, config echo, ingestion. Returns the
    dataset and its ingestion report."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "resolved_config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg.to_doc(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    data, report = load_csv(cfg.data_path, cfg.columns)
    print(report.to_text(), file=sys.stderr)
    return data, report


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    data, report = _prepare(cfg)
    split = train_test_split(data, cfg.train_fraction, cfg.split_seed)
    model = fit_segmented(split.train, cfg.fit)

    kept = evaluation.kept_training_set(split.train, model)
    train_rmse = evaluation.rmse(predict_batch(model, kept), kept.response)
    test_rmse = evaluation.rmse(predict_batch(model, split.test), split.test.response)

    model_path = os.path.join(cfg.out_dir, "model.json")
    save_model(model, model_path, ingestion=report.recipe())

    lines = [
        f"dataset: {cfg.data_path} ({data.n_rows} rows, {data.n_features} features)",
        f"train/test: {split.train.n_rows}/{split.test.n_rows} (fraction {cfg.train_fraction}, seed {cfg.split_seed})",
        f"outliers removed: {model.n_removed_outliers}",
        f"leaf_size: {cfg.fit.leaf_size}   leaf_method: {cfg.fit.leaf_method}   leaves: {model.tree.n_leaves}",
        f"train RMSE: {train_rmse:.6g}",
        f"test RMSE: {test_rmse:.6g}",
        "",
        "per-segment fit status:",
    ]
    for segment_id in sorted(model.fit_report):
        s = model.fit_report[segment_id]
        note = f" ({s.reason})" if s.reason else ""
        leaf = model.leaf_models[segment_id]
        if isinstance(leaf, GPModel):
            note += (f" {leaf.training_inputs.shape[0]} rows, {leaf.n_iterations} L-BFGS "
                     f"iterations, {leaf.n_evaluations} evaluations, "
                     f"{'converged' if leaf.converged else 'not converged'}, "
                     f"final LML {leaf.log_marginal:.10g}")
        lines.append(f"  segment {segment_id}: {s.status} [{s.method}]{note}")
    report_text = "\n".join(lines)
    with open(os.path.join(cfg.out_dir, "fit_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report_text + "\n")
    print(report_text)
    print(f"model written to {model_path}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model, recipe = load_bundle(args.model)
    # Without a recipe, the model's feature names, all numeric.
    specs, levels = recipe or ([ColumnSpec(n) for n in model.feature_names], {})
    # One pass over the file: the rows echoed to the output are the raw
    # cells of the rows ingest parsed, so the two cannot disagree. The
    # target is never read, so a blank target cell is echoed, not refused.
    features, _, names, report = ingest(args.input, [s for s in specs if s.kind != "target"],
                                        levels=levels, keep_rows=True)
    if tuple(names) != model.feature_names:
        raise DataError(f"{args.model}: its ingestion recipe gives the features {names}, but "
                        f"the model was fit on {list(model.feature_names)}")
    if report.rows_dropped:
        raise DataError(
            f"{args.input}: {report.rows_dropped} rows have missing or unparseable "
            "values; prediction requires complete rows so the output aligns with the input")
    if report.unseen_category_rows:
        print(f"note: {report.unseen_category_rows} rows carry category levels unseen "
              "at fit time (encoded as all-zero indicators)", file=sys.stderr)

    predictions, segment_ids = predict_with_segments(model, features)

    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.header + ["prediction", "segment_id"])
        for row, pred, seg in zip(report.rows, predictions, segment_ids):
            writer.writerow(row + [repr(float(pred)), int(seg)])
    print(f"{len(report.rows)} predictions written to {args.output}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    data, _ = _prepare(cfg)
    split = train_test_split(data, cfg.train_fraction, cfg.split_seed)
    if args.kind == "tree":
        report = evaluation.tree_generalization_sweep(split, cfg.sweep_sizes,
                                                      dataset_tag=cfg.dataset_tag)
    else:
        report = evaluation.model_generalization_sweep(split, cfg.sweep_sizes, cfg.fit,
                                                       dataset_tag=cfg.dataset_tag)
    out_path = os.path.join(cfg.out_dir, f"sweep_{cfg.dataset_tag}_{args.kind}.csv")
    report.to_csv(out_path)
    print(report.to_text())
    print(f"sweep written to {out_path}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    model, _ = load_bundle(args.model)
    tree = model.tree
    leaves = np.flatnonzero(tree.left < 0).tolist()  # in preorder
    if args.all:
        ids = [int(tree.segment_id[node]) for node in sorted(leaves, key=lambda n: tree.mean[n])]
    else:
        if args.segment is None:
            raise DataError("pass --segment N or --all")
        ids = [args.segment]
    blocks = []
    for segment_id in ids:
        profile = cart.segment_profile(tree, segment_id)
        std = tree.std[tree.leaf_node(segment_id)]
        blocks.append(profile.to_text() + f"\n  [response std {std:.6g}]")
    print("\n\n".join(blocks))
    if args.all:
        total = sum(tree.count[leaves].tolist())
        print(f"\n{len(leaves)} segments, {total} training rows")
    return 0


def cmd_outliers(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    data, _ = _prepare(cfg)
    scores, removed = score_outliers(data, cfg.fit)
    removed = set(removed.tolist())
    out_path = os.path.join(cfg.out_dir, "outlier_scores.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_index", "score", "removed"])
        for i, s in enumerate(scores):
            writer.writerow([i, repr(float(s)), int(i in removed)])
    print(f"{len(removed)} of {data.n_rows} rows flagged "
          f"(contamination {cfg.fit.outlier.contamination:g}); scores written to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeseg",
        description="Segmented regression: tree segmentation with per-segment models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser, sweep: bool = False):
        p.add_argument("--config", help="JSON run-config file (flags override it)")
        p.add_argument("--data", help="dataset CSV path")
        p.add_argument("--tag", help="short dataset tag used in output names")
        p.add_argument("--out-dir", help=f"output directory (default {RunConfig.out_dir}/)")
        p.add_argument("--train-fraction", type=float,
                       help=f"train split fraction (default {RunConfig.train_fraction:g})")
        p.add_argument("--split-seed", type=int,
                       help=f"row-split seed (default {RunConfig.split_seed})")
        p.add_argument("--seed", type=int, help=f"fit seed (default {FitConfig.seed})")
        p.add_argument("--leaf-size", type=int,
                       help=f"minimum rows per segment (default {FitConfig.leaf_size})")
        p.add_argument("--leaf-method", choices=LEAF_METHODS,
                       help=f"per-segment regressor (default {FitConfig.leaf_method})")
        p.add_argument("--ridge-eps", type=float, help="ridge strength for linear leaves "
                       f"(default {FitConfig.ridge_eps:g})")
        p.add_argument("--gp-max-iters", type=int,
                       help=f"GP optimizer iteration cap (default {FitConfig.gp_max_iters})")
        p.add_argument("--outliers", choices=["on", "off"], help="toggle outlier filtering")
        p.add_argument("--contamination", type=float, help="fraction of training rows to "
                       f"remove (default {OutlierConfig.contamination:g})")
        p.add_argument("--n-trees", type=int,
                       help=f"isolation forest size (default {OutlierConfig.n_trees})")
        if sweep:
            p.add_argument("--leaf-sizes", type=int, nargs="+", help="leaf sizes to sweep "
                           f"(default {_DEFAULT_SWEEP[0]}..{_DEFAULT_SWEEP[-1]} grid)")

    p_fit = sub.add_parser("fit", help="fit a segmented model and save it")
    add_config_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="score a CSV with a saved model")
    p_pred.add_argument("--model", required=True, help="model document from `fit`")
    p_pred.add_argument("--input", required=True, help="input CSV to score")
    p_pred.add_argument("--output", required=True, help="output CSV (input + prediction column)")
    p_pred.set_defaults(func=cmd_predict)

    p_sweep = sub.add_parser("sweep", help="train/test RMSE across leaf sizes")
    p_sweep.add_argument("--kind", choices=["tree", "model"], required=True,
                         help="tree: bare segmentation means; model: full pipeline")
    add_config_flags(p_sweep, sweep=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profile", help="print segment rule paths from a model")
    p_prof.add_argument("--model", required=True)
    p_prof.add_argument("--segment", type=int, help="segment id to describe")
    p_prof.add_argument("--all", action="store_true", help="describe every segment, sorted by mean")
    p_prof.set_defaults(func=cmd_profile)

    p_out = sub.add_parser("outliers", help="score every row with the isolation forest")
    add_config_flags(p_out)
    p_out.set_defaults(func=cmd_outliers)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, PipelineError, PersistenceError, cart.CartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

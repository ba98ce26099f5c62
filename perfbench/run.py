"""Benchmark: fit -> save -> score -> sweep on one seeded synthetic workload.

    python3 perfbench/run.py --workload ccpp-gp --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. Each round drives the user-facing path in-process:
`treeseg fit`, then, interleaved, `treeseg predict` on a scoring CSV,
library `predict_batch` and single-row `predict` on the loaded model, and
`treeseg sweep --kind tree`. Rounds repeat until `--seconds` of round time
have passed (at least one round). After the last round the outputs are
checked against independent recomputations (checks.py).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are per-layer figures from spans
recorded around the package's public functions, and the spans are written
to `perfbench/_out/`.
"""

import os
import sys
import time

# One BLAS thread, fixed before numpy loads: see README.md ("BLAS threads").
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
SETUP_REPS = 5
DEFAULT_SWEEP = [10, 20, 40, 70, 100, 200, 400, 700, 1000, 2000]

END_TO_END_UNITS = {
    "setup_s": "s", "fit_s": "s", "score_rows_per_s": "rows/s",
    "predict_batch_rows_per_s": "rows/s", "predict_one_p90_ms": "ms",
    "tree_sweep_s": "s", "test_rmse": "target_units", "peak_rss_mb": "MB",
}


def import_package():
    """Import numpy and the package from this checkout; None when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "treeseg")):
        return None
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import treeseg
    from treeseg import cli  # noqa: F401
    if not os.path.abspath(treeseg.__file__).startswith(src + os.sep):
        return None
    return treeseg


def write_csv(path: str, header, matrix) -> None:
    """Write a float matrix with repr-exact cells, as the package's own writer does."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in matrix.tolist())


class Run:
    """State of one benchmark run: inputs, timings, counters and problems."""

    def __init__(self, workload, seed: int, work_dir: str, tracer=None):
        self.wl = workload
        self.seed = seed
        self.work = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {k: [] for k in ("fit", "score", "batch", "one", "sweep")}
        self.rounds: list[dict] = []    # per round: predictions made and model counts

    # -- set-up ----------------------------------------------------------

    def setup(self) -> float:
        """Generate and write the inputs SETUP_REPS times; median seconds."""
        import numpy as np

        self.data_csv = os.path.join(self.work, "data.csv")
        self.score_csv = os.path.join(self.work, "score.csv")
        self.config = os.path.join(self.work, "run.json")
        durations = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            table, score = self.wl.make(self.seed)
            write_csv(self.data_csv, table.feature_names + (table.target_name,),
                      np.column_stack([table.features, table.response]))
            write_csv(self.score_csv, score.feature_names, score.features)
            with open(self.config, "w", encoding="utf-8") as fh:
                json.dump(self.wl.fit_config(self.seed, self.data_csv, table), fh, indent=1)
            durations.append(time.perf_counter() - t0)
        self.table, self.score = table, score
        return statistics.median(durations)

    # -- one round -------------------------------------------------------

    def _cli(self, argv) -> bool:
        from treeseg import cli

        self.attempted += 1
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark abort
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            self.failed += 1
            self.problems.append(f"treeseg {argv[0]} failed ({code}): {sink.getvalue()[-300:]}")
        return code == 0

    def round(self, index: int) -> float:
        """One round of every operation; returns its duration."""
        import numpy as np
        import treeseg
        from treeseg import cli

        started = time.perf_counter()
        wl = self.wl
        out = os.path.join(self.work, f"round{index}")
        model_path = os.path.join(out, "model.json")

        # The model object `treeseg fit` saves, for the save/load contracts.
        captured = []
        save_model = cli.save_model

        def capture(model, path, *args, **kwargs):
            captured.append(model)
            return save_model(model, path, *args, **kwargs)

        commands = {
            "score": ["predict", "--model", model_path, "--input", self.score_csv,
                      "--output", os.path.join(out, "scored.csv")],
            "sweep": ["sweep", "--kind", "tree", "--config", self.config, "--out-dir", out],
        }
        cli.save_model = capture
        try:
            t0 = time.perf_counter()
            ok = self._cli(["fit", "--config", self.config, "--out-dir", out])
            self.times["fit"].append(time.perf_counter() - t0)
        finally:
            cli.save_model = save_model
        schedule = wl.schedule()
        if not ok:
            skipped = len(schedule) * (1 + wl.one_rows)
            self.attempted += skipped
            self.failed += skipped
            return time.perf_counter() - started

        model = treeseg.load_model(model_path)
        X = self.score.features
        one = []
        for kind in schedule:
            for i in range(len(one), len(one) + wl.one_rows):
                self.attempted += 1
                t0 = time.perf_counter()
                one.append(treeseg.predict(model, X[i]))
                self.times["one"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            if kind == "batch":
                self.attempted += 1
                batch = treeseg.predict_batch(model, X)
            else:
                self._cli(commands[kind])
            self.times[kind].append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started

        fresh = captured[0]
        gps = [m for m in fresh.leaf_models.values() if isinstance(m, treeseg.GPModel)]
        self.rounds.append({
            "one": np.array(one), "batch": batch,
            "leaf_models.gp_iterations": float(sum(m.n_iterations for m in gps)),
            "leaf_models.gp_iter_cap_leaves": float(sum(
                m.n_iterations >= fresh.config.gp_max_iters for m in gps)),
            "leaf_models.gp_jitter_leaves": float(sum(m.jitter > 0 for m in gps)),
            "pipeline.fallback_leaves": float(sum(
                s.status == "fallback" for s in fresh.fit_report.values())),
        })
        if index == 0:
            self.fresh = fresh
        return elapsed

    # -- checks, after every round has been measured ---------------------

    def reference(self) -> SimpleNamespace:
        """Round 0's saved document and loaded model, the split and its routing."""
        import numpy as np
        import treeseg
        import checks
        from workloads import TRAIN_FRACTION

        path = os.path.join(self.work, "round0", "model.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        loaded = treeseg.load_model(path)
        t = self.table
        y = np.log(t.response) if t.log_target else t.response
        split = treeseg.train_test_split(treeseg.Dataset(t.features, y, t.feature_names),
                                         TRAIN_FRACTION, self.seed)
        # The rows the filter kept, by the package's own account of them.
        kept = (treeseg.evaluation.kept_training_set(split.train, self.fresh)
                if doc["n_removed_outliers"] else split.train)
        return SimpleNamespace(
            path=path, doc=doc, loaded=loaded, train=split.train, test=split.test, kept=kept,
            ids_kept=checks.route(doc["tree"], kept.features),
            ids_test=checks.route(doc["tree"], split.test.features),
            pred_test=treeseg.predict_batch(loaded, split.test.features))

    def check(self) -> None:
        import numpy as np
        import treeseg
        import checks

        first = os.path.join(self.work, "round0")
        for index, rec in enumerate(self.rounds):
            self.problems += checks.check_same_bits(
                f"round {index}: predict vs predict_batch", rec["one"],
                rec["batch"][:len(rec["one"])])
            if index:  # refits are deterministic: every round writes the same bytes
                out = os.path.join(self.work, f"round{index}")
                for name in ("model.json", "scored.csv"):
                    self.problems += checks.check_same_bytes(
                        f"round {index}: {name}",
                        [os.path.join(first, name), os.path.join(out, name)])

        ref = self.reference()
        doc, fresh, batch, tree = ref.doc, self.fresh, self.rounds[0]["batch"], ref.doc["tree"]
        train, test, kept = ref.train, ref.test, ref.kept

        # save -> load -> save
        again = [os.path.join(first, f"resave{i}.json") for i in range(3)]
        treeseg.save_model(fresh, again[0], ingestion=doc["ingestion"])
        treeseg.save_model(fresh, again[1], ingestion=doc["ingestion"])
        treeseg.save_model(ref.loaded, again[2], ingestion=doc["ingestion"])
        self.problems += checks.check_same_bytes("save twice / resave", [ref.path] + again)
        self.problems += checks.check_same_bits(
            "predictions before save vs after load (test rows)",
            treeseg.predict_batch(fresh, test.features), ref.pred_test)
        self.problems += checks.check_same_bits(
            "predictions before save vs after load (scoring rows)",
            treeseg.predict_batch(fresh, self.score.features), batch)

        expect_removed = (int(np.floor(self.wl.contamination * train.n_rows + 0.5))
                          if self.wl.outliers else 0)
        if doc["n_removed_outliers"] != expect_removed:
            self.problems.append(f"outliers: removed {doc['n_removed_outliers']}, "
                                 f"expected {expect_removed}")
        self.problems += checks.check_partition(tree, ref.ids_kept, kept.response,
                                                self.wl.leaf_size, doc["n_train_rows"])
        if self.wl.leaf_method == "gp":
            self.problems += checks.check_gp_leaves(
                doc, kept.features, kept.response, ref.ids_kept,
                test.features, ref.ids_test, ref.pred_test)
        else:
            X_eval = np.vstack([kept.features, test.features])
            self.problems += checks.check_linear_leaves(
                doc, kept.features, kept.response, ref.ids_kept, X_eval,
                np.concatenate([ref.ids_kept, ref.ids_test]),
                treeseg.predict_batch(ref.loaded, X_eval))
        self.problems += checks.check_scored_csv(
            self.score_csv, os.path.join(first, "scored.csv"), batch,
            checks.route(tree, self.score.features))
        self.test_rmse = float(np.sqrt(np.mean((ref.pred_test - test.response) ** 2)))
        self.problems += checks.check_accuracy(
            self.test_rmse,
            checks.ols_rmse(train.features, train.response, test.features, test.response),
            self.table.noise_sd, test.n_rows)
        self.problems += checks.check_sweep(
            os.path.join(first, f"sweep_{self.wl.name}_tree.csv"), DEFAULT_SWEEP,
            train.n_rows, None if self.wl.outliers else tree, test.features, test.response)

    # -- per-layer figures -----------------------------------------------

    def layer_figures(self, index: int) -> dict[str, float]:
        tr = self.tracer

        def total(name):
            return float(sum(tr.durations(name, index)))

        def calls(name):
            return float(len(tr.durations(name, index)))

        counts = self.rounds[index]
        return {
            "data.load_csv_s": total("data.load_csv"),
            "data.ingest_s": total("data.ingest"),
            "outliers.fit_forest_s": total("outliers.fit_forest"),
            "outliers.fit_forest_calls": calls("outliers.fit_forest"),
            "outliers.anomaly_score_batch_s": total("outliers.anomaly_score_batch"),
            "cart.build_tree_s": total("cart.build_tree"),
            "cart.best_split_calls": calls("cart.best_split"),
            "cart.assign_leaf_batch_s": total("cart.assign_leaf_batch"),
            "cart.assign_leaf_batch_calls": calls("cart.assign_leaf_batch"),
            "leaf_models.fit_gp_s": total("leaf_models.fit_gp"),
            "leaf_models.fit_gp_max_s": float(max(tr.durations("leaf_models.fit_gp", index),
                                                  default=0.0)),
            "leaf_models.gp_iterations": counts["leaf_models.gp_iterations"],
            "leaf_models.gp_iter_cap_leaves": counts["leaf_models.gp_iter_cap_leaves"],
            "leaf_models.gp_jitter_leaves": counts["leaf_models.gp_jitter_leaves"],
            "leaf_models.fit_ols_s": total("leaf_models.fit_ols"),
            "leaf_models.gp_predict_s": total("leaf_models.gp_predict_mean_batch"),
            "pipeline.fit_segmented_s": total("pipeline.fit_segmented"),
            "pipeline.predict_batch_s": total("pipeline.predict_batch"),
            "pipeline.fallback_leaves": counts["pipeline.fallback_leaves"],
            "persistence.save_model_s": total("persistence.save_model"),
            "persistence.load_model_s": total("persistence.load_bundle"),
            "persistence.model_bytes": float(os.path.getsize(
                os.path.join(self.work, f"round{index}", "model.json"))),
            "evaluation.kept_training_set_s": total("evaluation.kept_training_set"),
            "cli.fit_self_s": tr.layer_self_time("cli.cmd_fit", index),
            "cli.predict_self_s": tr.layer_self_time("cli.cmd_predict", index),
        }


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: str,
                 import_s: float) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details for the trace file)."""
    import numpy
    import scipy
    import treeseg
    from tracing import Tracer

    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    tracer = Tracer() if trace else None
    run = Run(workload, seed, work_dir, tracer)
    setup_s = import_s + run.setup()

    if tracer:
        tracer.install(treeseg)
    try:
        spent, index = 0.0, 0
        while index == 0 or spent < seconds:
            if tracer:
                tracer.round = index
            spent += run.round(index)
            index += 1
    finally:
        if tracer:
            tracer.uninstall()
    # Read before the checks, whose dense solves are the benchmark's, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.failed == 0:
        run.check()
    else:
        run.test_rmse = float("nan")
        run.problems.append("checks skipped: operations failed")

    t = run.times
    one_ms = sorted(v * 1e3 for v in t["one"])
    med = statistics.median
    p90 = upper_decile
    e2e = {
        "setup_s": setup_s,
        "fit_s": p90(t["fit"]),
        "score_rows_per_s": workload.n_score / p90(t["score"]),
        "predict_batch_rows_per_s": workload.n_score / p90(t["batch"]),
        "predict_one_p90_ms": p90(one_ms),
        "tree_sweep_s": p90(t["sweep"]),
        "test_rmse": run.test_rmse,
        "peak_rss_mb": peak_rss_mb,
    }
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    details = {
        "workload": workload.name, "seed": seed, "rounds": index,
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS), "cpu_count": os.cpu_count(),
        "end_to_end": e2e,
        "op_seconds": {k: v for k, v in t.items() if k != "one"},
        "predict_one_samples": len(one_ms),
        # Reference only: the median flips between the machine's two speeds,
        # and the far tail of sub-millisecond calls moves with its noise.
        "median_seconds": {k: med(v) for k, v in t.items()},
        "predict_one_p99_ms": one_ms[min(len(one_ms) - 1, int(0.99 * len(one_ms)))],
        "problems": run.problems,
    }
    if tracer:
        per_round = [run.layer_figures(i) for i in range(index)]
        layers = {k: med([r[k] for r in per_round]) for k in per_round[0]}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        details["per_layer"] = layers
        details["trace"] = tracer.to_doc()
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, details


def upper_decile(samples) -> float:
    """The 90th percentile by nearest rank: the largest of up to six samples.

    On a shared host the samples of one run fall into two speed levels;
    the slow one is present in nearly every run, the fast one comes and goes
    for minutes at a time. The upper decile reads the slow level and so
    repeats from run to run, where the median and the fastest sample flip
    between the levels (README.md, "How the bounds were set").
    """
    ordered = sorted(samples)
    return ordered[int(0.9 * (len(ordered) - 1) + 0.5)]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    treeseg = import_package()
    if treeseg is None:
        print(f"error: no treeseg package under {os.path.join(ROOT, 'src')}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    name = f"{args.workload}-s{args.seed}"
    work_dir = os.path.join(OUT_DIR, name)
    try:
        result, details = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                       bool(args.trace), work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(details, fh)
    for problem in details["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    summary = {k: v for k, v in details.items() if k not in ("trace", "problems")}
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

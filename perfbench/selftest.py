"""Quick self-test of the benchmark itself (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units, and
passes its correctness checks. Then feeds every check a corrupted input and
requires it to fail, so a check that cannot fail is caught here.
"""

import dataclasses
import json
import os
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

TINY = dict(score_reps=2, batch_reps=2, sweep_reps=1, one_rows=10)
TINY_SIZES = {
    "ccpp-gp": dict(n_rows=900, n_score=120, leaf_size=200),
    "ccpp-gp-small": dict(n_rows=900, n_score=120, leaf_size=40, gp_max_iters=5),
    "housing-linear": dict(n_rows=4000, n_score=200, leaf_size=100),
}


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(bench: dict) -> None:
    from workloads import WORKLOADS

    traced = set()
    for name, wl in WORKLOADS.items():
        tiny = dataclasses.replace(wl, **TINY, **TINY_SIZES[name])
        for trace in (False, True):
            work = os.path.join(run.OUT_DIR, f"selftest-{name}")
            try:
                result, details = run.run_workload(tiny, 3, 0.0, trace, work, 0.0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            expect(result["correct"], f"{name}: checks failed: {details['problems']}")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{name}: {result['failed']} of {result['attempted']} failed")
            wanted = bench["per_layer" if trace else "end_to_end"]
            expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
                   f"{name} trace={trace}: metric names {sorted(result['metrics'])}")
            for m in wanted:
                got = result["metrics"][m["name"]]
                expect(got["unit"] == m["unit"], f"{name}: {m['name']} unit {got['unit']}")
                expect(isinstance(got["value"], float), f"{name}: {m['name']} is not a number")
            if trace:
                traced |= {span[0].split(".")[0] for span in details["trace"]["spans"]}
        print(f"ok  {name}: metrics, units and checks")
    from tracing import LAYERS

    expect(traced == set(LAYERS), f"traced layers {sorted(traced)} != {sorted(LAYERS)}")


def check_checks() -> None:
    """Every check passes on a tiny run's real outputs and fails on a corrupted copy."""
    import numpy as np
    import checks
    import treeseg
    from workloads import WORKLOADS

    called = {}
    for attr in [a for a in dir(checks) if a.startswith("check_")]:
        func = getattr(checks, attr)

        def counted(*args, _func=func, _name=attr, **kwargs):
            called[_name] = called.get(_name, 0) + 1
            return _func(*args, **kwargs)

        setattr(checks, attr, counted)

    failures = {}
    by_runs = set()

    def must_fail(label, problems):
        expect(bool(problems), f"check {label} did not fail on corrupted input")
        failures[label] = problems[0]

    for name in ("ccpp-gp", "housing-linear"):
        wl = dataclasses.replace(WORKLOADS[name], **TINY, **TINY_SIZES[name])
        work = os.path.join(run.OUT_DIR, f"selftest-checks-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            r = run.Run(wl, 5, work, None)
            r.setup()
            r.round(0)
            r.check()
            by_runs.update(called)
            expect(not r.problems, f"{name}: clean run reported {r.problems}")
            out = os.path.join(work, "round0")
            ref = r.reference()
            doc, tree, pred = ref.doc, ref.doc["tree"], ref.pred_test
            train, test, kept = ref.train, ref.test, ref.kept
            ids_kept, ids_test = ref.ids_kept, ref.ids_test

            smallest = min(leaf["count"] for leaf in checks.leaf_docs(tree).values())
            must_fail("partition/leaf_size", checks.check_partition(
                tree, ids_kept, kept.response, smallest + 1, doc["n_train_rows"]))
            must_fail("partition/rows", checks.check_partition(
                tree, ids_kept[1:], kept.response[1:], wl.leaf_size, doc["n_train_rows"]))
            bad = pred.copy()
            bad[0] += 1e-4 * (1.0 + abs(bad[0]))
            leaf_check = (checks.check_gp_leaves if wl.leaf_method == "gp"
                          else checks.check_linear_leaves)
            expect(not leaf_check(doc, kept.features, kept.response, ids_kept,
                                  test.features, ids_test, pred), f"{name}: leaf check")
            must_fail(f"{wl.leaf_method} leaves/prediction", leaf_check(
                doc, kept.features, kept.response, ids_kept, test.features, ids_test, bad))
            if wl.leaf_method == "gp":
                worse = json.loads(json.dumps(doc))
                for leaf in worse["leaf_models"].values():
                    leaf["params"]["noise_variance"] *= 1e4
                problems = checks.check_gp_leaves(worse, kept.features, kept.response,
                                                  ids_kept, test.features[:0],
                                                  ids_test[:0], pred[:0])
                expect(any("below initial" in p for p in problems),
                       f"LML check did not fail: {problems}")
                failures["gp leaves/LML"] = problems[0]

            nudged = pred.copy()
            nudged[-1] = np.nextafter(nudged[-1], np.inf)
            must_fail("same bits", checks.check_same_bits("x", pred, nudged))
            model_path = os.path.join(out, "model.json")
            altered = os.path.join(work, "altered.json")
            with open(model_path, "rb") as src, open(altered, "wb") as dst:
                blob = bytearray(src.read())
                blob[-2] ^= 1
                dst.write(blob)
            must_fail("same bytes", checks.check_same_bytes("x", [model_path, altered]))

            scored = os.path.join(out, "scored.csv")
            with open(scored, encoding="utf-8") as fh:
                lines = fh.readlines()
            lines[1], lines[2] = lines[2], lines[1]
            swapped = os.path.join(work, "swapped.csv")
            with open(swapped, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            batch = treeseg.predict_batch(r.fresh, r.score.features)
            seg = checks.route(tree, r.score.features)
            expect(not checks.check_scored_csv(r.score_csv, scored, batch, seg), "scored csv")
            must_fail("scored csv/order", checks.check_scored_csv(r.score_csv, swapped, batch, seg))

            must_fail("accuracy/ols", checks.check_accuracy(2.0, 1.0, 0.5, 1000))
            must_fail("accuracy/noise floor", checks.check_accuracy(0.4, 1.0, 0.5, 1000))

            sweep = os.path.join(out, f"sweep_{wl.name}_tree.csv")
            with open(sweep, encoding="utf-8") as fh:
                lines = fh.readlines()
            cut = os.path.join(work, "sweep_cut.csv")
            with open(cut, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:-1])
            must_fail("sweep/grid", checks.check_sweep(cut, run.DEFAULT_SWEEP, train.n_rows))
            if not wl.outliers:
                at = next(i for i, line in enumerate(lines)
                          if line.startswith(f"{wl.leaf_size},"))
                cells = lines[at].split(",")
                cells[1] = repr(float(cells[1]) * (1 + 1e-6))
                lines[at] = ",".join(cells)
                with open(cut, "w", encoding="utf-8") as fh:
                    fh.writelines(lines)
                must_fail("sweep/train rmse", checks.check_sweep(
                    cut, run.DEFAULT_SWEEP, train.n_rows, tree, test.features, test.response))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    never = sorted(a for a in dir(checks) if a.startswith("check_") and a not in by_runs)
    expect(not never, f"checks never called by a run: {never}")
    for label, problem in failures.items():
        print(f"ok  check {label} fails: {problem[:90]}")


def main() -> int:
    if run.import_package() is None:
        print("error: run from a source checkout with src/treeseg", file=sys.stderr)
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_metrics(bench)
    check_checks()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

import ctypes
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from treeseg import _lapack, cart, leaf_models, pipeline
from treeseg.data import Dataset
from treeseg.leaf_models import (ConstantModel, GPModel, KernelParams, LeafFitError,
                                  LinearModel, fit_ols)
from treeseg.persistence import save_model
from treeseg.pipeline import (FitConfig, OutlierConfig, PipelineError,
                              SegmentedModel, default_gp_init, fit_segmented,
                              predict, predict_batch, predict_with_segments,
                              score_outliers)


def make_dataset(X, y, names=None):
    X = np.asarray(X, dtype=np.float64)
    names = names or tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(X, np.asarray(y, dtype=np.float64), tuple(names))


def piecewise_linear(rng, n=400, noise=0.1):
    """Two regimes split at x0 = 0 with different slopes and offsets.

    x0 keeps a margin of 0.1 around the boundary so a tree split can
    isolate the regions exactly.
    """
    x0 = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    X = np.column_stack([x0, rng.uniform(-2.0, 2.0, size=n)])
    y = np.where(X[:, 0] <= 0.0,
                 1.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1],
                 -8.0 - 1.0 * X[:, 0] + 0.5 * X[:, 1])
    return make_dataset(X, y + rng.normal(size=n) * noise)


class TestConfig:
    def test_defaults(self):
        config = FitConfig()
        assert config.leaf_method == "linear"
        assert not config.outlier.enabled

    def test_validation(self):
        with pytest.raises(PipelineError):
            FitConfig(leaf_size=0)
        with pytest.raises(PipelineError):
            FitConfig(leaf_method="spline")
        with pytest.raises(PipelineError):
            FitConfig(ridge_eps=-0.1)
        with pytest.raises(PipelineError):
            FitConfig(gp_max_iters=-1)
        with pytest.raises(PipelineError):
            FitConfig(gp_init={"bandwidth": 2.0})
        with pytest.raises(PipelineError):
            OutlierConfig(contamination=1.0)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_outlier_enabled_must_be_bool(self, value):
        with pytest.raises(PipelineError, match="enabled"):
            OutlierConfig(enabled=value)
        doc = FitConfig().to_doc()
        doc["outlier"]["enabled"] = value
        with pytest.raises(PipelineError, match="enabled"):
            FitConfig.from_doc(doc)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan"), "1.0", True,
                                       pytest.param(10 ** 400, id="integer-1e400")])
    def test_gp_init_values_must_be_positive_finite_reals(self, value):
        with pytest.raises(PipelineError, match="rbf_lengthscale"):
            FitConfig(leaf_method="gp", gp_init={"rbf_lengthscale": value})

    @pytest.mark.parametrize("key,value", [
        ("leaf_size", 20.7), ("leaf_size", True), ("seed", "7"), ("gp_max_iters", True),
        ("ridge_eps", float("inf")), ("ridge_eps", "0"), ("subsample", 64.5),
        ("n_trees", None), ("contamination", float("nan"))])
    def test_from_doc_number_rules(self, key, value):
        doc = FitConfig().to_doc()
        (doc["outlier"] if key in doc["outlier"] else doc)[key] = value
        with pytest.raises(ValueError, match=key):
            FitConfig.from_doc(doc)

    def test_from_doc_inverts_to_doc(self):
        config = FitConfig(leaf_size=7, leaf_method="gp", seed=3, ridge_eps=0.5, gp_max_iters=9,
                           gp_init={"noise_variance": 2}, outlier=OutlierConfig(enabled=True))
        assert FitConfig.from_doc(config.to_doc()) == config
        doc = FitConfig().to_doc()
        doc.update(leaf_size=70.0, gp_init={})
        assert FitConfig.from_doc(doc) == FitConfig(leaf_size=70)

    def test_gp_init_must_be_a_mapping(self):
        with pytest.raises(PipelineError, match="gp_init"):
            FitConfig(gp_init=5)

    def test_gp_init_defaults(self, rng):
        # The start comes from the leaf's least-squares fit: mean(w^2) of
        # its weights for the linear term, the residual variance for the RBF
        # term and half of it for the noise.
        Xs = rng.normal(size=(100, 4))
        y = Xs @ np.array([1.0, -2.0, 0.5, 0.0]) + np.sin(2.0 * Xs[:, 0]) \
            + rng.normal(0.0, 0.3, size=100)
        coef = np.linalg.lstsq(np.column_stack([np.ones(100), Xs]), y, rcond=None)[0]
        var_r = float(np.var(y - coef[0] - Xs @ coef[1:]))
        init = default_gp_init(Xs, y, None)
        assert init.linear_variance == pytest.approx(float(np.mean(coef[1:] ** 2)), rel=1e-9)
        assert init.rbf_variance == pytest.approx(var_r, rel=1e-9)
        assert init.rbf_lengthscale == pytest.approx(2.0)
        assert init.noise_variance == pytest.approx(0.5 * var_r, rel=1e-9)
        override = default_gp_init(Xs, y, {"rbf_lengthscale": 7.5, "noise_variance": 0.25})
        assert override == KernelParams(init.linear_variance, init.rbf_variance, 7.5, 0.25)

    def test_gp_init_floors_what_least_squares_explains_fully(self):
        # An exactly linear response leaves no residual, and an even one no
        # linear weight; each floored variance is 1e-6 var(y), so the start
        # stays positive.
        Xs = np.linspace(-1.0, 1.0, 21)[:, None]
        linear = 3.0 * Xs[:, 0] + 2.0
        init = default_gp_init(Xs, linear)
        floor = 1e-6 * float(np.var(linear))
        assert init.linear_variance == pytest.approx(9.0)
        assert (init.rbf_variance, init.noise_variance) == (floor, floor)
        even = Xs[:, 0] ** 2
        init = default_gp_init(Xs, even)
        assert init.linear_variance == 1e-6 * float(np.var(even))
        assert init.rbf_variance == pytest.approx(float(np.var(even)))


class TestFitConstant:
    def test_matches_tree_means_exactly(self, rng):
        data = make_dataset(rng.normal(size=(120, 2)), rng.normal(size=120))
        model = fit_segmented(data, FitConfig(leaf_size=20, leaf_method="constant"))
        pred = predict_batch(model, data)
        tree_pred = cart.predict_mean_batch(model.tree, data.features)
        assert np.array_equal(pred, tree_pred)
        assert all(isinstance(m, ConstantModel) for m in model.leaf_models.values())

    def test_all_segments_reported_fitted(self, rng):
        data = make_dataset(rng.normal(size=(50, 1)), rng.normal(size=50))
        model = fit_segmented(data, FitConfig(leaf_size=10, leaf_method="constant"))
        assert set(model.fit_report) == set(model.leaf_models)
        assert all(s.status == "fitted" for s in model.fit_report.values())


class TestFitLinear:
    def test_single_leaf_equals_global_ols(self, rng):
        X = rng.normal(size=(80, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 3.0 + rng.normal(size=80) * 0.1
        data = make_dataset(X, y)
        model = fit_segmented(data, FitConfig(leaf_size=80, leaf_method="linear"))
        assert len(model.leaf_models) == 1
        global_fit = fit_ols(X, y)
        pred = predict_batch(model, data)
        assert pred == pytest.approx(global_fit.predict(X), abs=1e-9)

    def test_piecewise_linear_recovered(self, rng):
        train = piecewise_linear(rng, n=500)
        test = piecewise_linear(rng, n=300)
        model = fit_segmented(train, FitConfig(leaf_size=100, leaf_method="linear"))
        pred = predict_batch(model, test)
        rmse = float(np.sqrt(np.mean((pred - test.response) ** 2)))
        assert rmse < 0.12

    def test_leaf_inputs_standardized(self, rng):
        data = piecewise_linear(rng, n=200)
        model = fit_segmented(data, FitConfig(leaf_size=50, leaf_method="linear"))
        assert all(model.scalers[sid] is not None for sid in model.leaf_models)


class TestFitGP:
    def test_gp_fits_and_predicts(self, rng):
        X = rng.uniform(-2, 2, size=(120, 1))
        y = np.sin(2.0 * X[:, 0]) + rng.normal(size=120) * 0.05
        data = make_dataset(X, y)
        model = fit_segmented(data, FitConfig(leaf_size=60, leaf_method="gp",
                                              gp_max_iters=40))
        assert any(isinstance(m, GPModel) for m in model.leaf_models.values())
        grid = np.linspace(-1.8, 1.8, 50)[:, None]
        pred = predict_batch(model, grid)
        rmse = float(np.sqrt(np.mean((pred - np.sin(2.0 * grid[:, 0])) ** 2)))
        assert rmse < 0.2

    def test_constant_response_falls_back(self, rng):
        # One plateau has zero response variance; the GP cannot be fit
        # there and the segment must degrade to its mean.
        X = np.concatenate([rng.uniform(-2, -1, size=40), rng.uniform(1, 2, size=40)])
        y = np.where(X < 0, 5.0, np.sin(X) + 0.01 * X)
        data = make_dataset(X[:, None], y)
        model = fit_segmented(data, FitConfig(leaf_size=30, leaf_method="gp",
                                              gp_max_iters=5))
        statuses = {s.status for s in model.fit_report.values()}
        assert "fallback" in statuses
        fallbacks = [sid for sid, s in model.fit_report.items() if s.status == "fallback"]
        for sid in fallbacks:
            assert isinstance(model.leaf_models[sid], ConstantModel)
            assert model.fit_report[sid].reason
        # Fallback segments still predict their mean.
        pred = predict_batch(model, np.array([[-1.5]]))
        assert pred[0] == pytest.approx(5.0)

    def test_start_that_overflows_stays_in_the_box(self):
        # The leaf's OLS weight is 2.7e161 on a column of ~1e-178 values, so
        # mean(w^2) overflows; the start is capped at 1e8 var(y) and the
        # leaf fits instead of raising.
        X = np.array([[-1.5, -1.5], [4.91615818e-178, -1.5], [0.0, 0.0], [0.0, 0.0],
                      [0.0, 0.0], [0.0, 0.0]])
        y = np.array([0.0, -1.5, 0.0, 0.0, 0.0, 0.0])
        config = FitConfig(leaf_size=2, leaf_method="gp", gp_max_iters=3, seed=0,
                           outlier=OutlierConfig(enabled=True, contamination=0.1,
                                                 n_trees=5, subsample=16))
        model = fit_segmented(make_dataset(X, y), config)
        assert np.isfinite(predict_batch(model, X)).all()
        Xs = np.array([[0.0, -1.0], [4.91615818e-178, -1.0], [0.0, 1.0], [0.0, 1.0]])
        ys = np.array([0.0, -1.5, 0.0, 0.0])
        assert default_gp_init(Xs, ys).linear_variance == 1e8 * float(np.var(ys))


class TestPredict:
    def test_single_equals_batch_bitwise(self, rng):
        train = piecewise_linear(rng, n=300)
        for method, iters in (("constant", 0), ("linear", 0), ("gp", 5)):
            model = fit_segmented(train, FitConfig(leaf_size=75, leaf_method=method,
                                                   gp_max_iters=iters))
            queries = rng.uniform(-2, 2, size=(50, 2))
            batch = predict_batch(model, queries)
            singles = np.array([predict(model, q) for q in queries])
            assert np.array_equal(batch, singles), method

    def test_batch_independent_of_composition(self, rng):
        train = piecewise_linear(rng, n=300)
        model = fit_segmented(train, FitConfig(leaf_size=60, leaf_method="linear"))
        queries = rng.uniform(-2, 2, size=(97, 2))
        whole = predict_batch(model, queries)
        shuffled = rng.permutation(97)
        assert np.array_equal(predict_batch(model, queries[shuffled]), whole[shuffled])

    def test_segments_come_with_predictions(self, rng):
        train = piecewise_linear(rng, n=300)
        model = fit_segmented(train, FitConfig(leaf_size=60, leaf_method="linear"))
        queries = rng.uniform(-2, 2, size=(97, 2))
        preds, ids = predict_with_segments(model, queries)
        assert np.array_equal(preds, predict_batch(model, queries))
        assert np.array_equal(ids, cart.assign_leaf_batch(model.tree, queries))

    def test_accepts_dataset_or_matrix(self, rng):
        train = piecewise_linear(rng, n=200)
        model = fit_segmented(train, FitConfig(leaf_size=50))
        a = predict_batch(model, train)
        b = predict_batch(model, train.features)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self, rng):
        train = piecewise_linear(rng, n=120)
        model = fit_segmented(train, FitConfig(leaf_size=40))
        with pytest.raises(PipelineError):
            predict_batch(model, np.zeros((3, 5)))
        with pytest.raises(PipelineError):
            predict(model, np.zeros(5))


class TestDeterminism:
    def test_refit_is_bit_identical(self, rng):
        train = piecewise_linear(rng, n=250)
        queries = rng.uniform(-2, 2, size=(60, 2))
        config = FitConfig(leaf_size=50, leaf_method="gp", gp_max_iters=10,
                           outlier=OutlierConfig(enabled=True, contamination=0.02,
                                                 n_trees=20, subsample=64))
        a = predict_batch(fit_segmented(train, config), queries)
        b = predict_batch(fit_segmented(train, config), queries)
        assert np.array_equal(a, b)


def recording(monkeypatch, name, calls, result=None):
    """Replace pipeline.<name> with a recorder of (rows, thread) per call.

    The recorder calls the real function, or raises `result` when it is an
    exception.
    """
    real = getattr(pipeline, name)

    def record(X, *args, **kwargs):
        calls.append((X.shape[0], threading.current_thread()))
        if isinstance(result, BaseException):
            raise result
        return real(X, *args, **kwargs)

    monkeypatch.setattr(pipeline, name, record)


def blas_threads() -> list[int]:
    """Each OpenBLAS library's thread count, as _lapack finds them."""
    return [get() for get, _ in _lapack.blas_controls]


def fake_controls(counts: dict) -> list:
    """(get, set) pairs, as _lapack.blas_controls holds, over the entries
    of `counts`."""
    return [[lambda name=name: counts[name], lambda n, name=name: counts.__setitem__(name, n)]
            for name in counts]


@pytest.fixture
def two_blas_threads():
    """Both OpenBLAS libraries at 2 threads for the test, then as they were;
    the counts set, which is empty without the controls."""
    saved = blas_threads()
    for _, set_ in _lapack.blas_controls:
        set_(2)
    yield blas_threads()
    for (_, set_), count in zip(_lapack.blas_controls, saved):
        set_(count)


class TestLeafPool:
    """GP leaves fit on a thread pool; the model does not depend on it."""

    config = FitConfig(leaf_size=40, leaf_method="gp", gp_max_iters=8)

    def test_pool_saves_the_serial_model_bytes(self, rng, monkeypatch, tmp_path):
        train = piecewise_linear(rng, n=240)
        saved = []
        before = threading.active_count()
        for workers in (3, 1):
            calls = []
            recording(monkeypatch, "fit_gp", calls)
            monkeypatch.setattr(_lapack, "workers", lambda: workers)
            model = fit_segmented(train, self.config)
            assert threading.active_count() == before  # no pool thread outlives the fit
            assert all(isinstance(m, GPModel) for m in model.leaf_models.values())
            assert len(calls) == len(model.leaf_models) >= 3
            assert all(t is not threading.current_thread() for _, t in calls)
            path = tmp_path / f"model-{workers}.json"
            save_model(model, str(path))
            saved.append(path.read_bytes())
            monkeypatch.undo()
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_an_error_in_a_leaf_leaves_the_fit_as_it_was(self, rng, monkeypatch, workers,
                                                         two_blas_threads):
        # Anything but a LeafFitError is a fault, not a fallback: it reaches
        # the caller as it is, from a pool of one thread or of three, and
        # no pool thread outlives the fit. Both OpenBLAS libraries run the
        # leaves on one thread and are back at their earlier counts after it.
        train = piecewise_linear(rng, n=240)
        during = []

        def fail(*args, **kwargs):
            during.append(blas_threads())
            raise MemoryError("a leaf ran out")

        monkeypatch.setattr(pipeline, "fit_gp", fail)
        monkeypatch.setattr(_lapack, "workers", lambda: workers)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="^a leaf ran out$"):
            fit_segmented(train, self.config)
        assert threading.active_count() == before
        assert during and all(d == [1] * len(two_blas_threads) for d in during)
        assert blas_threads() == two_blas_threads

    def test_every_gp_leaf_fits_on_the_pool(self, rng, monkeypatch):
        # Whatever its row count: leaves over leaf_models._STORE_MAX_ROWS
        # rebuild their matrices and hold about 2 m^2 doubles, not 4 m^2.
        monkeypatch.setattr(_lapack, "workers", lambda: 3)
        here = threading.current_thread()
        calls = []
        recording(monkeypatch, "fit_gp", calls, LeafFitError("stub"))
        fit_segmented(piecewise_linear(rng, n=2600),
                      FitConfig(leaf_size=leaf_models._STORE_MAX_ROWS + 1, leaf_method="gp"))
        assert len(calls) >= 2
        assert all(rows > leaf_models._STORE_MAX_ROWS for rows, _ in calls)
        fit_segmented(piecewise_linear(rng, n=240), self.config)
        assert len(calls) >= 5 and all(t is not here for _, t in calls)

    @pytest.mark.parametrize("method, name", [("linear", "fit_ols"),
                                              ("constant", "fit_constant")])
    def test_linear_and_constant_leaves_fit_on_the_calling_thread(self, rng, monkeypatch,
                                                                 method, name):
        monkeypatch.setattr(_lapack, "workers", lambda: 3)
        calls = []
        recording(monkeypatch, name, calls)
        fit_segmented(piecewise_linear(rng, n=240), FitConfig(leaf_size=40, leaf_method=method))
        here = threading.current_thread()
        assert len(calls) >= 3 and all(t is here for _, t in calls)

    def test_rebuilt_leaves_save_the_stored_model_bytes(self, rng, monkeypatch, tmp_path):
        # With the store limit at 60 rows, leaves on both sides of it fit on
        # pools of 3 and of 1 threads, and save what a fit that keeps every
        # leaf's matrices saves.
        train = piecewise_linear(rng, n=400)
        saved = []
        for store_max_rows, workers in ((60, 3), (60, 1), (10 ** 6, 1)):
            calls = []
            recording(monkeypatch, "fit_gp", calls)
            monkeypatch.setattr(leaf_models, "_STORE_MAX_ROWS", store_max_rows)
            monkeypatch.setattr(_lapack, "workers", lambda: workers)
            model = fit_segmented(train, self.config)
            assert all(isinstance(m, GPModel) for m in model.leaf_models.values())
            assert {rows > 60 for rows, _ in calls} == {True, False}
            path = tmp_path / f"model-{len(saved)}.json"
            save_model(model, str(path))
            saved.append(path.read_bytes())
            monkeypatch.undo()
        assert saved[0] == saved[1] == saved[2]

    def test_blas_threads_change_no_fitted_bit(self, tmp_path):
        # GP leaves of about 200 rows: at OPENBLAS_NUM_THREADS=2, unpinned
        # LAPACK and gemm calls split over two threads and change the bits.
        # Linear leaves of at least 5000 rows are fit unpinned, and must save
        # the same bytes at either count too.
        if not _lapack.blas_controls:
            pytest.skip("an OpenBLAS thread control is missing")
        code = textwrap.dedent("""\
            import sys
            import numpy as np
            from treeseg import _lapack
            from treeseg.data import Dataset
            from treeseg.persistence import save_model
            from treeseg.pipeline import FitConfig, fit_segmented
            rng = np.random.default_rng(7)
            X = rng.uniform(-2, 2, size=(600, 3))
            y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=600)
            threads = [get() for get, _ in _lapack.blas_controls]
            model = fit_segmented(Dataset(X, y, ("a", "b", "c")),
                                  FitConfig(leaf_size=200, leaf_method="gp", gp_max_iters=5))
            assert [get() for get, _ in _lapack.blas_controls] == threads
            save_model(model, sys.argv[1])
            X = rng.lognormal(size=(12000, 8)) * rng.uniform(0.5, 100.0, size=8)
            y = X @ rng.normal(size=8) + np.sin(X[:, 0]) + rng.normal(size=12000)
            model = fit_segmented(Dataset(X, y, tuple("abcdefgh")),
                                  FitConfig(leaf_size=5000, leaf_method="linear"))
            assert len(model.leaf_models) == 2
            save_model(model, sys.argv[2])
        """)
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        saved = []
        for threads in ("1", "2"):
            paths = [tmp_path / f"{method}-{threads}.json" for method in ("gp", "linear")]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=env, check=True,
                           timeout=300)
            saved.append([path.read_bytes() for path in paths])
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("hidden, pooled", [
        (None, True),
        ("scipy_openblas_set_num_threads", False),
        ("scipy_openblas_get_num_threads64_", False),
    ], ids=["both", "no-scipy-setter", "no-numpy-getter"])
    def test_workers_need_both_thread_controls(self, monkeypatch, hidden, pooled):
        # The pool has more than one thread only where both OpenBLAS copies
        # can be held at one thread; another BLAS gets a one-thread pool.
        if pooled and not _lapack.blas_controls:
            pytest.skip("an OpenBLAS thread control is missing")
        CDLL = ctypes.CDLL

        class Hiding:
            def __init__(self, path):
                self.lib = CDLL(path)

            def __getattr__(self, name):
                if name == hidden:
                    raise AttributeError(name)
                return getattr(self.lib, name)

        monkeypatch.setattr(ctypes, "CDLL", Hiding)
        monkeypatch.setattr(_lapack, "blas_controls", _lapack.thread_controls())
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert _lapack.workers() == (cpus if pooled else 1)

    def test_concurrent_stages_run_one_after_another(self, rng, monkeypatch, tmp_path,
                                                     two_blas_threads):
        # The thread counts are global to the process, so a GP leaf stage
        # started while another runs waits for it to end: each pins from the
        # counts it found and restores them, and neither restores under the
        # other. The second fit is started once the first is in its stage,
        # and the first stays there until the second has reached it.
        train = piecewise_linear(rng, n=240)
        serial = tmp_path / "serial.json"
        save_model(fit_segmented(train, self.config), str(serial))

        pins = []  # what the first control is set to, in order

        def logged(get, set_):
            return [get, lambda n: (pins.append(n), set_(n))]

        counts = {"lp64": 3, "ilp64": 2}
        controls = _lapack.blas_controls or fake_controls(counts)
        before = [get() for get, _ in controls]
        monkeypatch.setattr(_lapack, "blas_controls", [logged(*controls[0]), *controls[1:]])
        in_stage, second_called = threading.Event(), threading.Event()
        real_workers, real_stage = _lapack.workers, _lapack.fit_pinned

        def first_waits():
            if not in_stage.is_set():
                in_stage.set()
                second_called.wait(timeout=60)
                time.sleep(0.05)
            return real_workers()

        def stage(fit, segments):
            if in_stage.is_set():
                second_called.set()
            return real_stage(fit, segments)

        monkeypatch.setattr(_lapack, "workers", first_waits)
        monkeypatch.setattr(_lapack, "fit_pinned", stage)
        saved, errors = {}, []

        def fit(name):
            try:
                path = tmp_path / f"{name}.json"
                save_model(fit_segmented(train, self.config), str(path))
                saved[name] = path.read_bytes()
            except Exception as err:  # reported by the assertions below
                errors.append(err)

        threads = [threading.Thread(target=fit, args=(name,)) for name in ("first", "second")]
        threads[0].start()
        assert in_stage.wait(timeout=60)
        threads[1].start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and not errors
        assert second_called.is_set()
        assert pins == [1, before[0]] * 2
        assert [get() for get, _ in controls] == before
        assert saved["first"] == saved["second"] == serial.read_bytes()
        monkeypatch.undo()
        assert blas_threads() == two_blas_threads

        # Many threads running stages at once, switching often: one that
        # ever finds a count other than 1 inside its stage has seen another
        # stage's restore under it.
        counts.update(lp64=3, ilp64=2)
        monkeypatch.setattr(_lapack, "blas_controls", fake_controls(counts))
        wrong = []

        def check(_):
            if counts != {"lp64": 1, "ilp64": 1}:
                wrong.append(dict(counts))

        def churn():
            for _ in range(100):
                _lapack.fit_pinned(check, range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == [] and counts == {"lp64": 3, "ilp64": 2}


class TestOutlierIntegration:
    def test_outliers_removed_before_segmentation(self, rng):
        X = rng.normal(size=(200, 2))
        y = X[:, 0] + rng.normal(size=200) * 0.05
        X[7] = (20.0, 20.0)
        y[7] = 500.0
        data = make_dataset(X, y)
        clean_config = FitConfig(leaf_size=50, leaf_method="linear")
        filtered_config = FitConfig(
            leaf_size=50, leaf_method="linear",
            outlier=OutlierConfig(enabled=True, contamination=0.02,
                                  n_trees=100, subsample=128))
        polluted = fit_segmented(data, clean_config)
        filtered = fit_segmented(data, filtered_config)
        assert polluted.n_removed_outliers == 0
        assert filtered.n_removed_outliers == 4  # floor(0.02*200 + 0.5)
        assert filtered.n_train_rows == 196
        # Filtering the wild point should sharpen in-distribution accuracy.
        probe = rng.normal(size=(100, 2))
        truth = probe[:, 0]
        rmse_raw = float(np.sqrt(np.mean((predict_batch(polluted, probe) - truth) ** 2)))
        rmse_filtered = float(np.sqrt(np.mean((predict_batch(filtered, probe) - truth) ** 2)))
        assert rmse_filtered < rmse_raw

    def test_disabled_filter_ignores_contamination(self, rng):
        data = piecewise_linear(rng, n=100)
        config = FitConfig(leaf_size=30,
                           outlier=OutlierConfig(enabled=False, contamination=0.3))
        model = fit_segmented(data, config)
        assert model.n_removed_outliers == 0
        assert model.n_train_rows == 100

    def test_small_dataset_subsample_clamped(self, rng):
        data = piecewise_linear(rng, n=40)
        config = FitConfig(leaf_size=10,
                           outlier=OutlierConfig(enabled=True, contamination=0.05,
                                                 n_trees=10, subsample=256))
        model = fit_segmented(data, config)  # must not raise
        assert model.n_removed_outliers == 2

    def test_score_outliers_flags_the_rows_the_fit_leaves_out(self, rng):
        data = piecewise_linear(rng, n=300)
        config = FitConfig(leaf_size=30, seed=4,
                           outlier=OutlierConfig(enabled=True, contamination=0.07,
                                                 n_trees=20, subsample=64))
        scores, removed = score_outliers(data, config)
        model = fit_segmented(data, config)
        assert scores.shape == (300,)
        assert removed.size == model.n_removed_outliers == 21
        assert np.array_equal(removed, np.setdiff1d(np.arange(300), model.kept_rows))

    def test_filtering_below_leaf_size_raises(self, rng):
        data = piecewise_linear(rng, n=50)
        config = FitConfig(leaf_size=50,
                           outlier=OutlierConfig(enabled=True, contamination=0.1,
                                                 n_trees=10, subsample=32))
        with pytest.raises(PipelineError, match="fewer rows"):
            fit_segmented(data, config)


class TestErrors:
    def test_leaf_size_exceeds_rows(self, rng):
        data = piecewise_linear(rng, n=30)
        with pytest.raises(PipelineError, match="exceeds"):
            fit_segmented(data, FitConfig(leaf_size=31))

    def test_leaf_size_exceeds_rows_before_the_forest_is_fit(self, rng, monkeypatch):
        data = piecewise_linear(rng, n=30)
        config = FitConfig(leaf_size=31, outlier=OutlierConfig(enabled=True, n_trees=10,
                                                               subsample=16))

        def refused(*args, **kwargs):
            raise AssertionError("no forest is fit past a failed leaf-size check")

        monkeypatch.setattr(pipeline, "fit_forest", refused)
        with pytest.raises(PipelineError, match="exceeds the 30 training rows"):
            fit_segmented(data, config)

    def test_model_exposes_feature_names(self, rng):
        data = piecewise_linear(rng, n=60)
        model = fit_segmented(data, FitConfig(leaf_size=20))
        assert model.n_features == 2
        assert model.feature_names == ("f0", "f1")

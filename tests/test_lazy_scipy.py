"""scipy is loaded only where a GP leaf is fit or its covariance factorized.

The test process has loaded scipy already, so the checks run in a fresh
interpreter.
"""
import os
import subprocess
import sys
import textwrap

import numpy as np

from treeseg import pipeline
from treeseg.data import Dataset
from treeseg.persistence import save_model
from treeseg.pipeline import FitConfig, fit_segmented

GP_CONFIG = FitConfig(leaf_size=100, leaf_method="gp", gp_max_iters=5)

FRESH = textwrap.dedent("""\
    import ctypes
    import sys
    import numpy as np
    import treeseg, treeseg.cli
    from treeseg import cli, pipeline
    from treeseg.data import Dataset
    from treeseg.persistence import load_model, save_model
    from treeseg.pipeline import FitConfig, fit_segmented, predict_batch

    work = sys.argv[1]
    X, y = np.load(f"{work}/X.npy"), np.load(f"{work}/y.npy")
    data = Dataset(X, y, ("a", "b"))
    gp = FitConfig(leaf_size=100, leaf_method="gp", gp_max_iters=5)
    np.savetxt(f"{work}/score.csv", X, delimiter=",", header="a,b", comments="")

    # Work that fits no GP leaf, and a GP model the certificate vouches for.
    for method in ("linear", "constant", "gp"):
        path = f"{work}/{method}.json"
        if method != "gp":
            model = fit_segmented(data, FitConfig(leaf_size=50, leaf_method=method))
            save_model(model, path)
        loaded = load_model(path)
        if method != "gp":
            assert np.array_equal(predict_batch(loaded, X), predict_batch(model, X))
        assert np.all(np.isfinite(predict_batch(loaded, X)))
        assert cli.main(["predict", "--model", path, "--input", f"{work}/score.csv",
                         "--output", f"{work}/{method}-scores.csv"]) == 0
        assert cli.main(["profile", "--model", path, "--all"]) == 0
    loaded_scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded_scipy, loaded_scipy[:5]

    # A build whose dpotrf takes 64-bit integers is refused before any leaf
    # is fit, so before any LAPACK call, and on every attempt.
    from scipy.linalg import cython_lapack
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    new_capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                    ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
    exports = cython_lapack.__pyx_capi__
    real = exports["dpotrf"]
    ilp64 = capsule_name(real).replace(b"int *", b"long *")  # kept alive with the capsule
    exports["dpotrf"] = new_capsule(capsule_pointer(real, capsule_name(real)), ilp64, None)
    leaves = []
    fit_leaf = pipeline._fit_leaf
    pipeline._fit_leaf = lambda *args: leaves.append(args) or fit_leaf(*args)
    for _ in range(2):
        try:
            fit_segmented(data, gp)
        except ImportError as exc:
            assert "dpotrf" in str(exc) and "long *" in str(exc), exc
        else:
            raise AssertionError("an ILP64 dpotrf was not refused")
    assert not leaves and "treeseg._lapack" not in sys.modules

    # The LP64 export back in place, a GP fit loads scipy and fits as usual.
    exports["dpotrf"] = real
    model = fit_segmented(data, gp)
    assert leaves and "scipy.optimize" in sys.modules and "treeseg._lapack" in sys.modules
    save_model(model, f"{work}/gp-refit.json")
""")


def test_only_gp_fits_load_scipy(rng, tmp_path):
    X = rng.uniform(-2, 2, size=(300, 2))
    y = np.sin(2 * X[:, 0]) + X[:, 1] + 0.1 * rng.normal(size=300)
    np.save(tmp_path / "X.npy", X)
    np.save(tmp_path / "y.npy", y)
    save_model(fit_segmented(Dataset(X, y, ("a", "b")), GP_CONFIG), str(tmp_path / "gp.json"))
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", FRESH, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "gp-refit.json").read_bytes() == (tmp_path / "gp.json").read_bytes()

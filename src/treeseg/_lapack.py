"""LAPACK with the GIL released, and OpenBLAS held at one thread.

The only module of treeseg that loads scipy's native libraries. It is
imported inside the functions that fit a GP leaf or factorize its
covariance (leaf_models, pipeline), not at the top of a module, so a process
that fits no GP leaf, and loads none that the certificate cannot vouch for,
never loads scipy, which is most of a cold start (README "Cold start").

potrf, potrs and potri are scipy's own routines, reached through the C
function pointers that scipy.linalg.cython_lapack exports and called with
ctypes, which releases the GIL for the call. scipy's f2py wrappers hold the
GIL instead: two threads each running potrf + potri at m = 400 took 1.09x
less time than one thread running both shares through them, and 1.65x less
through the function pointers. Each wrapper passes what the f2py wrapper of
its routine passes and gives its bits in the triangle the routine works in;
unlike f2py's potrf it does not zero the other one, on which no result
depends. Importing this module refuses, with ImportError, a build whose
exported signatures differ from the LP64 ones the ctypes prototypes assume,
so a wrong build fails on the first GP fit, before any LAPACK call.

ctypes also reaches the thread counts of scipy's and numpy's OpenBLAS, and
fit_pinned runs the GP leaf stage under one rule: one stage at a time per
process, on a pool of one or more threads (workers), with both OpenBLAS
copies held at one thread for the stage and their counts restored after it.
So no fitted bit depends on the pool or on OPENBLAS_NUM_THREADS. Without
both thread controls (another BLAS) nothing is pinned and the pool has one
thread.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

_LAPACK_D = "__pyx_t_5scipy_6linalg_13cython_lapack_d *"
# The LP64 signatures scipy exports (scipy 1.17); the prototypes follow them.
SIGNATURES = {
    "dpotrf": f"void (char *, int *, {_LAPACK_D}, int *, int *)",
    "dpotrs": f"void (char *, int *, int *, {_LAPACK_D}, int *, {_LAPACK_D}, int *, int *)",
    "dpotri": f"void (char *, int *, {_LAPACK_D}, int *, int *)",
}
_CTYPES = {"char *": ctypes.c_char_p, "int *": ctypes.POINTER(ctypes.c_int),
           _LAPACK_D: ctypes.c_void_p}
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def foreign(name: str):
    """LAPACK routine `name` of scipy.linalg.cython_lapack as a ctypes function.

    Raises ImportError when the module exports another signature than
    SIGNATURES names (an ILP64 build, say), rather than ever calling it with
    integers of the wrong size.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    found = _capsule_name(capsule)
    expected = SIGNATURES[name]
    if found.decode() != expected:
        raise ImportError(f"{cython_lapack.__name__}.{name} has signature {found.decode()!r}, "
                          f"expected {expected!r}")
    argtypes = [_CTYPES[arg] for arg in expected[len("void ("):-1].split(", ")]
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, found))


_dpotrf = foreign("dpotrf")
_dpotrs = foreign("dpotrs")
_dpotri = foreign("dpotri")


def _int(v: int):
    return ctypes.byref(ctypes.c_int(v))


def _address(a: np.ndarray, shape: tuple[int, ...], writes: bool = False) -> int:
    """Address of `a`, which must be a Fortran-contiguous float64 array of
    `shape`, and writeable when the routine writes it."""
    if (a.dtype != np.float64 or a.shape != shape or not a.flags.f_contiguous
            or (writes and not a.flags.writeable)):
        raise ValueError(f"expected a {'writeable ' if writes else ''}Fortran-contiguous "
                         f"float64 array of shape {shape}")
    return a.ctypes.data


def potrf(a: np.ndarray) -> int:
    """Upper Cholesky factor of square `a`, in place; LAPACK's info. As
    f2py's dpotrf(a, overwrite_a=1) in the upper triangle, but without its
    clean step: the strictly lower triangle keeps what it held."""
    m = a.shape[0]
    info = ctypes.c_int(0)
    _dpotrf(b"U", _int(m), _address(a, (m, m), writes=True), _int(m), ctypes.byref(info))
    return info.value


def potrs(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution of A x = b from the upper factor c of A. As f2py's
    dpotrs(c, b) for a vector b. LAPACK's info is not returned: it reports
    only an illegal argument, and _address fixes every shape."""
    m = c.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    _dpotrs(b"U", _int(m), _int(1), _address(c, (m, m)), _int(m),
            _address(x, (m,), writes=True), _int(m), _int(0))
    return x


def potri(c: np.ndarray) -> int:
    """A^-1 in place over the upper factor c of A, in the upper triangle;
    LAPACK's info. As f2py's dpotri(c, overwrite_c=1)."""
    m = c.shape[0]
    info = ctypes.c_int(0)
    _dpotri(b"U", _int(m), _address(c, (m, m), writes=True), _int(m), ctypes.byref(info))
    return info.value


def thread_controls() -> list:
    """(get, set) thread counts of scipy's LP64 OpenBLAS (the LAPACK above) and
    numpy's ILP64 one (gemm, matvec); empty unless both export both."""
    found = [getattr(ctypes.CDLL(path), f"scipy_openblas_{verb}_num_threads{suffix}", None)
             for path, suffix in ((cython_blas.__file__, ""),
                                  (np._core._multiarray_umath.__file__, "64_"))
             for verb in ("get", "set")]
    if None in found:
        return []
    controls = [found[:2], found[2:]]
    for get, set_ in controls:
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
    return controls


blas_controls = thread_controls()
_stage = threading.Lock()


def workers() -> int:
    """Threads that fit GP leaves: one per CPU this process may run on when
    both OpenBLAS thread controls were found, so each BLAS call can run on
    one thread under the pool; otherwise 1."""
    if not blas_controls:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fit_pinned(fit, segments) -> list:
    """[fit(s) for s in segments], as one GP leaf stage (module docstring):
    on a pool of up to workers() threads, with both OpenBLAS copies at one
    thread until the stage ends, raising or not. The counts are global to
    the process, so a stage started while another runs waits for it."""
    with _stage:
        saved = [get() for get, _ in blas_controls]
        try:
            for _, set_ in blas_controls:
                set_(1)
            with ThreadPoolExecutor(max(1, min(workers(), len(segments))),
                                    thread_name_prefix="treeseg-leaf") as pool:
                return list(pool.map(fit, segments))
        finally:
            for (_, set_), count in zip(blas_controls, saved):
                set_(count)

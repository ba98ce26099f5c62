"""Per-segment regressors: constant mean, least squares, and an exact GP.

The Gaussian process uses a composite kernel — a linear term plus an RBF
term — with hyperparameters learned by maximizing the log marginal
likelihood in log-space. Leaves are small enough that the exact O(m^3)
solve is affordable, which is the entire point of segmenting first.

Fitting follows GPML (Rasmussen & Williams 2006, Alg. 5.1). Each
likelihood evaluation (_lml_terms) works in the buffers a leaf's
_TrainingParts holds for the whole fit: the lower blocks of the RBF term,
and one m x m buffer holding K, which LAPACK potrf factors in place;
potrs solves for alpha on that factor and potri turns it into K^-1 in the
same memory. Only lower triangles are built or read, one block of rows at
a time while the block is in cache: one pass builds the Gram (a BLAS gemm
of the block's rows against a contiguous X^T, since numpy's X @ X.T goes
through syrk and a strided mirror copy), the squared distances, the RBF
term and K; a second forms each block's gradient weights from
alpha alpha^T - K^-1 in scratch and reads the gradient's three sums.
A leaf of at most _STORE_MAX_ROWS rows keeps its Gram and squared-distance
blocks for the whole fit; a larger leaf builds them again on each pass,
with the same bits. At m = 1700 the work outside LAPACK took 30-33 ms of a
rebuilt evaluation, against 89-107 ms when whole m x m matrices were
rebuilt and re-read (d = 4, one BLAS thread, 2-vCPU VM).

The model's value and alpha at the start and the optimized parameters come
from the evaluations L-BFGS already made; the start is exp(log(init)),
within an ulp of init, and only a start point that was clipped into the
bounds is replaced by init and evaluated again.

Those LAPACK routines (potrf, potrs, potri) are scipy's own, called with
the GIL released through the adapter in _lapack, and the optimizer is
scipy's L-BFGS-B. Both are imported inside the functions that use them, so
constant and linear leaves, prediction and a certified load never load
scipy. The adapter refuses, on the first GP fit or factorization, a build
whose exported signatures differ from the LP64 ones its ctypes prototypes
assume.

A fitted model keeps alpha, not the Cholesky factor. Prediction avoids BLAS
matrix products on purpose: every step is elementwise or a reduction along
one row, so predicting one record and predicting a batch give
bitwise-identical numbers regardless of batch size or blocking. The linear
term of the posterior mean folds into one d-vector, linear_variance X^T
alpha, so a query pays O(d) for it. The RBF cross-kernel is built on inputs
scaled by 1/lengthscale, one feature at a time, in place, in blocks of
max(1, _BLOCK_ENTRIES // m) query rows that stay in cache with their one
scratch buffer, so a query costs O(m d) with no n x m x d temporary. Each entry
gets the same operations in the same order whatever the block, and each
row is summed on its own, so no block size changes a bit, and neither does
the thread a block runs on: a batch of many blocks is split over a
persistent pool (gp_predict_mean_batch), which needs no BLAS pin because
the mean makes no BLAS call. Both per-model constants are derived from
(params, training inputs, alpha) on the first prediction and cached, so a
fitted and a loaded model predict the same bits. Loading does not build
the factor either: check_covariance certifies
in O(m d), from a bound on the rounding in how K is formed, that the
factorization would succeed, and factorizes only when the bound cannot tell.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import threading
from dataclasses import dataclass, fields

import numpy as np


class LeafFitError(RuntimeError):
    """A leaf regressor could not be fit (ill-conditioned or too small)."""


# ---------------------------------------------------------------------------
# Constant and linear models


@dataclass(frozen=True)
class ConstantModel:
    """Predicts the mean of the fitting responses, everywhere."""

    mean: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.full(X.shape[0], self.mean, dtype=np.float64)


def fit_constant(y: np.ndarray) -> ConstantModel:
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ValueError("cannot fit a constant model to an empty response")
    return ConstantModel(mean=float(y.mean()))


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float
    ridge_eps: float
    used_fallback: bool = False

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X * self.weights).sum(axis=1) + self.intercept


def _design(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float64 arrays; raises ValueError unless X is 2-D and y
    1-D with matching row counts."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2-D and y 1-D with matching row counts")
    return X, y


_FALLBACK_RIDGE = 1e-8


def fit_ols(X: np.ndarray, y: np.ndarray, ridge_eps: float = 0.0) -> LinearModel:
    """Least squares with optional ridge penalty on the weights.

    Solves the normal equations on the centered design, leaving the
    intercept unpenalized. A rank-deficient design with ridge_eps=0 falls
    back to a small default ridge (recorded on the returned model) instead
    of failing.
    """
    X, y = _design(X, y)
    if X.shape[0] < 1:
        raise ValueError("cannot fit to an empty design")
    if ridge_eps < 0:
        raise ValueError("ridge_eps must be >= 0")

    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc
    rhs = Xc.T @ yc
    scale = 1.0 + float(np.abs(y).max()) if y.size else 1.0

    def solve(eps: float) -> np.ndarray | None:
        try:
            w = np.linalg.solve(gram + eps * np.eye(X.shape[1]), rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(w)):
            return None
        grad = rhs - gram @ w - eps * w
        if float(np.abs(grad).max(initial=0.0)) > 1e-6 * scale:
            return None
        return w

    weights = solve(ridge_eps)
    used_fallback = False
    if weights is None:
        eps = max(ridge_eps, _FALLBACK_RIDGE)
        weights = solve(eps)
        if weights is None:
            # Scale the ridge up until the system is solvable.
            while weights is None and eps < 1.0:
                eps *= 10.0
                weights = solve(eps)
            if weights is None:
                raise LeafFitError("linear fit failed even with ridge regularization")
        ridge_eps = eps
        used_fallback = True
    intercept = float(y_mean - x_mean @ weights)
    weights = weights.copy()
    weights.setflags(write=False)
    return LinearModel(weights=weights, intercept=intercept,
                       ridge_eps=float(ridge_eps), used_fallback=used_fallback)


# ---------------------------------------------------------------------------
# Gaussian process with composite linear + RBF kernel


@dataclass(frozen=True)
class KernelParams:
    """k(x, x') = linear_variance*(x.x') + rbf_variance*exp(-|x-x'|^2 / (2 l^2))."""

    linear_variance: float
    rbf_variance: float
    rbf_lengthscale: float
    noise_variance: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{f.name} must be a positive finite real, got {v!r}")

    def to_log(self) -> np.ndarray:
        """Log of the parameters, in field order."""
        return np.log([getattr(self, f.name) for f in fields(self)])

    @staticmethod
    def from_log(z: np.ndarray) -> "KernelParams":
        return KernelParams(*np.exp(np.asarray(z, dtype=np.float64)).tolist())


# Kernel entries per block of the posterior mean: 32768 doubles (256 KB),
# so a block and its scratch buffer stay in a typical L2 cache.
_BLOCK_ENTRIES = 32768


def _scaled_columns(X: np.ndarray, params: KernelParams) -> np.ndarray:
    """X / lengthscale, transposed to one contiguous row per feature."""
    return np.ascontiguousarray((X / params.rbf_lengthscale).T)


def _unit_rbf_into(K: np.ndarray, scratch: np.ndarray, queries: np.ndarray,
                   columns: np.ndarray) -> np.ndarray:
    """exp(-|a - b|^2 / 2) in place in K, for scaled query columns (d x
    rows of K) against scaled columns (d x columns of K); returns K.

    Squared differences accumulate one feature at a time on 2-D arrays in
    place, the first straight into K (0 + t == t for t >= 0), so each entry
    is the same sum in the same order whatever other rows K holds.
    """
    if not columns.shape[0]:
        K.fill(0.0)  # no features: every distance is 0
    for k in range(columns.shape[0]):
        term = scratch if k else K
        np.subtract.outer(queries[k], columns[k], out=term)
        term *= term
        if k:
            K += term
    K *= -0.5
    np.exp(K, out=K)
    return K


def _rbf(sqdist: np.ndarray, params: KernelParams, out: np.ndarray) -> np.ndarray:
    """rbf_variance exp(-sqdist / (2 l^2)), in `out` (which may be sqdist)."""
    ell2 = params.rbf_lengthscale * params.rbf_lengthscale
    K_rbf = np.multiply(sqdist, -0.5 / ell2, out=out)
    np.exp(K_rbf, out=K_rbf)
    K_rbf *= params.rbf_variance
    return K_rbf


def kernel_matrix(params: KernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel cross-matrix: entry (i, j) = k(A_i, B_j)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("A and B must be 2-D with the same number of columns")
    K = np.empty((A.shape[0], B.shape[0]))
    _unit_rbf_into(K, np.empty_like(K), _scaled_columns(A, params), _scaled_columns(B, params))
    K *= params.rbf_variance
    K += params.linear_variance * (A @ B.T)
    return K


def _mapped(n: int) -> np.ndarray:
    """n float64 values in an anonymous memory map of their own.

    The map goes back to the system as soon as no array over it is left, so
    a leaf's working memory is returned when the leaf is done whatever its
    size. From malloc, a block under glibc's 32 MB cap on its mmap threshold
    may stay in a thread's arena: with L and R so allocated, perfbench's
    ccpp-gp run (four leaves of 1570-1740 rows on two threads, fit over and
    over) rose from 167 MB of peak RSS after one round to 232 MB after
    five. Large numpy arrays are advised to use huge pages, and so is this.

    The map is private, as malloc's are. mmap.mmap's default, a shared map,
    is backed by shmem, which Linux gives huge pages only when
    shmem_enabled allows it (by default it does not): faulted in one 4 KB
    page at a time, three rebuilt leaves of 1700 rows took 25.5k page
    faults and about 100 ms of system time, against 969 and 20 ms private.
    """
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    block = mmap.mmap(-1, 8 * n, **private)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        block.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(block, dtype=np.float64)


# A GP leaf of at most this many rows keeps its Gram and squared distances
# for the whole fit; a larger leaf keeps only X and rebuilds both, one block
# of rows at a time, on each evaluation (_TrainingParts). README "Notes on
# performance" states the memory each works in. Alone, a rebuilt evaluation
# spends more time outside LAPACK than a stored one: 30-33 against 24-27 ms
# at m = 1700 and 0.54-0.59 against 0.31-0.50 ms at m = 200 (medians of
# three interleaved processes, d = 4, one BLAS thread, 2-vCPU VM), which is
# why small leaves keep their matrices.
_STORE_MAX_ROWS = 1024


class _TrainingParts:
    """What every likelihood evaluation of a GP leaf with training inputs X
    reads and writes, walked one block of rows at a time.

    Only the lower triangle of each m x m matrix is built or read: potrf
    factors K from it, and the gradient reads each symmetric dK from it
    (_lml_terms). So block b, of rows `rows` = [s, e), covers columns
    [0, e): its rows of the lower triangle and the square on the diagonal.
    Blocks have max(1, _BLOCK_ENTRIES // m) rows (all m when that is
    fewer), so that what an evaluation does to one block stays in cache.
    Each evaluation makes two passes over the blocks. The first builds the
    Gram, the squared distances, K_rbf and K (covariance); the second forms
    the gradient weights and reads the gradient's three products off the
    same blocks (products). One m x m buffer, L, takes K, its factor and
    K^-1, in its lower triangle; no result depends on what lies above it.
    K_rbf is kept block by block, packed, in R. Both are held for the whole
    fit, in one memory map (_mapped).

    A stored leaf (`store`) also keeps its Gram and squared-distance blocks
    for the whole fit, read-only; a rebuilt one builds each block again, in
    scratch, on each pass. Both build a block by the same operations and
    sum over the same blocks, so every result has the same bits either way.

    Each block of the Gram is one BLAS gemm of the block's rows of X against
    the first e columns of a contiguous X^T: numpy sends X @ X.T to syrk and
    then mirrors the triangle with a strided copy, 13.5 ms at m = 1700 and
    d = 4 (one BLAS thread), against 1.4 ms for row blocks of the whole
    Gram. The norms |x|^2 are the Gram's own diagonal, taken once from the
    same gemm calls, so the squared distances (|a|^2 + |b|^2) + (-2 a.b),
    clamped at zero, have an exactly zero diagonal.
    """

    def __init__(self, X: np.ndarray, store: bool):
        m = X.shape[0]
        if m == 0:
            raise ValueError("a GP needs at least one training row")
        self.X, self.columns = X, np.ascontiguousarray(X.T)
        step = max(1, min(m, _BLOCK_ENTRIES // m))
        self.blocks = [slice(s, min(s + step, m)) for s in range(0, m, step)]
        packed = sum((rows.stop - rows.start) * rows.stop for rows in self.blocks)
        buffer = _mapped(m * m + packed)
        self.L = buffer[:m * m].reshape(m, m)
        self.R = self._unpack(buffer[m * m:])
        self.scratch = np.empty((3, step * m))
        self.upper = np.triu(np.ones((step, step), dtype=bool), 1)
        self.stored = None
        self.norms = np.empty(m)
        if store:
            stored = np.empty((2, packed))
            grams, sqdists = self._unpack(stored[0]), self._unpack(stored[1])
        # One pass: block b's squared distances read the norms of rows [0, e),
        # which blocks 0 to b have given by then.
        for b, rows in enumerate(self.blocks):
            gram = self._gram(b)
            self.norms[rows] = gram[:, rows].diagonal()
            if store:
                grams[b][...] = sqdists[b][...] = gram
                self._sqdist(b, sqdists[b])
        if store:
            # Shared by every evaluation, so no in-place step may write to them.
            stored.setflags(write=False)
            self.stored = (self._unpack(stored[0]), self._unpack(stored[1]))

    def _unpack(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of `flat` as one contiguous array per block, of the block's
        shape, in block order."""
        views, start = [], 0
        for rows in self.blocks:
            shape = (rows.stop - rows.start, rows.stop)
            views.append(flat[start:start + shape[0] * shape[1]].reshape(shape))
            start += shape[0] * shape[1]
        return views

    def _scratch(self, i: int, b: int) -> np.ndarray:
        """Scratch buffer i (of 3) as a contiguous array of block b's shape."""
        rows = self.blocks[b]
        n, e = rows.stop - rows.start, rows.stop
        return self.scratch[i, :n * e].reshape(n, e)

    def _gram(self, b: int) -> np.ndarray:
        """Block b of X X^T: the stored block, or one built in scratch."""
        if self.stored is not None:
            return self.stored[0][b]
        rows = self.blocks[b]
        return np.matmul(self.X[rows], self.columns[:, :rows.stop], out=self._scratch(0, b))

    def _sqdist(self, b: int, gram: np.ndarray) -> np.ndarray:
        """Block b of the squared distances, given block b of the Gram: the
        stored block, or `gram` turned into it in place."""
        if self.stored is not None:
            return self.stored[1][b]
        rows = self.blocks[b]
        sqdist = np.multiply(gram, -2.0, out=gram)
        sqdist += np.add(self.norms[rows, None], self.norms[None, :rows.stop],
                         out=self._scratch(1, b))
        return np.maximum(sqdist, 0.0, out=sqdist)

    def covariance(self, params: KernelParams, jitter: float) -> np.ndarray:
        """The lower triangle of K + (noise + jitter) I in L, K =
        linear_variance gram + K_rbf, with K_rbf in R; returns L."""
        for b, rows in enumerate(self.blocks):
            gram = self._gram(b)
            # In contiguous scratch, so that only the sum is written strided.
            linear = np.multiply(gram, params.linear_variance, out=self._scratch(2, b))
            K_rbf = _rbf(self._sqdist(b, gram), params, out=self.R[b])
            np.add(linear, K_rbf, out=self.L[rows, :rows.stop])
        np.fill_diagonal(self.L, self.L.diagonal() + params.noise_variance + jitter)
        return self.L

    def products(self, K_inv: np.ndarray, alpha: np.ndarray) -> tuple[float, float, float]:
        """The sums of W * gram, W * K_rbf and W * K_rbf * sqdist over the
        blocks, with K_rbf in R and K^-1 read from the lower triangle of
        K_inv. W is alpha alpha^T - K^-1 below the diagonal, half that on it
        and zero above, formed block by block in scratch."""
        w_gram = w_rbf = w_sqdist = 0.0
        for b, rows in enumerate(self.blocks):
            n, e = rows.stop - rows.start, rows.stop
            weights = np.multiply(alpha[rows, None], alpha[None, :e], out=self._scratch(2, b))
            weights -= K_inv[rows, :e]
            # The square on the diagonal: zeros above it, set rather than
            # scaled, whatever K_inv holds there; halves on it.
            np.copyto(weights[:, rows], 0.0, where=self.upper[:n, :n])
            weights.reshape(-1)[rows.start::e + 1] *= 0.5
            gram, K_rbf = self._gram(b), self.R[b]
            w_gram += np.vdot(weights, gram)
            w_rbf += np.vdot(weights, K_rbf)
            weights *= K_rbf
            w_sqdist += np.vdot(weights, self._sqdist(b, gram))
        return w_gram, w_rbf, w_sqdist


def _training_kernel(X: np.ndarray) -> _TrainingParts:
    """The parts a fit or a load of a leaf with training inputs X works from.
    Raises ValueError when X has no rows, which LAPACK would refuse."""
    return _TrainingParts(X, store=X.shape[0] <= _STORE_MAX_ROWS)


_JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def _factorize(parts: _TrainingParts, params: KernelParams,
               ladder: tuple[float, ...] = _JITTER_LADDER) -> tuple[np.ndarray, float]:
    """Cholesky factor of K + (noise + jitter) I, escalating jitter until it
    works; returns the factor and the jitter.

    The factor is parts.L: LAPACK potrf runs in place on its Fortran view,
    so it ends with the factor in its lower triangle; what lies above it is
    left as it was, and no result depends on it. A failed rung leaves L
    partly factored, so the next rung builds K in it again.
    """
    from . import _lapack

    for jitter in ladder:
        L = parts.covariance(params, jitter)
        if _lapack.potrf(L.T) == 0:
            return L, jitter
    raise LeafFitError(
        f"covariance factorization failed at jitter {ladder[-1]:g} "
        f"(m={parts.X.shape[0]}); leaf is numerically ill-conditioned")


def _lml_terms(params: KernelParams, parts: _TrainingParts,
               y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Log marginal likelihood, its log-space gradient (GPML Alg. 5.1), alpha
    and the jitter the factorization needed.

    Works in the buffers parts holds: R takes the lower blocks of K_rbf,
    and the lower triangle of the m x m buffer L holds K, then its factor,
    then K^-1. For symmetric dK, 1/2 (alpha^T dK alpha - tr(K^-1 dK)) is
    the sum over i >= j of W_ij dK_ij with W = alpha alpha^T - K^-1 below
    the diagonal and half that on it, which products forms and sums block
    by block.
    """
    from . import _lapack

    L, jitter = _factorize(parts, params)
    alpha = _lapack.potrs(L.T, y)
    value = float(-0.5 * (y @ alpha) - np.log(L.diagonal()).sum()
                  - 0.5 * y.shape[0] * math.log(2.0 * math.pi))

    # K^-1 in place over the factor: L.T is the Fortran-ordered upper
    # factor, so potri writes the inverse into L's lower triangle.
    info = _lapack.potri(L.T)
    if info != 0:
        raise LeafFitError(f"covariance inverse failed (potri info {info})")
    trace_kinv = float(np.trace(L))
    w_gram, w_rbf, w_sqdist = parts.products(L, alpha)
    ell2 = params.rbf_lengthscale * params.rbf_lengthscale
    grad = np.array([
        params.linear_variance * w_gram,  # d/d log linear_variance
        w_rbf,                            # d/d log rbf_variance
        w_sqdist / ell2,                  # d/d log rbf_lengthscale
        0.5 * params.noise_variance * (float(alpha @ alpha) - trace_kinv),
    ])
    return value, grad, alpha, jitter


def log_marginal_likelihood(params: KernelParams, X: np.ndarray,
                            y: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and log-parameter-space gradient of the GP log marginal likelihood.

    value = -1/2 y^T alpha - sum(log diag L) - m/2 log(2 pi) with
    L L^T = K + noise I; the gradient entries follow the trace identity
    d LML / d theta = 1/2 (alpha^T dK alpha - tr(K^-1 dK)) with dK taken
    with respect to each log-parameter, in KernelParams field order.
    """
    X, y = _design(X, y)
    return _lml_terms(params, _training_kernel(X), y)[:2]


def covariance_factor(params: KernelParams, X: np.ndarray, jitter: float) -> np.ndarray:
    """Lower Cholesky factor of K(X, X) + (noise + jitter) I over training
    rows, with zeros above it.

    Built from the same training parts and through the same _factorize as
    the fit, so a fitted model's jitter reproduces the fit's factor bit for
    bit and fit and load agree on which covariances factorize. Raises
    LeafFitError when K is not numerically positive definite at that jitter.
    """
    return np.tril(_factorize(_training_kernel(X), params, ladder=(jitter,))[0])


_UNIT_ROUNDOFF = 2.0 ** -53
_CERTIFICATE_SAFETY = 10.0
# Below this shift the rounding model (relative error u per operation) no
# longer covers the matrix entries: subnormal results lose relative accuracy.
_CERTIFICATE_MIN_SHIFT = float(np.finfo(np.float64).tiny) / _UNIT_ROUNDOFF


def check_covariance(params: KernelParams, X: np.ndarray, jitter: float) -> None:
    """Raise LeafFitError exactly when covariance_factor(params, X, jitter) would.

    Tries an O(m d) certificate that the Cholesky factorization in
    covariance_factor succeeds, and runs that factorization only when the
    certificate cannot vouch for it. The certificate is sufficient, not
    necessary, so the answer is always the factorization's own.

    Derivation. Let u = 2^-53, s = noise + jitter, r^2 the largest squared
    row norm of X, l the lengthscale, and A = K(X, X) + s I in exact
    arithmetic. The linear and RBF kernels are positive semi-definite for
    any X, so lambda_min(A) >= s. The matrix potrf actually sees is A + E,
    where E is the rounding in how _TrainingParts.covariance and _rbf form
    its lower triangle; potrf reads nothing else, so E is symmetric. To
    first order, and for any summation order:
      - gram entries are off by at most d u r^2 (BLAS gemm may sum a dot
        product's d terms in any order, and a fused multiply-add only
        removes a rounding), and the squared distances
        |a|^2 + |b|^2 - 2 a.b by at most (4d + 6) u r^2 (the clamp at zero
        only moves them closer to the true value, which is >= 0);
      - exp(-t) is 1-Lipschitz on t >= 0, so the RBF entries are off by at
        most rbf_variance ((2d + 3) u r^2/l^2 + 12 u), counting the scaling
        by -1/(2 l^2), an exp accurate to 4 ulp and the final products;
      - the linear entries by linear_variance (d + 2) u r^2, their sum with
        the RBF entries by u (linear_variance r^2 + rbf_variance);
      - the diagonal shift (K_ii + noise) + jitter by 2 u diag, with
        diag = linear_variance r^2 + rbf_variance + noise + |jitter|.
    With every constant rounded up by a factor of at least 2, which also
    covers the second-order terms and the rounding of r^2 itself, each
    entry of E is at most
        eps = 4u [(d + 4)(linear_variance r^2 + rbf_variance r^2/l^2)
                  + 7 rbf_variance],
    plus tau = 4 u diag on the diagonal. Gershgorin bounds |E|_2 by
    m eps + tau, so by Weyl's inequality lambda_min(A + E) >= lam =
    s - m eps - tau, and no diagonal entry of A + E exceeds
    diag + eps + tau. Higham, Accuracy and Stability of Numerical
    Algorithms (2nd ed.), Thm 10.7: Cholesky of a symmetric floating-point
    matrix M runs to completion when lambda_min(D^-1 M D^-1) >
    m g / (1 - m g), g = gamma_{m+1} = (m+1) u / (1 - (m+1) u), D^2 the
    diagonal of M; lambda_min(D^-1 M D^-1) >= lambda_min(M) / max_i M_ii.
    The test asks for a margin of _CERTIFICATE_SAFETY over that threshold,
    which covers LAPACK's blocked potrf (its bounds have the same form with
    other small constants) and the rounding of the test itself. A shift s
    that is not positive, overflow, NaN or an underflowing shift all fail
    the test and fall back to the factorization.

    The bound holds for K formed by the operations above, whatever the
    block of rows an entry is built in, the order of a dot product's terms
    or the use of fused multiply-adds. Revisit it whenever covariance or
    _rbf change which operations form an entry.
    """
    X = np.asarray(X, dtype=np.float64)
    m, d = X.shape
    u = _UNIT_ROUNDOFF
    r2 = float(np.einsum("ij,ij->i", X, X).max(initial=0.0))
    ell2 = params.rbf_lengthscale * params.rbf_lengthscale
    scaled_r2 = r2 / ell2 if ell2 > 0.0 else math.inf
    lin, rbf = params.linear_variance, params.rbf_variance
    s = params.noise_variance + jitter
    diag = lin * r2 + rbf + params.noise_variance + abs(jitter)
    eps = 4.0 * u * ((d + 4) * (lin * r2 + rbf * scaled_r2) + 7.0 * rbf)
    tau = 4.0 * u * diag
    lam = s - m * eps - tau
    mg = m * (m + 1) * u / (1.0 - (m + 1) * u)
    if (s >= _CERTIFICATE_MIN_SHIFT and mg < 1.0
            and lam > _CERTIFICATE_SAFETY * mg / (1.0 - mg) * (diag + eps + tau)):
        return
    covariance_factor(params, X, jitter)


@dataclass
class GPModel:
    params: KernelParams
    training_inputs: np.ndarray  # m x d, standardized by the caller
    alpha: np.ndarray            # (K + noise I)^-1 (y - y_mean)
    y_mean: float
    jitter: float
    log_marginal: float
    n_iterations: int = 0        # L-BFGS iterations
    n_evaluations: int = 0       # L-BFGS objective evaluations
    converged: bool = False      # L-BFGS reported success

    @functools.cached_property
    def _mean_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """linear_variance X^T alpha, the training columns scaled by
        1/lengthscale (d x m) and rbf_variance alpha.

        Derived from the fields above on the first prediction and never
        serialized. Built lazily rather than at construction: built between
        one leaf's fit and the next, these long-lived arrays pinned the
        allocator's heap and raised peak memory by about one m x m matrix.
        """
        X, alpha = self.training_inputs, self.alpha
        return (self.params.linear_variance * (X * alpha[:, None]).sum(axis=0),
                _scaled_columns(X, self.params), self.params.rbf_variance * alpha)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return gp_predict_mean_batch(self, X)


# Optimization runs in log-space; these bounds only stop the line search
# from wandering into overflow or a hopelessly singular noise floor. The
# variance and noise bounds are taken relative to var(y) (fit_gp); the
# lengthscale bounds are absolute, as the inputs are standardized.
_LOG_LOWER = math.log(1e-10)
_LOG_UPPER = math.log(1e8)
_NOISE_LOG_LOWER = math.log(1e-8)
# L-BFGS-B's stopping rules (scipy's ftol and gtol): an iteration's relative
# gain in the objective below _FTOL, or a projected gradient max-norm below
# _GTOL.
_FTOL = 1e-7
_GTOL = 1e-5


def fit_gp(X: np.ndarray, y: np.ndarray, init: KernelParams,
           max_iters: int = 100) -> GPModel:
    """Fit the composite-kernel GP by maximizing log marginal likelihood.

    Quasi-Newton (L-BFGS-B) ascent over the four log-parameters of
    LML + (m/2) log var(y), the LML of the response in units of its
    standard deviation, which has the LML's gradient. Its bounds are
    [1e-10, 1e8] var(y) on both variances, [1e-8, 1e8] var(y) on the noise
    and [1e-10, 1e8] on the lengthscale, with var(y) read as 1 for a
    constant response. So neither the bounds nor the stopping rule depend
    on the response's units: a start scaled with y takes the same path, up
    to rounding. The search stops when an iteration raises that objective
    by less than 1e-7 of its magnitude (on 200-400-row leaves of CCPP-shaped
    data, where it is 220-430 nats, about 2e-5 to 4e-5 nats), when the
    projected gradient max-norm drops below 1e-5, or after max_iters
    steps.

    The returned model never has a lower marginal likelihood than its start
    point. That start point is exp(log(init)), which is init to within an
    ulp, when the log of init lies inside the optimizer's bounds: L-BFGS's
    own first evaluation then serves as the baseline and nothing is solved
    twice. A start point clipped into the bounds is replaced by init
    itself, evaluated again. With max_iters=0 init is used as given. The
    response is centered internally and the mean re-added at prediction
    time.
    """
    import scipy.optimize

    X, y = _design(X, y)
    m = X.shape[0]
    if m < 2:
        raise LeafFitError(f"need at least 2 rows to fit a GP, got {m}")
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")

    y_mean = float(y.mean())
    yc = y - y_mean
    inputs = np.array(X, dtype=np.float64, order="C", copy=True)
    inputs.setflags(write=False)
    parts = _training_kernel(inputs)

    # (value, alpha, jitter) of every evaluation L-BFGS makes, keyed by the
    # exact bytes of its point, so the start and the returned parameters
    # need no second solve.
    seen: dict[bytes, tuple[float, np.ndarray, float]] = {}
    log_var = math.log(float(np.var(yc)) or 1.0)
    offset = 0.5 * m * log_var

    def objective(z: np.ndarray):
        try:
            lml, grad, alpha, jitter = _lml_terms(KernelParams.from_log(z), parts, yc)
        except LeafFitError:
            return 1e25, np.zeros(4)
        seen[z.tobytes()] = (lml, alpha, jitter)
        return -(lml + offset), -grad

    variance = (_LOG_LOWER + log_var, _LOG_UPPER + log_var)
    bounds = [variance, variance, (_LOG_LOWER, _LOG_UPPER),
              (_NOISE_LOG_LOWER + log_var, _LOG_UPPER + log_var)]
    z_init = init.to_log()
    z0 = np.clip(z_init, [b[0] for b in bounds], [b[1] for b in bounds])
    # With no iterations nothing is evaluated, and z0 stands for the end.
    z_end, n_iterations, n_evaluations, converged = z0, 0, 0, False
    if max_iters > 0:
        result = scipy.optimize.minimize(
            objective, z0, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": max_iters, "ftol": _FTOL, "gtol": _GTOL})
        z_end, n_iterations, n_evaluations, converged = (
            result.x, int(result.nit), int(result.nfev), bool(result.success))
    # L-BFGS evaluates z0 first. Unless init was clipped, that evaluation is
    # the baseline and exp(z0), within an ulp of init, the fallback; with
    # no evaluation, init is solved as given.
    start = seen.get(z0.tobytes()) if np.array_equal(z0, z_init) else None
    if start is not None:
        best = KernelParams.from_log(z0)
        value, alpha, jitter = start
    else:
        best = init
        value, _, alpha, jitter = _lml_terms(init, parts, yc)
    # L-BFGS returns a point it evaluated; one missing from seen failed to
    # factorize, and would fail again.
    trial = seen.get(z_end.tobytes())
    if trial is not None and trial[0] >= value:
        best = KernelParams.from_log(z_end)
        value, alpha, jitter = trial

    alpha = alpha.copy()
    alpha.setflags(write=False)
    return GPModel(params=best, training_inputs=inputs, alpha=alpha,
                   y_mean=y_mean, jitter=float(jitter), log_marginal=value,
                   n_iterations=n_iterations, n_evaluations=n_evaluations,
                   converged=converged)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A batch is split into k = min(usable_cpus(), blocks // _SHARE_BLOCKS)
# shares, so it leaves the calling thread only when every share has at least
# this many blocks. Fixed from measurement: below it, handing a share to
# another thread costs more than the share (ccpp-gp-small's segments, 1-2
# blocks a batch, predicted 25% slower with every batch split).
_SHARE_BLOCKS = 8

_mean_pool = None
_mean_pool_lock = threading.Lock()


def _forget_mean_pool() -> None:
    """Drop the pool: a forked child has none of its threads, and work
    queued to it would never run."""
    global _mean_pool, _mean_pool_lock
    _mean_pool, _mean_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_mean_pool)


def _mean_executor():
    """The process's pool of usable_cpus() - 1 threads for shares of the
    posterior mean, created on first use and kept for the life of the
    process: one made per call gave back about half of what the split
    saves."""
    global _mean_pool
    with _mean_pool_lock:
        if _mean_pool is None:
            from concurrent.futures import ThreadPoolExecutor  # ~7 ms cold; not on import

            _mean_pool = ThreadPoolExecutor(max(1, usable_cpus() - 1),
                                            thread_name_prefix="treeseg-mean")
        return _mean_pool


def gp_predict_mean_batch(model: GPModel, X: np.ndarray) -> np.ndarray:
    """Posterior mean for each query row: k(x, X_train) . alpha + y_mean.

    The linear term is x . (linear_variance X^T alpha). The RBF term is
    built against the model's m scaled training columns in blocks of
    max(1, _BLOCK_ENTRIES // m) query rows, in a block and a scratch buffer
    (_unit_rbf_into), then scaled by rbf_variance alpha and summed one row
    at a time. Every entry gets the same operations in the same order
    whatever the block, and no step mixes rows, so the result for any given
    row does not depend on the batch it came in.

    The blocks are cut into k = min(usable_cpus(), blocks // _SHARE_BLOCKS)
    contiguous shares. With k > 1 the calling thread runs the first share
    and a persistent pool (_mean_executor) the others, each share in a block
    and scratch buffer of its own and writing only its own rows of the
    result; otherwise every block runs on the calling thread, which covers
    single rows and small batches. The blocks are pure elementwise ufuncs
    and row sums, which release the GIL and call no BLAS, so no OpenBLAS
    pin is needed and the thread a block runs on changes no bit.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.training_inputs.shape[1]:
        raise ValueError(f"expected a matrix with {model.training_inputs.shape[1]} columns")
    linear_weights, rbf_columns, rbf_weights = model._mean_constants
    out = (X * linear_weights).sum(axis=1)
    queries = _scaled_columns(X, model.params)
    n, m = X.shape[0], rbf_columns.shape[1]
    rows = max(1, _BLOCK_ENTRIES // max(m, 1))

    def add_rbf(first: int, stop: int) -> None:
        """Add the RBF term of query rows first:stop to out, block by block."""
        block = np.empty((min(rows, stop - first), m))
        scratch = np.empty_like(block)
        for s in range(first, stop, rows):
            e = min(s + rows, stop)
            K = _unit_rbf_into(block[:e - s], scratch[:e - s], queries[:, s:e], rbf_columns)
            K *= rbf_weights
            out[s:e] += K.sum(axis=1)

    blocks = -(-n // rows)
    shares = min(usable_cpus(), blocks // _SHARE_BLOCKS) if blocks >= 2 * _SHARE_BLOCKS else 1
    if shares == 1:
        add_rbf(0, n)
    else:
        cuts = [min(n, blocks * j // shares * rows) for j in range(shares + 1)]
        pool = _mean_executor()
        futures = [pool.submit(add_rbf, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
        try:
            add_rbf(0, cuts[1])
        finally:
            for future in futures:
                future.result()
    out += model.y_mean
    return out


LeafModel = ConstantModel | LinearModel | GPModel

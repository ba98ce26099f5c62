"""Leaf model tests.

The GP checks run against independent oracles: a naive double-loop kernel,
a closed-form single-point marginal likelihood, central finite differences
for the gradient, and a direct normal-equations ridge solve for the linear
degeneracy. None of them share code with the production implementation.
"""
import ctypes
import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cython_lapack, lapack

from treeseg import _lapack, cart, leaf_models
from treeseg.data import Dataset
from treeseg.leaf_models import (ConstantModel, GPModel, KernelParams,
                                 LeafFitError, LinearModel, check_covariance,
                                 covariance_factor, fit_constant, fit_gp, fit_ols,
                                 gp_predict_mean_batch, kernel_matrix,
                                 log_marginal_likelihood)
from treeseg.persistence import PersistenceError, load_model, save_model
from treeseg.pipeline import FitConfig, default_gp_init, fit_segmented


def naive_kernel(params, A, B):
    """Double-loop reference kernel, scalar math only."""
    out = np.empty((A.shape[0], B.shape[0]))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            lin = params.linear_variance * float(np.dot(a, b))
            sq = float(((a - b) ** 2).sum())
            rbf = params.rbf_variance * math.exp(-sq / (2.0 * params.rbf_lengthscale**2))
            out[i, j] = lin + rbf
    return out


def naive_lml(params, X, y):
    """Direct slogdet/solve evaluation of the marginal likelihood."""
    m = X.shape[0]
    K = naive_kernel(params, X, X) + params.noise_variance * np.eye(m)
    _, logdet = np.linalg.slogdet(K)
    return float(-0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet
                 - 0.5 * m * math.log(2.0 * math.pi))


def dense_kernel(params, A, B):
    """Vectorized reference kernel from explicit coordinate differences."""
    diff = A[:, None, :] - B[None, :, :]
    sq = (diff * diff).sum(axis=2)
    return (params.linear_variance * (A[:, None, :] * B[None, :, :]).sum(axis=2)
            + params.rbf_variance * np.exp(-sq / (2.0 * params.rbf_lengthscale**2)))


def dense_lml(params, X, y, jitter=0.0):
    m = X.shape[0]
    K = dense_kernel(params, X, X) + (params.noise_variance + jitter) * np.eye(m)
    _, logdet = np.linalg.slogdet(K)
    return float(-0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet
                 - 0.5 * m * math.log(2.0 * math.pi))


def dense_gradient(params, X, y, jitter=0.0):
    """GPML's log-space gradient 1/2 (alpha^T dK alpha - tr(K^-1 dK)), from
    a dense K^-1 and each dense dK."""
    m = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    sq = (diff * diff).sum(axis=2)
    K_rbf = params.rbf_variance * np.exp(-sq / (2.0 * params.rbf_lengthscale**2))
    dKs = [params.linear_variance * (X @ X.T), K_rbf, K_rbf * sq / params.rbf_lengthscale**2,
           params.noise_variance * np.eye(m)]
    K_inv = np.linalg.inv(dKs[0] + K_rbf + (params.noise_variance + jitter) * np.eye(m))
    alpha = K_inv @ y
    return np.array([0.5 * (alpha @ dK @ alpha - (K_inv * dK).sum()) for dK in dKs])


def central_difference_error(params, X, y, h=1e-5):
    """Relative max error of the analytic gradient against central differences."""
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
    return float(np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()))


def random_params(rng):
    return KernelParams(
        linear_variance=float(rng.uniform(0.1, 3.0)),
        rbf_variance=float(rng.uniform(0.1, 3.0)),
        rbf_lengthscale=float(rng.uniform(0.5, 3.0)),
        noise_variance=float(rng.uniform(0.05, 1.0)),
    )


class TestConstant:
    def test_mean(self):
        model = fit_constant(np.array([1.0, 2.0, 6.0]))
        assert model.mean == 3.0
        assert model.predict(np.zeros((4, 2))).tolist() == [3.0] * 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_constant(np.array([]))


class TestOLS:
    def test_exact_recovery_noiseless(self, rng):
        X = rng.normal(size=(60, 3))
        w_true = np.array([2.0, -1.5, 0.25])
        y = X @ w_true + 4.0
        model = fit_ols(X, y)
        assert model.weights == pytest.approx(w_true, abs=1e-9)
        assert model.intercept == pytest.approx(4.0, abs=1e-9)
        assert not model.used_fallback

    def test_residual_orthogonality(self, rng):
        X = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        model = fit_ols(X, y)
        r = y - model.predict(X)
        # Normal equations: residual orthogonal to every column and to 1.
        assert np.abs(X.T @ r).max() < 1e-6 * (1.0 + np.abs(y).max())
        assert abs(r.sum()) < 1e-6 * (1.0 + np.abs(y).max())

    def test_ridge_matches_normal_equations_oracle(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        eps = 0.7
        model = fit_ols(X, y, ridge_eps=eps)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        w = np.linalg.solve(Xc.T @ Xc + eps * np.eye(3), Xc.T @ yc)
        b = y.mean() - X.mean(axis=0) @ w
        assert model.weights == pytest.approx(w, rel=1e-10)
        assert model.intercept == pytest.approx(b, rel=1e-10)

    def test_intercept_unpenalized(self, rng):
        # Shifting y by a constant shifts only the intercept, even with
        # heavy regularization.
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        a = fit_ols(X, y, ridge_eps=100.0)
        b = fit_ols(X, y + 55.0, ridge_eps=100.0)
        assert b.weights == pytest.approx(a.weights, rel=1e-12)
        assert b.intercept - a.intercept == pytest.approx(55.0, rel=1e-12)

    def test_rank_deficient_falls_back(self, rng):
        x = rng.normal(size=30)
        X = np.column_stack([x, x])  # duplicated column
        y = 3.0 * x + rng.normal(size=30) * 0.01
        model = fit_ols(X, y, ridge_eps=0.0)
        assert model.used_fallback
        assert model.ridge_eps > 0.0
        pred = model.predict(X)
        assert np.isfinite(pred).all()
        # The fallback still fits the (well-defined) projection closely.
        assert float(np.sqrt(np.mean((pred - y) ** 2))) < 0.05

    def test_constant_column_is_harmless(self, rng):
        X = np.column_stack([np.full(25, 2.0), rng.normal(size=25)])
        y = 5.0 * X[:, 1] - 1.0
        model = fit_ols(X, y)
        assert model.predict(X) == pytest.approx(y, abs=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_ols(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            fit_ols(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            fit_ols(np.zeros((4, 2)), np.zeros(4), ridge_eps=-1.0)


class TestKernel:
    @pytest.mark.parametrize("shape_a,shape_b", [((17, 3), (9, 3)), ((300, 2), (5, 2))],
                             ids=["17x3-by-9x3", "300x2-by-5x2"])
    def test_matches_naive_loops(self, rng, shape_a, shape_b):
        params = random_params(rng)
        A = rng.normal(size=shape_a)
        B = rng.normal(size=shape_b)
        K = kernel_matrix(params, A, B)
        assert K == pytest.approx(naive_kernel(params, A, B), rel=1e-12, abs=1e-14)

    def test_symmetric_and_psd(self, rng):
        for _ in range(10):
            params = random_params(rng)
            X = rng.normal(size=(30, 2))
            K = kernel_matrix(params, X, X)
            assert K == pytest.approx(K.T, rel=1e-12, abs=1e-14)
            eig = np.linalg.eigvalsh(K)
            assert eig.min() >= -1e-8 * max(eig.max(), 1.0)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            KernelParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, -2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, 1.0, math.inf, 1.0)

    def test_log_round_trip(self, rng):
        params = random_params(rng)
        back = KernelParams.from_log(params.to_log())
        assert back.to_log() == pytest.approx(params.to_log(), rel=1e-15)


class TestMarginalLikelihood:
    def test_single_point_closed_form(self):
        params = KernelParams(0.5, 2.0, 1.3, 0.25)
        x = np.array([[0.7, -0.2]])
        y = np.array([1.1])
        k = (0.5 * (0.7**2 + 0.2**2)) + 2.0 + 0.25
        expect = -0.5 * 1.1**2 / k - 0.5 * math.log(k) - 0.5 * math.log(2 * math.pi)
        value, _ = log_marginal_likelihood(params, x, y)
        assert value == pytest.approx(expect, rel=1e-12)

    def test_matches_slogdet_oracle(self, rng):
        for _ in range(20):
            params = random_params(rng)
            m = int(rng.integers(2, 25))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(m, d))
            y = rng.normal(size=m)
            value, _ = log_marginal_likelihood(params, X, y)
            assert value == pytest.approx(naive_lml(params, X, y), rel=1e-9, abs=1e-9)

    def test_gradient_against_central_differences(self, rng):
        """Analytic log-space gradient vs central differences on 60 problems."""
        worst = 0.0
        for _ in range(60):
            params = random_params(rng)
            m = int(rng.integers(5, 31))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(m, d))
            y = rng.normal(size=m)
            worst = max(worst, central_difference_error(params, X, y))
        assert worst < 1e-4

    @staticmethod
    def gradient_cases(rng, m):
        """(X, y, params) at noise floors 0.1 and 0.05, and one whose K
        needs a jitter rung: rows repeated three times, with a response
        that repeats too, so y stays in the range of K and the gradient is
        well conditioned."""
        X = rng.normal(size=(m, 4))
        y = rng.normal(size=m)
        repeated = np.repeat(X[:m // 3 + 1], 3, axis=0)[:m]
        return [(X, y, KernelParams(1.0, 1.0, 2.0, 0.1)),
                (X, y, KernelParams(0.3, 2.5, 0.7, 0.05)),
                (repeated, np.sin(repeated[:, 0]) + 0.5 * repeated[:, 1],
                 KernelParams(1e-4, 1e-4, 2.0, 1e-20))]

    @pytest.mark.parametrize("store", [True, False])
    @pytest.mark.parametrize("m", [182, 1025])
    def test_gradient_matches_the_dense_gpml_reference(self, rng, m, store):
        # m = 182 is two blocks of rows, 1025 just over the store limit.
        jitters = []
        for X, y, params in self.gradient_cases(rng, m):
            parts = leaf_models._TrainingParts(X, store)
            _, grad, _, jitter = leaf_models._lml_terms(params, parts, y)
            ref = dense_gradient(params, X, y, jitter)
            assert np.abs(grad - ref).max() <= 1e-9 * np.abs(ref).max()
            jitters.append(jitter)
        assert jitters[0] == jitters[1] == 0.0 < jitters[2]

    @pytest.mark.parametrize("store", [True, False])
    @pytest.mark.parametrize("m", [100, 182])
    def test_evaluation_reads_nothing_above_the_lower_blocks(self, rng, m, store):
        # Only the lower blocks of L are written before they are read; with
        # the rest of L NaN, an evaluation gives the bits of a clean one.
        for X, y, params in self.gradient_cases(rng, m):
            parts = leaf_models._TrainingParts(X, store)
            clean = leaf_models._lml_terms(params, parts, y)
            parts.L.fill(np.nan)
            value, grad, alpha, jitter = leaf_models._lml_terms(params, parts, y)
            assert (value, jitter) == (clean[0], clean[3])
            assert same_bits(grad, clean[1]) and same_bits(alpha, clean[2])

    def test_shape_validation(self):
        params = KernelParams(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_marginal_likelihood(params, np.zeros((3, 2)), np.zeros(4))

    def test_zero_rows_rejected_before_lapack(self, capfd):
        # Given a leading dimension of 0, LAPACK prints an illegal-value
        # message of its own; both entry points refuse first, silently.
        params = KernelParams(1.0, 1.0, 1.0, 1.0)
        X = np.zeros((0, 3))
        with pytest.raises(ValueError, match="at least one training row"):
            log_marginal_likelihood(params, X, np.zeros(0))
        with pytest.raises(ValueError, match="at least one training row"):
            covariance_factor(params, X, 0.0)
        assert capfd.readouterr() == ("", "")

    def test_m300_with_near_duplicate_rows(self, rng):
        """Value vs slogdet and gradient vs central differences at m=300.

        Rows are offset far from the origin and 60 of them nearly repeat
        others, where |a|^2 + |b|^2 - 2 a.b loses most of its digits.
        """
        X = rng.normal(size=(300, 4)) * 3.0 + 5.0
        X[240:] = X[:60] + rng.normal(size=(60, 4)) * 1e-7
        y = np.sin(X[:, 0]) + 0.1 * X[:, 1] + rng.normal(size=300) * 0.1
        y -= y.mean()
        for _ in range(4):
            params = random_params(rng)
            value, _ = log_marginal_likelihood(params, X, y)
            assert value == pytest.approx(dense_lml(params, X, y), rel=1e-9, abs=1e-9)
            assert central_difference_error(params, X, y) < 1e-4


class TestFitGP:
    def test_too_few_rows(self):
        init = KernelParams(1.0, 1.0, 1.0, 0.1)
        with pytest.raises(LeafFitError):
            fit_gp(np.zeros((1, 2)), np.zeros(1), init)

    def test_max_iters_zero_is_passthrough(self, rng):
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        init = KernelParams(0.9, 1.1, 1.7, 0.3)
        model = fit_gp(X, y, init, max_iters=0)
        assert model.params == init
        assert model.n_iterations == 0
        assert model.y_mean == pytest.approx(float(y.mean()))

    def test_never_below_initial_likelihood(self, rng):
        for _ in range(5):
            m = int(rng.integers(8, 40))
            X = rng.normal(size=(m, 2))
            y = rng.normal(size=m)
            init = random_params(rng)
            model = fit_gp(X, y, init, max_iters=25)
            base = naive_lml(init, X, y - y.mean())
            assert model.log_marginal >= base - 1e-8 * (1.0 + abs(base))

    def test_solve_residual(self, rng):
        X = rng.normal(size=(40, 3))
        y = np.sin(X[:, 0]) + rng.normal(size=40) * 0.1
        model = fit_gp(X, y, KernelParams(1.0, 1.0, 1.0, 0.1), max_iters=30)
        K = kernel_matrix(model.params, model.training_inputs, model.training_inputs)
        Kn = K + (model.params.noise_variance + model.jitter) * np.eye(40)
        yc = y - model.y_mean
        resid = np.linalg.norm(Kn @ model.alpha - yc) / np.linalg.norm(yc)
        assert resid < 1e-6

    def test_near_interpolation_with_small_noise(self, rng):
        X = np.linspace(-2.0, 2.0, 25)[:, None]
        y = np.sin(1.5 * X[:, 0])
        model = fit_gp(X, y, KernelParams(1e-6, 1.0, 1.0, 1e-4), max_iters=0)
        pred = gp_predict_mean_batch(model, X)
        assert float(np.abs(pred - y).max()) < 5e-3

    def test_climbs_jitter_ladder(self, rng):
        # Exactly repeated rows and a negligible noise floor: the covariance
        # is singular at jitter 0, so the fit must step up the ladder.
        X = np.repeat(rng.normal(size=(20, 2)), 3, axis=0)
        y = rng.normal(size=60)
        params = KernelParams(1.0, 1.0, 2.0, 1e-20)
        model = fit_gp(X, y, params, max_iters=0)
        assert model.jitter > 0.0
        with pytest.raises(LeafFitError):
            covariance_factor(params, model.training_inputs, 0.0)
        yc = y - model.y_mean
        Kn = dense_kernel(params, X, X) + (params.noise_variance + model.jitter) * np.eye(60)
        assert np.linalg.norm(Kn @ model.alpha - yc) / np.linalg.norm(yc) < 1e-6
        assert model.log_marginal == pytest.approx(
            dense_lml(params, X, yc, model.jitter), rel=1e-6)

    def test_jitter_ladder_ends_on_the_one_rung_factor(self, rng):
        # Each failed rung leaves the buffer partly factored; the rung that
        # succeeds must factor K exactly as a one-rung call at its jitter does.
        X = np.repeat(rng.normal(size=(20, 2)), 3, axis=0)
        params = KernelParams(1.0, 1.0, 2.0, 1e-20)
        parts = leaf_models._training_kernel(X)
        L, jitter = leaf_models._factorize(parts, params)
        L = L.copy()  # the next call factors in the same held buffer
        assert jitter > 0.0
        one, same = leaf_models._factorize(parts, params, ladder=(jitter,))
        assert same == jitter and np.array_equal(L, one)
        assert same_bits(covariance_factor(params, X, jitter), np.tril(L))

    def test_records_optimizer_outcome(self, rng):
        X = rng.normal(size=(30, 2))
        y = np.sin(X[:, 0]) + rng.normal(size=30) * 0.1
        init = KernelParams(1.0, 1.0, 1.0, 0.1)
        model = fit_gp(X, y, init, max_iters=50)
        assert model.n_evaluations >= model.n_iterations > 0
        assert model.converged
        capped = fit_gp(X, y, init, max_iters=1)
        assert capped.n_iterations == 1 and not capped.converged
        still = fit_gp(X, y, init, max_iters=0)
        assert (still.n_iterations, still.n_evaluations, still.converged) == (0, 0, False)

    @staticmethod
    def check_one_factorization_per_evaluation(monkeypatch, X, y, init):
        calls = count_factorizations(monkeypatch)
        for max_iters in (1, 3, 50):
            calls.clear()
            model = fit_gp(X, y, init, max_iters=max_iters)
            assert len(calls) == model.n_evaluations
            base = naive_lml(init, X, y - y.mean())
            assert model.log_marginal >= base - 1e-8 * (1.0 + abs(base))

    def test_reuses_optimizer_evaluations(self, rng, monkeypatch):
        # One factorization per L-BFGS evaluation: the initial and the
        # returned parameters are read from the evaluations it already made.
        X = rng.normal(size=(40, 2))
        y = np.sin(X[:, 0]) + rng.normal(size=40) * 0.1
        init = KernelParams(1.0, 1.0, 1.0, 0.25)
        assert KernelParams.from_log(init.to_log()) == init
        self.check_one_factorization_per_evaluation(monkeypatch, X, y, init)

    def test_default_init_start_is_not_solved_again(self, rng, monkeypatch):
        # default_gp_init's variances and sqrt(d) lengthscale rarely survive
        # exp(log(.)) bit for bit; L-BFGS's first evaluation is still the
        # baseline, so nothing is factorized twice.
        X = rng.normal(size=(40, 3))
        y = np.sin(X[:, 0]) + rng.normal(size=40) * 0.1
        init = default_gp_init(X, y)
        assert KernelParams.from_log(init.to_log()) != init
        self.check_one_factorization_per_evaluation(monkeypatch, X, y, init)

    def test_shared_leaf_arrays_are_read_only(self, rng, monkeypatch):
        # Every evaluation reads the same Gram and squared distances; an
        # in-place step that wrote to them would corrupt the next one.
        flags = []
        real = leaf_models._lml_terms

        def spy(params, parts, y):
            flags.extend(block.flags.writeable for blocks in parts.stored for block in blocks)
            return real(params, parts, y)

        monkeypatch.setattr(leaf_models, "_lml_terms", spy)
        X = rng.normal(size=(30, 2))
        fit_gp(X, np.sin(X[:, 0]), KernelParams(1.0, 1.0, 1.0, 0.1), max_iters=3)
        assert flags and set(flags) == {False}

    def test_clipped_init_is_solved_again(self, rng, monkeypatch):
        # A noise variance below the optimizer's bound is clipped, so the
        # optimizer never evaluates init itself.
        calls = count_factorizations(monkeypatch)
        X = rng.normal(size=(30, 2))
        y = np.sin(X[:, 0]) + rng.normal(size=30) * 0.1
        model = fit_gp(X, y, KernelParams(1.0, 1.0, 1.0, 1e-12), max_iters=5)
        assert len(calls) == model.n_evaluations + 1

    @staticmethod
    def leaf(seed):
        """A seeded 300 x 4 leaf: a linear trend, a smooth interaction and noise."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 4))
        y = (X @ np.array([1.0, -0.5, 0.3, 0.0]) + np.sin(2.0 * X[:, 0]) * X[:, 1]
             + rng.normal(0.0, 0.1, size=300))
        return X, y

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stopping_rule_lands_at_the_optimum(self, seed):
        # The reference runs from the same start until neither the value
        # nor the gradient moves; the default fit stops sooner, within 1e-3
        # nats of the reference's LML, after the same evaluations every time.
        X, y = self.leaf(seed)
        init = default_gp_init(X, y)
        model = fit_gp(X, y, init)
        yc = y - y.mean()

        def negative(z):
            value, grad = log_marginal_likelihood(KernelParams.from_log(z), X, yc)
            return -value, -grad

        reference = scipy.optimize.minimize(
            negative, init.to_log(), jac=True, method="L-BFGS-B",
            options={"maxiter": 1000, "ftol": 0.0, "gtol": 1e-9})
        assert model.converged and model.n_evaluations < reference.nfev
        assert model.log_marginal >= -reference.fun - 1e-3
        again = fit_gp(X, y, init)
        assert (again.params, again.n_iterations, again.n_evaluations) == (
            model.params, model.n_iterations, model.n_evaluations)

    def test_fit_does_not_depend_on_the_response_units(self):
        # The bounds and the stopping rule are relative to var(y), so
        # scaling the response by c moves the LML by -m log c and leaves the
        # optimizer's path as it was.
        X, y = self.leaf(3)
        fits = {c: fit_gp(X, c * y, default_gp_init(X, c * y)) for c in (1.0, 1e3, 1e5)}
        for c, fit in fits.items():
            assert fit.log_marginal + 300 * math.log(c) == pytest.approx(
                fits[1.0].log_marginal, abs=1e-6)
            assert fit.n_iterations == fits[1.0].n_iterations
            assert fit.params.rbf_lengthscale == pytest.approx(
                fits[1.0].params.rbf_lengthscale, rel=1e-6)

    def test_constant_response_takes_the_unit_bounds(self, rng):
        # var(y) = 0 has no log; the bounds are then those of var(y) = 1.
        X = rng.normal(size=(10, 2))
        model = fit_gp(X, np.full(10, 3.0), KernelParams(1.0, 1.0, 1.0, 0.1))
        assert model.params.noise_variance == pytest.approx(1e-8)
        assert not model.alpha.any()

    def test_improves_on_constant_for_smooth_target(self, rng):
        X = rng.uniform(-2, 2, size=(80, 1))
        y = np.sin(2.0 * X[:, 0]) + rng.normal(size=80) * 0.05
        model = fit_gp(X, y, KernelParams(1.0, 1.0, 1.0, 0.5), max_iters=50)
        grid = np.linspace(-1.8, 1.8, 60)[:, None]
        pred = gp_predict_mean_batch(model, grid)
        truth = np.sin(2.0 * grid[:, 0])
        rmse = float(np.sqrt(np.mean((pred - truth) ** 2)))
        assert rmse < 0.15
        assert model.n_iterations > 0


def mapped_bytes(monkeypatch) -> list:
    """Patch leaf_models._mapped to record the bytes of each memory map it
    makes, which tracemalloc does not see."""
    sizes = []
    real = leaf_models._mapped

    def recording(n):
        sizes.append(8 * n)
        return real(n)

    monkeypatch.setattr(leaf_models, "_mapped", recording)
    return sizes


def test_one_evaluation_holds_two_m_by_m_buffers(rng, monkeypatch):
    # A stored leaf holds the lower blocks of its Gram and squared distances
    # beside what every evaluation works in: K, its factor, K^-1 and the
    # gradient weights in one m x m buffer, and K_rbf's lower blocks, both
    # in one memory map. An evaluation allocates no m x m array of its own.
    m = 400
    X = rng.normal(size=(m, 4))
    y = rng.normal(size=m)
    params = KernelParams(1.0, 1.0, 1.5, 0.1)
    # First-call set-up is not counted.
    leaf_models._lml_terms(params, leaf_models._training_kernel(X[:50]), y[:50])
    mapped = mapped_bytes(monkeypatch)
    tracemalloc.start()
    try:
        parts = leaf_models._training_kernel(X)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        leaf_models._lml_terms(params, parts, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    step = leaf_models._BLOCK_ENTRIES // m
    assert parts.stored is not None and len(mapped) == 1
    assert held + mapped[0] <= (m * m + 3 * m * (m + step) / 2 + 3 * step * m + 64 * m) * 8
    assert peak - held <= 64 * m * 8


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads the Linux map list")
def test_evaluation_buffers_are_a_private_map():
    # A shared anonymous map is shmem, which Linux gives no huge pages by
    # default: it faults in one 4 KB page at a time, as malloc's private
    # maps do not.
    buffer = leaf_models._mapped(1 << 20)
    address = buffer.ctypes.data
    with open("/proc/self/maps", encoding="ascii") as fh:
        spans = [line.split() for line in fh]
    perms = [span[1] for span in spans
             if int(span[0].split("-")[0], 16) <= address < int(span[0].split("-")[1], 16)]
    assert len(perms) == 1 and perms[0].endswith("p")


class TestRebuiltParts:
    """A leaf over _STORE_MAX_ROWS rows rebuilds its Gram and squared
    distances on each evaluation; every result keeps the stored path's bits."""

    @staticmethod
    def near_duplicates(rng, m, d):
        # Rows repeated three times, one copy nudged by 1e-13: with a noise
        # floor of 1e-20, K + noise I needs a jitter rung above 0.
        base = rng.normal(size=(m // 3 + 1, d))
        X = np.repeat(base, 3, axis=0)[:m]
        X[::3] += 1e-13
        return X

    @pytest.mark.parametrize("m, duplicates", [(100, False), (181, False), (182, False),
                                               (257, False), (1025, False), (1100, False),
                                               (300, True)])
    def test_evaluation_has_the_stored_bits(self, rng, m, duplicates):
        # m = 100 and 181 are one block of rows; 182 (180 + 2), 257 and 1100
        # end on a partial block; 1025 is just over the real limit. The held
        # buffers serve every call.
        X = self.near_duplicates(rng, m, 4) if duplicates else rng.normal(size=(m, 4))
        y = rng.normal(size=m)
        stored, rebuilt = (leaf_models._TrainingParts(X, store) for store in (True, False))
        if m in (181, 182):  # the last m with one block of rows, and the first with two
            assert len(stored.blocks) == m - 180
        jitters = set()
        for params in (KernelParams(1.0, 1.0, 2.0, 0.1), KernelParams(0.3, 2.5, 0.7, 1e-20),
                       KernelParams(1.0, 1.0, 2.0, 0.1)):
            value, grad, alpha, jitter = leaf_models._lml_terms(params, stored, y)
            again = leaf_models._lml_terms(params, rebuilt, y)
            assert (value, jitter) == (again[0], again[3])
            assert same_bits(grad, again[1]) and same_bits(alpha, again[2])
            jitters.add(jitter)
        assert (max(jitters) > 0.0) == duplicates

    @pytest.mark.parametrize("m", [181, 182, 1025])
    def test_row_block_gram_is_symmetric_with_a_zero_distance_diagonal(self, rng, m):
        # Each block of rows covers the square on the diagonal, where the Gram
        # holds both a.b and b.a; the norms are the Gram's own diagonal, so
        # every squared distance of a row to itself is exactly zero.
        X = rng.normal(size=(m, 4)) * 3.0
        parts = leaf_models._TrainingParts(X, store=True)
        grams, sqdists = parts.stored
        assert [g.shape for g in grams] == [(r.stop - r.start, r.stop) for r in parts.blocks]
        for rows, gram, sqdist in zip(parts.blocks, grams, sqdists):
            square = gram[:, rows]
            assert same_bits(square, square.T.copy())
            assert same_bits(parts.norms[rows], square.diagonal().copy())
            assert not sqdist[:, rows].diagonal().any() and (sqdist >= 0.0).all()
            assert same_bits(sqdist[:, rows], sqdist[:, rows].T.copy())
            dense = ((X[rows, None, :] - X[None, :rows.stop, :]) ** 2).sum(axis=2)
            np.testing.assert_allclose(sqdist, dense, rtol=0.0, atol=1e-12)

    def test_covariance_factor_has_the_stored_bits(self, rng, monkeypatch):
        X = self.near_duplicates(rng, 150, 3)
        params = KernelParams(1.0, 1.0, 2.0, 1e-20)
        stored = covariance_factor(params, X, 1e-8)
        monkeypatch.setattr(leaf_models, "_STORE_MAX_ROWS", 100)
        assert same_bits(stored, covariance_factor(params, X, 1e-8))
        with pytest.raises(LeafFitError):
            covariance_factor(params, X, 0.0)

    @pytest.mark.parametrize("case", ["optimized", "clipped start", "jitter"])
    def test_fit_above_the_limit_returns_the_stored_model(self, rng, monkeypatch, case):
        m = 150
        X = self.near_duplicates(rng, m, 3) if case == "jitter" else rng.normal(size=(m, 3))
        y = np.sin(X[:, 0]) + rng.normal(size=m) * 0.1
        init, max_iters = {
            "optimized": (default_gp_init(X, y), 20),
            # A noise floor below the optimizer's bound: the start is solved
            # again by value only.
            "clipped start": (KernelParams(1.0, 1.0, 1.0, 1e-12), 5),
            "jitter": (KernelParams(1.0, 1.0, 2.0, 1e-20), 0),
        }[case]
        calls = count_factorizations(monkeypatch)
        models = []
        for store_max_rows in (m, m - 1):
            monkeypatch.setattr(leaf_models, "_STORE_MAX_ROWS", store_max_rows)
            models.append(fit_gp(X, y, init, max_iters=max_iters))
        stored, rebuilt = models
        assert len(calls) == 2 * (stored.n_evaluations + (case != "optimized"))
        assert (case == "jitter") == (stored.jitter > 0.0)
        assert stored.params == rebuilt.params
        assert same_bits(stored.training_inputs, rebuilt.training_inputs)
        assert same_bits(stored.alpha, rebuilt.alpha)
        scalars = [(g.y_mean, g.jitter, g.log_marginal, g.n_iterations, g.n_evaluations,
                    g.converged) for g in models]
        assert scalars[0] == scalars[1]

    def test_rebuilt_fit_holds_two_m_by_m_buffers(self, rng, monkeypatch):
        # L and K_rbf's lower blocks in R, in one memory map, and three blocks
        # of scratch, held for the whole fit: about 1.5 m x m doubles. A
        # stored leaf also holds the lower blocks of its Gram and squared
        # distances.
        m = 800
        X = rng.normal(size=(m, 4))
        y = np.sin(X[:, 0]) + rng.normal(size=m) * 0.1
        init = KernelParams(1.0, 1.0, 1.5, 0.1)
        fit_gp(X[:50], y[:50], init, max_iters=2)  # first-call set-up is not counted
        monkeypatch.setattr(leaf_models, "_STORE_MAX_ROWS", 100)
        mapped = mapped_bytes(monkeypatch)
        tracemalloc.start()
        try:
            fit_gp(X, y, init, max_iters=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        step = leaf_models._BLOCK_ENTRIES // m
        assert len(mapped) == 1
        assert peak + mapped[0] <= (m * m + m * (m + step) / 2 + 3 * step * m + 64 * m) * 8


# The LP64 signatures of scipy 1.17's Cython LAPACK exports, which the
# adapter's ctypes prototypes assume.
_D_LAPACK = "__pyx_t_5scipy_6linalg_13cython_lapack_d *"
LP64_SIGNATURES = {
    "dpotrf": f"void (char *, int *, {_D_LAPACK}, int *, int *)",
    "dpotrs": f"void (char *, int *, int *, {_D_LAPACK}, int *, {_D_LAPACK}, int *, int *)",
    "dpotri": f"void (char *, int *, {_D_LAPACK}, int *, int *)",
}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_spd(rng, m):
    A = rng.normal(size=(m, m))
    return np.asfortranarray(A @ A.T + m * np.eye(m))


class TestForeignLapack:
    """The GIL-releasing adapter gives the bits of scipy's f2py wrappers in
    the upper triangle and leaves the strictly lower one as it was (f2py's
    potrf zeros it)."""

    @pytest.mark.parametrize("m", [1, 2, 65, 300])
    def test_potrf_potrs_potri_match_f2py(self, rng, m):
        A = random_spd(rng, m)
        ref, ref_info = lapack.dpotrf(A)
        factor = A.copy(order="F")
        assert _lapack.potrf(factor) == ref_info == 0
        assert same_bits(np.triu(factor), ref)
        assert same_bits(np.tril(factor, -1), np.tril(A, -1))

        b = rng.normal(size=m)
        ref_x, ref_info = lapack.dpotrs(ref, b)
        x = _lapack.potrs(factor, b)
        assert ref_info == 0 and same_bits(x, ref_x)

        ref_inv, ref_info = lapack.dpotri(ref)
        assert _lapack.potri(factor) == ref_info == 0
        assert same_bits(np.triu(factor), ref_inv)
        assert same_bits(np.tril(factor, -1), np.tril(A, -1))

    @pytest.mark.parametrize("m", [1, 2, 65, 300])
    def test_potrf_reports_the_failing_column(self, rng, m):
        A = random_spd(rng, m)
        A[m // 2, m // 2] = -1.0
        ref, ref_info = lapack.dpotrf(A)
        factor = A.copy(order="F")
        assert _lapack.potrf(factor) == ref_info == m // 2 + 1
        assert same_bits(np.triu(factor), ref)
        assert same_bits(np.tril(factor, -1), np.tril(A, -1))

    def test_rejects_arrays_it_cannot_pass_on(self, rng):
        A = random_spd(rng, 4)
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            _lapack.potrf(A[:, :3])
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            _lapack.potrf(np.ascontiguousarray(A[:3]))
        A.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            _lapack.potri(A)

    def test_capsules_export_the_lp64_signatures(self):
        capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        assert _lapack.SIGNATURES == LP64_SIGNATURES
        for name, signature in LP64_SIGNATURES.items():
            assert capsule_name(cython_lapack.__pyx_capi__[name]).decode() == signature

    def test_another_signature_is_refused(self, monkeypatch):
        ilp64 = LP64_SIGNATURES["dpotrf"].replace("int *", "long *")
        monkeypatch.setitem(_lapack.SIGNATURES, "dpotrf", ilp64)
        with pytest.raises(ImportError, match="dpotrf") as err:
            _lapack.foreign("dpotrf")
        assert LP64_SIGNATURES["dpotrf"] in str(err.value) and ilp64 in str(err.value)

    def test_calls_release_the_gil(self):
        # ctypes keeps the GIL only for prototypes made with PYFUNCTYPE.
        for f in (_lapack._dpotrf, _lapack._dpotrs, _lapack._dpotri):
            assert not f._flags_ & ctypes._FUNCFLAG_PYTHONAPI


class TestGPPredict:
    def test_single_point_closed_form(self):
        # Hand-built one-point posterior: y_mean forced to zero so the
        # closed form is non-trivial.
        kn = 0.5 * 1.0 + 1.5 + 0.2
        y0 = 2.0
        model = GPModel(params=KernelParams(0.5, 1.5, 1.0, 0.2),
                        training_inputs=np.array([[1.0]]), alpha=np.array([y0 / kn]),
                        y_mean=0.0, jitter=0.0, log_marginal=0.0)
        xs = 0.4
        k_star = 0.5 * xs * 1.0 + 1.5 * math.exp(-((xs - 1.0) ** 2) / 2.0)
        mean = gp_predict_mean_batch(model, np.array([[xs]]))[0]
        assert mean == pytest.approx(k_star * y0 / kn, rel=1e-12)

    def test_single_equals_batch_bitwise(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_gp(X, y, KernelParams(1.0, 1.0, 1.0, 0.2), max_iters=5)
        queries = rng.normal(size=(40, 3))
        batch = gp_predict_mean_batch(model, queries)
        for i in range(40):
            assert gp_predict_mean_batch(model, queries[i][None, :])[0] == batch[i]  # bitwise

    def test_dimension_mismatch(self, rng):
        X = rng.normal(size=(10, 2))
        model = fit_gp(X, rng.normal(size=10), KernelParams(1.0, 1.0, 1.0, 0.2),
                       max_iters=0)
        with pytest.raises(ValueError):
            gp_predict_mean_batch(model, np.zeros((1, 3)))


def reference_mean(model, X):
    """The posterior mean as the blocked kernel replaced it: 256 query rows
    at a time, each chunk scaled by 1/lengthscale on its own, its squared
    distances summed from zeros feature by feature, in fresh arrays."""
    p, train, alpha = model.params, model.training_inputs, model.alpha
    X = np.asarray(X, dtype=np.float64)
    columns = np.ascontiguousarray((train / p.rbf_lengthscale).T)
    out = (X * (p.linear_variance * (train * alpha[:, None]).sum(axis=0))).sum(axis=1)
    for s in range(0, X.shape[0], 256):
        A = X[s:s + 256] / p.rbf_lengthscale
        K = np.zeros((A.shape[0], columns.shape[1]))
        diff = np.empty_like(K)
        for k in range(A.shape[1]):
            np.subtract.outer(A[:, k], columns[k], out=diff)
            diff *= diff
            K += diff
        K *= -0.5
        np.exp(K, out=K)
        K *= p.rbf_variance * alpha
        out[s:s + 256] += K.sum(axis=1)
    out += model.y_mean
    return out


def block_rows(m):
    """Query rows per block of the posterior mean against m training rows."""
    return max(1, leaf_models._BLOCK_ENTRIES // m)


_COORD = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)
_PARAM = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def mean_cases(draw):
    """A GP model of m x d training rows, n queries and a block constant."""
    m, d, n = draw(st.integers(1, 40)), draw(st.integers(1, 8)), draw(st.integers(0, 150))
    model = GPModel(params=KernelParams(*(draw(_PARAM) for _ in range(4))),
                    training_inputs=draw(arrays(np.float64, (m, d), elements=_COORD)),
                    alpha=draw(arrays(np.float64, m, elements=_COORD)),
                    y_mean=draw(_COORD), jitter=0.0, log_marginal=0.0)
    queries = draw(arrays(np.float64, (n, d), elements=_COORD))
    return model, queries, draw(st.sampled_from([1, 7, 64]))


class TestMeanPath:
    """The posterior mean folds the linear kernel into one d-vector and builds
    the RBF cross-kernel feature by feature; these pin it to the dense form
    and to the bitwise contracts."""

    @pytest.mark.parametrize("d", [1, 4, 8])
    def test_matches_kernel_matrix_times_alpha(self, rng, d):
        X = rng.normal(size=(60, d))
        y = X.sum(axis=1) + np.sin(X[:, 0]) + rng.normal(size=60) * 0.1
        model = fit_gp(X, y, KernelParams(1.0, 1.0, 1.5, 0.1), max_iters=5)
        queries = rng.normal(size=(2 * block_rows(60) + 37, d)) * 1.5
        ref = kernel_matrix(model.params, queries, model.training_inputs) @ model.alpha
        ref += model.y_mean
        pred = gp_predict_mean_batch(model, queries)
        assert pred == pytest.approx(ref, rel=1e-10, abs=1e-10 * np.abs(ref).max())

    def test_single_row_equals_batch_bitwise_beyond_one_chunk(self, rng):
        m = 300
        X = rng.normal(size=(m, 4))
        y = np.cos(X[:, 1]) + X[:, 2] + rng.normal(size=m) * 0.1
        model = fit_gp(X, y, KernelParams(0.7, 1.3, 1.1, 0.05), max_iters=0)
        queries = rng.normal(size=(2 * block_rows(m) + 9, 4))
        batch = gp_predict_mean_batch(model, queries)
        ones = np.array([gp_predict_mean_batch(model, q[None, :])[0] for q in queries])
        assert np.array_equal(batch, ones)

    def test_batch_result_independent_of_batch_size(self, rng):
        # n rows cross the internal block boundary more than once.
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        model = fit_gp(X, y, KernelParams(1.0, 1.0, 1.0, 0.2), max_iters=5)
        n = 2 * block_rows(25) + 37
        queries = rng.normal(size=(n, 2))
        whole = gp_predict_mean_batch(model, queries)
        pieces = np.concatenate([gp_predict_mean_batch(model, queries[i:i + 7])
                                 for i in range(0, n, 7)])
        assert np.array_equal(whole, pieces)

    @settings(max_examples=300, deadline=None)
    @given(mean_cases())
    def test_blocked_mean_keeps_the_chunked_bits(self, case):
        # Block constants of 1, 7 and 64 entries put block boundaries
        # everywhere, down to one query row per block.
        model, queries, entries = case
        with mock.patch.object(leaf_models, "_BLOCK_ENTRIES", entries):
            got = gp_predict_mean_batch(model, queries)
        assert np.array_equal(got, reference_mean(model, queries))

    def test_loaded_model_predicts_the_same_bits(self, rng, tmp_path):
        # Every GP leaf scores every query, in and out of its own segment.
        X = rng.uniform(-2, 2, size=(240, 3))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(size=240) * 0.1
        fresh = fit_segmented(Dataset(X, y, ("a", "b", "c")),
                              FitConfig(leaf_size=60, leaf_method="gp", gp_max_iters=5))
        assert sum(isinstance(m, GPModel) for m in fresh.leaf_models.values()) >= 2
        path = str(tmp_path / "model.json")
        save_model(fresh, path)
        loaded = load_model(path)
        queries = rng.uniform(-2.5, 2.5, size=(300, 3))
        for sid, model in fresh.leaf_models.items():
            if isinstance(model, GPModel):
                assert np.array_equal(gp_predict_mean_batch(model, queries),
                                      gp_predict_mean_batch(loaded.leaf_models[sid], queries))


class TestCholeskyFactorLifecycle:
    """Fitted and loaded models keep no factor: their posterior mean matches
    a dense solve, and load rejects a covariance that would not factorize."""

    @staticmethod
    def check_against_dense_solve(model, y_leaf, queries):
        X = model.training_inputs
        m = X.shape[0]
        Kn = (dense_kernel(model.params, X, X)
              + (model.params.noise_variance + model.jitter) * np.eye(m))
        K_star = dense_kernel(model.params, queries, X)
        mean_ref = K_star @ np.linalg.solve(Kn, y_leaf - y_leaf.mean()) + y_leaf.mean()
        assert gp_predict_mean_batch(model, queries) == pytest.approx(mean_ref, rel=1e-8,
                                                                      abs=1e-8)

    def test_fitted_model_matches_dense_solve(self, rng):
        X = rng.normal(size=(50, 3))
        y = np.sin(X[:, 0]) + rng.normal(size=50) * 0.1
        model = fit_gp(X, y, KernelParams(1.0, 1.0, 1.0, 0.1), max_iters=10)
        self.check_against_dense_solve(model, y, rng.normal(size=(15, 3)))

    def test_loaded_model_matches_dense_solve(self, rng, tmp_path):
        X = rng.uniform(-2, 2, size=(240, 2))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(size=240) * 0.1
        fresh = fit_segmented(Dataset(X, y, ("a", "b")),
                              FitConfig(leaf_size=60, leaf_method="gp", gp_max_iters=5))
        path = str(tmp_path / "model.json")
        save_model(fresh, path)
        loaded = load_model(path)
        gps = {sid: m for sid, m in loaded.leaf_models.items() if isinstance(m, GPModel)}
        assert len(gps) >= 2
        for sid, model in gps.items():
            rows = cart.assign_leaf_batch(fresh.tree, X) == sid
            queries = rng.normal(size=(5, 2))
            self.check_against_dense_solve(model, y[rows], queries)

    def test_load_rejects_unfactorizable_covariance(self, rng, tmp_path):
        X = rng.uniform(-2, 2, size=(240, 2))
        y = np.sin(X[:, 0]) + rng.normal(size=240) * 0.1
        model = fit_segmented(Dataset(X, y, ("a", "b")),
                              FitConfig(leaf_size=60, leaf_method="gp", gp_max_iters=3))
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        leaf_doc = next(d for d in doc["leaf_models"].values() if d["type"] == "gp")
        # A negative jitter larger than the whole diagonal: K + (noise + jitter) I
        # is negative definite.
        leaf_doc["jitter"] = -1e6
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(PersistenceError, match="not positive definite"):
            load_model(path)


def count_factorizations(monkeypatch) -> list:
    """Patch leaf_models._factorize to record the rows of each call."""
    calls = []
    real = leaf_models._factorize

    def counting(parts, *args, **kwargs):
        calls.append(parts.X.shape[0])
        return real(parts, *args, **kwargs)

    monkeypatch.setattr(leaf_models, "_factorize", counting)
    return calls


class TestCovarianceCertificate:
    """check_covariance answers as covariance_factor does: it certifies
    without factorizing when a rounding-error bound allows, and factorizes
    otherwise."""

    def test_certificate_is_sound_on_near_singular_cases(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        rng = np.random.default_rng(5)
        certified = fallback = failed = 0
        for _ in range(400):
            m, d = int(rng.integers(2, 121)), int(rng.integers(1, 9))
            # Few distinct rows, half of them nudged by 1e-16 to 1e-6 of their
            # scale: K is near singular.
            base = rng.normal(size=(max(1, m // int(rng.integers(1, 6))), d))
            X = base[rng.integers(0, base.shape[0], size=m)] * 10 ** rng.uniform(-3, 3)
            if rng.random() < 0.5:
                X = X + rng.normal(size=X.shape) * 10 ** rng.uniform(-16, -6) * np.abs(X).max()
            params = KernelParams(10 ** rng.uniform(-6, 4), 10 ** rng.uniform(-6, 4),
                                  10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-22, 2))
            jitter = float(rng.choice(leaf_models._JITTER_LADDER))
            del calls[:]
            try:
                check_covariance(params, X, jitter)
                accepted = True
            except LeafFitError:
                accepted = False
            if not calls:
                certified += 1
                covariance_factor(params, X, jitter)  # must not raise
                assert accepted
            else:
                fallback += 1
                failed += not accepted
                assert calls == [m]
        assert certified >= 100 and fallback >= 50 and failed >= 10

    def test_load_of_a_fitted_gp_model_does_not_factorize(self, rng, tmp_path, monkeypatch):
        X = rng.uniform(-2, 2, size=(240, 2))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(size=240) * 0.1
        fresh = fit_segmented(Dataset(X, y, ("a", "b")),
                              FitConfig(leaf_size=60, leaf_method="gp", gp_max_iters=5))
        assert sum(isinstance(m, GPModel) for m in fresh.leaf_models.values()) >= 2
        path = str(tmp_path / "model.json")
        save_model(fresh, path)
        calls = count_factorizations(monkeypatch)
        load_model(path)
        assert calls == []

    def test_uncertified_document_loads_through_the_factorization(self, rng, tmp_path,
                                                                  monkeypatch):
        # A noise floor of 1e-12 is below the certificate's rounding budget,
        # yet K + noise I still factorizes: load falls back and succeeds.
        X = rng.uniform(-2, 2, size=(240, 2))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(size=240) * 0.1
        fresh = fit_segmented(Dataset(X, y, ("a", "b")),
                              FitConfig(leaf_size=60, leaf_method="gp", gp_max_iters=0,
                                        gp_init={"noise_variance": 1e-12}))
        gps = {sid: m for sid, m in fresh.leaf_models.items() if isinstance(m, GPModel)}
        assert len(gps) >= 2
        path = str(tmp_path / "model.json")
        save_model(fresh, path)
        calls = count_factorizations(monkeypatch)
        loaded = load_model(path)
        assert sorted(calls) == sorted(m.training_inputs.shape[0] for m in gps.values())
        queries = rng.uniform(-2.5, 2.5, size=(300, 2))
        for sid, model in gps.items():
            assert np.array_equal(gp_predict_mean_batch(model, queries),
                                  gp_predict_mean_batch(loaded.leaf_models[sid], queries))


class TestDegenerateEquivalence:
    def test_vanishing_rbf_matches_ridge_through_origin(self, rng):
        """With the RBF weight frozen at ~0 the posterior mean is ridge
        regression on centered data with penalty noise/linear variance."""
        n, d = 40, 3
        X = rng.normal(size=(n, d))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n) * 0.3
        yc = y - y.mean()
        lam = 0.5
        init = KernelParams(linear_variance=1.0, rbf_variance=1e-12,
                            rbf_lengthscale=1.0, noise_variance=lam)
        model = fit_gp(X, yc, init, max_iters=0)
        queries = rng.normal(size=(30, d))
        gp_mean = gp_predict_mean_batch(model, queries)
        w = np.linalg.solve(X.T @ X + lam * np.eye(d), X.T @ yc)
        ridge = queries @ w
        assert float(np.abs(gp_mean - ridge).max()) < 1e-3

import numpy as np
import pytest

from seqalign import core
from seqalign.core import (
    augment_affine,
    compute_q,
    fit_model,
)

from oracles import compute_q_dense, discriminative_cost, ridge_residual


def ridge_gradient_descent(psi, y, phi, lam, steps=200000, lr=None):
    """Independent iterative minimizer of the joint ridge objective."""
    I = phi.shape[1]
    target = psi @ y
    w = np.zeros((psi.shape[0], phi.shape[0]))
    gram = phi @ phi.T / I + lam * np.eye(phi.shape[0])
    if lr is None:
        lr = 0.9 / np.linalg.eigvalsh(gram).max()
    for _ in range(steps):
        grad = (w @ phi - target) @ phi.T / I + lam * w
        w_new = w - lr * grad
        if np.max(np.abs(w_new - w)) < 1e-14:
            return w_new
        w = w_new
    return w


class TestComputeQ:
    def test_zero_features_give_identity(self):
        q = compute_q(np.zeros((3, 4)), lam=1.0)
        np.testing.assert_allclose(q.q_matrix, np.eye(4))

    def test_hand_computed_two_columns(self):
        # D=1, I=2, lam chosen so I*lam = 1.
        q = compute_q(np.array([[1.0, 0.0]]), lam=0.5)
        np.testing.assert_allclose(q.q_matrix, [[0.5, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_large_lam_approaches_identity(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((3, 5))
        q = compute_q(phi, lam=1e12)
        assert np.max(np.abs(q.q_matrix - np.eye(5))) < 1e-6

    def test_both_paths_agree(self):
        rng = np.random.default_rng(1)
        for d in range(1, 7):
            for i in range(1, 9):
                phi = rng.standard_normal((d, i))
                direct = np.eye(i) - phi.T @ np.linalg.solve(
                    phi @ phi.T + i * 0.3 * np.eye(d), phi
                )
                q = compute_q(phi, lam=0.3)
                np.testing.assert_allclose(q.q_matrix, direct, rtol=1e-8, atol=1e-10)

    def test_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d, i = rng.integers(1, 7), rng.integers(1, 9)
            q = compute_q(rng.standard_normal((d, i)), lam=0.05)
            assert np.max(np.abs(q.q_matrix - q.q_matrix.T)) < 1e-10
            ev = np.linalg.eigvalsh(q.q_matrix)
            assert ev.min() > 0
            assert ev.max() <= 1 + 1e-10

    def test_constant_vector_near_kernel_with_ones_row(self):
        rng = np.random.default_rng(3)
        phi = augment_affine(rng.standard_normal((3, 6)))
        q = compute_q(phi, lam=1e-9)
        ones = np.ones(6)
        assert np.linalg.norm(q.q_matrix @ ones) <= 1e-6 * np.linalg.norm(ones)

    @pytest.mark.parametrize("d", [1, 9, 300])
    def test_bits_of_the_dense_formula(self, d):
        # Every tile layout: one partial tile, one full, one full plus a
        # column, and two full plus a partial; d = 300 puts D above every I.
        tile = core._SYMMETRIZE_TILE
        rng = np.random.default_rng(d)
        for i in (1, 2, tile - 1, tile, tile + 1, 2 * tile + 3):
            phi = rng.standard_normal((d, i)) * 10.0 ** rng.integers(-3, 4, size=(d, 1))
            for lam in (1e-6, 0.1, 5.0):
                q = compute_q(phi, lam).q_matrix
                assert np.array_equal(q, compute_q_dense(phi, lam)), (d, i, lam)
                assert np.array_equal(q, q.T)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_q(np.ones((2, 2)), lam=0.0)
        with pytest.raises(ValueError):
            compute_q(np.array([[np.nan, 1.0]]), lam=0.1)


class TestFitModel:
    def test_zero_psi_gives_zero_model(self):
        y = np.ones((2, 3)) / 2
        phi = np.ones((2, 3))
        w = fit_model(np.zeros((2, 2)), y, phi, compute_q(phi, lam=0.1))
        np.testing.assert_allclose(w, 0.0)

    def test_self_regression_recovers_identity(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((3, 3))
        # psi @ y == phi with tiny regularization: W tends to the identity.
        w = fit_model(phi, np.eye(3), phi, compute_q(phi, lam=1e-12))
        np.testing.assert_allclose(w, np.eye(3), atol=1e-4)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(5)
        psi = rng.standard_normal((2, 2))
        phi = rng.standard_normal((3, 4))
        y = rng.random((2, 4))
        w_closed = fit_model(psi, y, phi, compute_q(phi, lam=0.2))
        w_iter = ridge_gradient_descent(psi, y, phi, lam=0.2)
        np.testing.assert_allclose(w_closed, w_iter, atol=1e-6)

    def test_shape_mismatch(self):
        phi = np.ones((2, 4))
        with pytest.raises(ValueError):
            fit_model(np.ones((2, 2)), np.ones((3, 4)), phi, compute_q(phi, lam=0.1))
        # A kernel built for features of another dimension D.
        with pytest.raises(ValueError):
            fit_model(np.ones((2, 2)), np.ones((2, 4)), phi, compute_q(np.ones((3, 4)), lam=0.1))
        # A non-finite Y, of the right shape, is rejected too.
        y = np.ones((2, 4))
        y[1, 2] = np.nan
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            fit_model(np.ones((2, 2)), y, phi, compute_q(phi, lam=0.1))


class TestReducedCost:
    def test_zero_psi(self):
        kernel = compute_q(np.ones((2, 3)), lam=0.5)
        assert discriminative_cost(np.zeros((2, 2)), np.ones((2, 3)) / 2, kernel) == 0.0

    def test_identity_kernel_is_scaled_frobenius(self):
        rng = np.random.default_rng(6)
        kernel = compute_q(np.zeros((2, 4)), lam=1.0)  # Q = Id
        psi = rng.standard_normal((3, 2))
        y = rng.random((2, 4))
        expect = np.sum((psi @ y) ** 2) / 8.0
        assert discriminative_cost(psi, y, kernel) == pytest.approx(expect, rel=1e-12)

    def test_ridge_residual_trivial_cases(self):
        psi = np.zeros((2, 2))
        y = np.ones((2, 3)) / 2
        phi = np.ones((2, 3))
        assert ridge_residual(psi, y, phi, np.zeros((2, 2)), lam=0.1) == 0.0
        psi = np.ones((2, 2))
        expect = np.sum((psi @ y) ** 2) / 6.0
        assert ridge_residual(psi, y, phi, np.zeros((2, 2)), 0.1) == pytest.approx(expect)

    def test_reduced_cost_equals_residual_at_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d, i = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            e, j = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            lam = float(rng.uniform(0.01, 2.0))
            phi = rng.standard_normal((d, i))
            psi = rng.standard_normal((e, j))
            y = rng.random((j, i))
            kernel = compute_q(phi, lam)
            w = fit_model(psi, y, phi, kernel)
            direct = ridge_residual(psi, y, phi, w, lam)
            reduced = discriminative_cost(psi, y, kernel)
            assert reduced == pytest.approx(direct, rel=1e-8, abs=1e-12)
            assert reduced >= -1e-12

    def test_optimum_is_minimum_over_perturbations(self):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((2, 5))
        psi = rng.standard_normal((3, 2))
        y = rng.random((2, 5))
        w = fit_model(psi, y, phi, compute_q(phi, lam=0.3))
        best = ridge_residual(psi, y, phi, w, lam=0.3)
        for _ in range(50):
            other = w + 0.1 * rng.standard_normal(w.shape)
            assert ridge_residual(psi, y, phi, other, lam=0.3) >= best - 1e-12


def test_augment_affine_appends_ones_row():
    phi = np.arange(6.0).reshape(2, 3)
    out = augment_affine(phi)
    assert out.shape == (3, 3)
    np.testing.assert_array_equal(out[:2], phi)
    np.testing.assert_array_equal(out[2], 1.0)

import numpy as np
import pytest

from seqalign.polytope import AlignmentPath
from seqalign.rounding import round_feature, round_model, round_nearest

from oracles import (
    enumerate_paths,
    feature_criterion,
    model_criterion,
    nearest_criterion,
    path_to_matrix,
)


def random_hull_point(rng, i, j):
    vertices = enumerate_paths(i, j)
    w = rng.dirichlet(np.ones(len(vertices)))
    return sum(wi * path_to_matrix(p) for wi, p in zip(w, vertices))


def random_shapes(rng):
    i = int(rng.integers(2, 9))
    j = int(rng.integers(1, min(i, 4) + 1))
    return i, j


class TestRoundNearest:
    def test_vertex_is_fixed_point(self):
        rng = np.random.default_rng(0)
        for p in enumerate_paths(6, 3):
            out = round_nearest(path_to_matrix(p))
            np.testing.assert_array_equal(out.assignment, p.assignment)

    def test_midpoint_of_two_vertices(self):
        a = AlignmentPath(np.array([0, 0, 1]), j_count=2)
        b = AlignmentPath(np.array([0, 1, 1]), j_count=2)
        y_star = 0.5 * (path_to_matrix(a) + path_to_matrix(b))
        out = round_nearest(y_star)
        # Both are equidistant; the stay-preferring tie-break picks a.
        np.testing.assert_array_equal(out.assignment, a.assignment)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            i, j = random_shapes(rng)
            y_star = random_hull_point(rng, i, j)
            out = round_nearest(y_star)
            best = min(nearest_criterion(p, y_star) for p in enumerate_paths(i, j))
            assert nearest_criterion(out, y_star) == pytest.approx(best, abs=1e-10)


class TestRoundFeature:
    def test_orthonormal_features_match_nearest(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            i, j = random_shapes(rng)
            psi, _ = np.linalg.qr(rng.standard_normal((j + 2, j)))
            psi = psi[:, :j].T.T  # (j+2, j) with orthonormal columns
            y_star = random_hull_point(rng, i, j)
            out = round_feature(y_star, psi)
            best = min(nearest_criterion(p, y_star) for p in enumerate_paths(i, j))
            assert nearest_criterion(out, y_star) == pytest.approx(best, abs=1e-10)

    def test_zero_column_attracts_assignment(self):
        # Row with zero features has no diagonal cost; with Y* mass elsewhere
        # small it absorbs columns for free.
        psi = np.array([[0.0, 1.0], [0.0, 1.0]])
        y_star = np.zeros((2, 4))
        y_star[1, 3] = 1.0
        y_star[0, :3] = 1.0
        out = round_feature(y_star, psi)
        np.testing.assert_array_equal(out.assignment, [0, 0, 0, 1])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            i, j = random_shapes(rng)
            psi = rng.standard_normal((int(rng.integers(1, 5)), j))
            y_star = random_hull_point(rng, i, j)
            out = round_feature(y_star, psi)
            best = min(
                feature_criterion(p, y_star, psi) for p in enumerate_paths(i, j)
            )
            assert feature_criterion(out, y_star, psi) == pytest.approx(best, abs=1e-10)


class TestRoundModel:
    def test_exact_fit_recovers_path(self):
        rng = np.random.default_rng(4)
        p = AlignmentPath(np.array([0, 0, 1, 2, 2]), j_count=3)
        psi = rng.standard_normal((3, 3))
        phi = rng.standard_normal((5, 5))  # invertible: W phi == psi Y exactly
        target = psi @ path_to_matrix(p)
        w = target @ np.linalg.inv(phi)
        out = round_model(w, psi, phi)
        np.testing.assert_array_equal(out.assignment, p.assignment)
        assert model_criterion(out, w, psi, phi) == pytest.approx(0.0, abs=1e-12)

    def test_zero_model_equal_norms_dwells_on_first_row(self):
        psi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        phi = np.ones((2, 6))
        out = round_model(np.zeros((3, 2)), psi, phi)
        np.testing.assert_array_equal(out.assignment, [0, 0, 0, 0, 1, 2])

    def test_ignores_relaxed_assignment(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((2, 3))
        psi = rng.standard_normal((2, 3))
        phi = rng.standard_normal((3, 6))
        out = round_model(w, psi, phi)
        # No Y* argument exists; determinism doubles as the check.
        out2 = round_model(w, psi, phi)
        np.testing.assert_array_equal(out.assignment, out2.assignment)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            i, j = random_shapes(rng)
            e, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            psi = rng.standard_normal((e, j))
            phi = rng.standard_normal((d, i))
            w = rng.standard_normal((e, d))
            out = round_model(w, psi, phi)
            best = min(model_criterion(p, w, psi, phi) for p in enumerate_paths(i, j))
            assert model_criterion(out, w, psi, phi) == pytest.approx(best, abs=1e-10)


def test_roundings_respect_masks():
    rng = np.random.default_rng(7)
    mask = np.zeros((3, 6), dtype=bool)
    mask[0, 2:] = True  # row 0 only allowed on the first two columns
    y_star = random_hull_point(rng, 6, 3)
    psi = rng.standard_normal((2, 3))
    phi = rng.standard_normal((2, 6))
    w = rng.standard_normal((2, 2))
    for path in (
        round_nearest(y_star, mask),
        round_feature(y_star, psi, mask),
        round_model(w, psi, phi, mask),
    ):
        assert not mask[path.assignment, np.arange(6)].any()

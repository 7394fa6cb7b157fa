from collections import Counter

import numpy as np
import pytest

from seqalign.evaluation import diagonal_path, jaccard_score, random_path
from seqalign.polytope import AlignmentPath
from seqalign.supervision import Annotation

from oracles import enumerate_paths, path_count


class TestJaccardScore:
    def test_exact_match_scores_one(self):
        pred = AlignmentPath(np.array([0, 0, 1, 1]), j_count=2)
        gt = Annotation(((0, 0, 2), (1, 2, 4)))
        assert jaccard_score(pred, gt) == 1.0

    def test_half_overlap(self):
        # Row 0 predicted on columns {0,1,2,3}; truth only covers {0,1}.
        pred = AlignmentPath(np.array([0, 0, 0, 0, 1]), j_count=2)
        gt = Annotation(((0, 0, 2), (1, 4, 5)))
        assert jaccard_score(pred, gt) == pytest.approx(0.75)  # (0.5 + 1) / 2

    def test_disjoint_prediction_scores_zero(self):
        pred = AlignmentPath(np.array([0, 1, 2, 2]), j_count=3)
        gt = Annotation(((1, 3, 4),))
        # pred row 1 = {1}; truth = {3}: empty intersection.
        assert jaccard_score(pred, gt) == 0.0

    def test_background_rows_excluded(self):
        pred = AlignmentPath(np.array([0, 1, 1, 2]), j_count=3)
        gt = Annotation(((0, 0, 1), (1, 1, 3)))
        # Row 0 is background: only row 1 is scored; pred row 1 = {1,2} sub gt.
        assert jaccard_score(pred, gt, background_set={0}) == 1.0

    def test_no_scorable_rows_raises(self):
        pred = AlignmentPath(np.array([0, 1]), j_count=2)
        with pytest.raises(ValueError):
            jaccard_score(pred, Annotation(((0, 0, 1),)), background_set={0})

    def test_two_of_four_predicted_columns_correct(self):
        pred = AlignmentPath(np.array([0, 1, 1, 1, 1, 2]), j_count=3)
        gt = Annotation(((1, 3, 7),))
        # pred row 1 = {1,2,3,4}; truth = {3,4,5,6}; 2 of 4 hit.
        assert jaccard_score(pred, gt) == pytest.approx(0.5)


class TestDiagonalPath:
    def test_even_split(self):
        p = diagonal_path(6, 3)
        np.testing.assert_array_equal(p.durations(), [2, 2, 2])

    def test_uneven_split(self):
        p = diagonal_path(7, 3)
        np.testing.assert_array_equal(p.assignment, [0, 0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(p.durations(), [3, 2, 2])

    def test_square_is_identity(self):
        np.testing.assert_array_equal(diagonal_path(4, 4).assignment, np.arange(4))

    def test_single_row(self):
        np.testing.assert_array_equal(diagonal_path(5, 1).assignment, 0)

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError):
            diagonal_path(2, 3)


class TestRandomPath:
    def test_valid_path_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            i = int(rng.integers(1, 10))
            j = int(rng.integers(1, i + 1))
            p = random_path(i, j, rng)
            assert p.assignment[0] == 0 and p.assignment[-1] == j - 1

    def test_seed_determinism(self):
        a = random_path(8, 3, 42)
        b = random_path(8, 3, 42)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_uniform_over_vertices(self):
        i, j = 4, 2
        n_vertices = path_count(i, j)
        assert n_vertices == 3
        rng = np.random.default_rng(1)
        counts = Counter(
            tuple(random_path(i, j, rng).assignment) for _ in range(30000)
        )
        assert len(counts) == n_vertices
        for c in counts.values():
            assert abs(c / 30000 - 1 / 3) < 0.01

    def test_support_covers_every_vertex(self):
        rng = np.random.default_rng(2)
        seen = {tuple(random_path(6, 3, rng).assignment) for _ in range(3000)}
        expect = {tuple(p.assignment) for p in enumerate_paths(6, 3)}
        assert seen == expect

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError):
            random_path(2, 3, 0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqalign._kernels import _dp_align_numpy, dp_align
from seqalign.polytope import (
    AlignmentPath,
    CellMask,
    InfeasibleError,
    StreamLayout,
    band_indicator,
    blocks_to_matrix,
    lmo_blocks,
    minimize_linear,
)
from seqalign.supervision import fix_assignment_mask

from oracles import enumerate_paths, matrix_to_path, path_count, path_to_matrix


def path_cost(path, cost):
    return float(cost[path.assignment, np.arange(path.i_count)].sum())


def random_feasible_mask(rng, j_count, i_count, p=0.3):
    """Random mask that keeps at least one enumerated path feasible."""
    while True:
        forbidden = rng.random((j_count, i_count)) < p
        mask = CellMask(forbidden)
        if enumerate_paths(i_count, j_count, mask):
            return mask


class TestAlignmentPath:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AlignmentPath(np.array([1, 1, 2]), j_count=3)  # does not start at 0
        with pytest.raises(ValueError):
            AlignmentPath(np.array([0, 0, 1]), j_count=3)  # does not end at J-1
        with pytest.raises(ValueError):
            AlignmentPath(np.array([0, 2, 2]), j_count=3)  # step of 2

    def test_durations(self):
        p = AlignmentPath(np.array([0, 0, 1, 2, 2]), j_count=3)
        np.testing.assert_array_equal(p.durations(), [2, 1, 2])


class TestPathToMatrix:
    def test_identity(self):
        p = AlignmentPath(np.array([0, 1, 2]), j_count=3)
        np.testing.assert_array_equal(path_to_matrix(p), np.eye(3))

    def test_single_row(self):
        p = AlignmentPath(np.array([0, 0, 0]), j_count=1)
        np.testing.assert_array_equal(path_to_matrix(p), np.ones((1, 3)))

    def test_two_rows(self):
        p = AlignmentPath(np.array([0, 0, 1]), j_count=2)
        np.testing.assert_array_equal(path_to_matrix(p), [[1, 1, 0], [0, 0, 1]])

    def test_roundtrip_with_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            i = int(rng.integers(1, 9))
            j = int(rng.integers(1, min(i, 4) + 1))
            for p in enumerate_paths(i, j):
                q = matrix_to_path(path_to_matrix(p))
                np.testing.assert_array_equal(p.assignment, q.assignment)


class TestMinimizeLinear:
    def test_hand_worked_example(self):
        cost = np.array([[0.0, 0.0, 5.0], [9.0, 1.0, 0.0]])
        path, value = minimize_linear(cost)
        np.testing.assert_array_equal(path.assignment, [0, 0, 1])
        assert value == 0.0

    def test_square_case_is_trace(self):
        rng = np.random.default_rng(1)
        cost = rng.standard_normal((4, 4))
        path, value = minimize_linear(cost)
        np.testing.assert_array_equal(path.assignment, np.arange(4))
        assert value == pytest.approx(np.trace(cost))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            i = int(rng.integers(1, 9))
            j = int(rng.integers(1, min(i, 4) + 1))
            cost = rng.standard_normal((j, i))
            path, value = minimize_linear(cost)
            best = min(path_cost(p, cost) for p in enumerate_paths(i, j))
            assert value == pytest.approx(best, abs=1e-12)
            assert path_cost(path, cost) == pytest.approx(value, abs=1e-12)

    def test_matches_enumeration_with_masks(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            i = int(rng.integers(2, 9))
            j = int(rng.integers(1, min(i, 4) + 1))
            mask = random_feasible_mask(rng, j, i)
            cost = rng.standard_normal((j, i))
            path, value = minimize_linear(cost, mask)
            best = min(path_cost(p, cost) for p in enumerate_paths(i, j, mask))
            assert value == pytest.approx(best, abs=1e-12)
            assert not mask.forbidden[path.assignment, np.arange(i)].any()

    def test_tie_break_prefers_staying(self):
        path, _ = minimize_linear(np.zeros((3, 6)))
        # All paths tie; the stay-preferring walk dwells maximally on row 0.
        np.testing.assert_array_equal(path.assignment, [0, 0, 0, 0, 1, 2])

    def test_infeasible_cases(self):
        with pytest.raises(InfeasibleError):
            minimize_linear(np.zeros((3, 2)))
        mask = CellMask(np.ones((2, 3), dtype=bool))
        with pytest.raises(InfeasibleError):
            minimize_linear(np.zeros((2, 3)), mask)

    def test_rejects_non_finite_cost(self):
        cost = np.zeros((2, 3))
        cost[0, 0] = np.nan
        with pytest.raises(ValueError):
            minimize_linear(cost)

    def test_value_lower_bounds_convex_combinations(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            i, j = 7, 3
            cost = rng.standard_normal((j, i))
            _, value = minimize_linear(cost)
            vertices = enumerate_paths(i, j)
            weights = rng.dirichlet(np.ones(len(vertices)))
            mix = sum(w * path_to_matrix(p) for w, p in zip(weights, vertices))
            assert value <= np.sum(cost * mix) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_enumeration_agreement(self, data):
        i = data.draw(st.integers(1, 8))
        j = data.draw(st.integers(1, min(i, 4)))
        cost = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(-100, 100, allow_nan=False), min_size=i, max_size=i
                    ),
                    min_size=j,
                    max_size=j,
                )
            )
        )
        path, value = minimize_linear(cost)
        assert path.assignment[0] == 0 and path.assignment[-1] == j - 1
        best = min(path_cost(p, cost) for p in enumerate_paths(i, j))
        assert value == pytest.approx(best, abs=1e-9)


class TestEnumeratePaths:
    def test_counts(self):
        assert len(enumerate_paths(4, 2)) == 3
        assert len(enumerate_paths(5, 5)) == 1
        assert len(enumerate_paths(6, 1)) == 1
        for i in range(1, 9):
            for j in range(1, min(i, 4) + 1):
                assert len(enumerate_paths(i, j)) == path_count(i, j)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_paths(15, 3)
        with pytest.raises(ValueError):
            enumerate_paths(10, 8)


class TestBandIndicator:
    def test_full_band_is_zero(self):
        np.testing.assert_array_equal(band_indicator(3, 5, beta=1.0), 0.0)

    def test_zero_width_square_keeps_diagonal(self):
        np.testing.assert_array_equal(band_indicator(4, 4, beta=0.0), 1.0 - np.eye(4))

    def test_rule_evaluation(self):
        band = band_indicator(2, 4, beta=0.25)
        j = np.arange(2)[:, None] / 2
        i = np.arange(4)[None, :] / 4
        np.testing.assert_array_equal(band, (np.abs(j - i) > 0.25).astype(float))

    def test_beta_range(self):
        with pytest.raises(ValueError):
            band_indicator(2, 4, beta=1.5)


class TestLmoBlocks:
    def test_single_stream_equals_minimize_linear(self):
        rng = np.random.default_rng(5)
        cost = rng.standard_normal((3, 6))
        layout = StreamLayout(i_sizes=[6], j_sizes=[3])
        paths, value = lmo_blocks(cost, layout)
        ref_path, ref_value = minimize_linear(cost)
        np.testing.assert_array_equal(paths[0].assignment, ref_path.assignment)
        assert value == ref_value

    def test_two_identical_blocks(self):
        block = np.array([[0.0, 0.0, 5.0], [9.0, 1.0, 0.0]])
        layout = StreamLayout(i_sizes=[3, 3], j_sizes=[2, 2])
        cost = np.full((4, 6), 100.0)
        layout.block(cost, 0)[:, :] = block
        layout.block(cost, 1)[:, :] = block
        paths, value = lmo_blocks(cost, layout)
        for p in paths:
            np.testing.assert_array_equal(p.assignment, [0, 0, 1])
        assert value == 0.0

    def test_off_block_entries_ignored(self):
        rng = np.random.default_rng(6)
        layout = StreamLayout(i_sizes=[4, 5], j_sizes=[2, 3])
        cost = rng.standard_normal((5, 9))
        paths, value = lmo_blocks(cost, layout)
        noisy = cost.copy()
        # Perturb everything outside the diagonal blocks.
        blocks = np.zeros_like(cost, dtype=bool)
        layout.block(blocks, 0)[:, :] = True
        layout.block(blocks, 1)[:, :] = True
        noisy[~blocks] += rng.standard_normal((~blocks).sum()) * 100
        paths2, value2 = lmo_blocks(noisy, layout)
        for p, q in zip(paths, paths2):
            np.testing.assert_array_equal(p.assignment, q.assignment)
        assert value == value2

    def test_fixed_block_is_pinned(self):
        layout = StreamLayout(i_sizes=[3, 3], j_sizes=[2, 2])
        pinned = AlignmentPath(np.array([0, 1, 1]), j_count=2)
        cost = np.zeros((4, 6))
        paths, _ = lmo_blocks(cost, layout, [fix_assignment_mask(pinned), None])
        np.testing.assert_array_equal(paths[0].assignment, pinned.assignment)

    def test_blocks_to_matrix_support(self):
        layout = StreamLayout(i_sizes=[3, 4], j_sizes=[2, 2])
        paths = [
            AlignmentPath(np.array([0, 0, 1]), j_count=2),
            AlignmentPath(np.array([0, 1, 1, 1]), j_count=2),
        ]
        y = blocks_to_matrix(paths, layout)
        assert y.shape == (4, 7)
        np.testing.assert_array_equal(y.sum(axis=0), 1.0)
        assert y[:2, 3:].sum() == 0 and y[2:, :3].sum() == 0


class TestKernelBackends:
    def test_numba_and_numpy_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            i = int(rng.integers(1, 30))
            j = int(rng.integers(1, min(i, 12) + 1))
            cost = rng.standard_normal((j, i))
            cost[rng.random((j, i)) < 0.2] = np.inf
            v1, p1 = dp_align(np.ascontiguousarray(cost))
            v2, p2 = _dp_align_numpy(cost)
            if np.isfinite(v1) or np.isfinite(v2):
                assert v1 == pytest.approx(v2, abs=1e-12)
                np.testing.assert_array_equal(p1, p2)

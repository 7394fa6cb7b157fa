import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqalign import polytope
from seqalign.polytope import (
    AlignmentPath,
    InfeasibleError,
    StreamLayout,
    band_indicator,
    blocks_to_matrix,
    dp_align,
    lmo_blocks,
    minimize_linear,
)
from seqalign.supervision import fix_assignment_mask

from oracles import (
    diagonal_blocks,
    enumerate_paths,
    lmo_blocks_single,
    matrix_to_path,
    path_count,
    path_to_matrix,
)


def path_cost(path, cost):
    return float(cost[path.assignment, np.arange(path.i_count)].sum())


def random_feasible_mask(rng, j_count, i_count, p=0.3):
    """Random mask that keeps at least one enumerated path feasible."""
    while True:
        mask = rng.random((j_count, i_count)) < p
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
            assert not mask[path.assignment, np.arange(i)].any()

    def test_integer_mask_acts_as_its_boolean_form(self):
        # A 0/1 int64 array used as an index would pick rows 0 and 1, not the marked cells.
        rng = np.random.default_rng(5)
        for _ in range(50):
            i = int(rng.integers(2, 9))
            j = int(rng.integers(1, min(i, 4) + 1))
            mask = random_feasible_mask(rng, j, i)
            cost = rng.standard_normal((j, i))
            path, value = minimize_linear(cost, mask)
            path_int, value_int = minimize_linear(cost, mask.astype(np.int64))
            np.testing.assert_array_equal(path_int.assignment, path.assignment)
            assert value_int == value

    def test_tie_break_prefers_staying(self):
        path, _ = minimize_linear(np.zeros((3, 6)))
        # All paths tie; the stay-preferring walk dwells maximally on row 0.
        np.testing.assert_array_equal(path.assignment, [0, 0, 0, 0, 1, 2])

    def test_infeasible_cases(self):
        with pytest.raises(InfeasibleError):
            minimize_linear(np.zeros((3, 2)))
        mask = np.ones((2, 3), dtype=bool)
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
        rows, values = lmo_blocks(diagonal_blocks(cost, layout))
        ref_path, ref_value = minimize_linear(cost)
        np.testing.assert_array_equal(rows[0], ref_path.assignment)
        assert values.tolist() == [ref_value]

    def test_two_identical_blocks(self):
        block = np.array([[0.0, 0.0, 5.0], [9.0, 1.0, 0.0]])
        layout = StreamLayout(i_sizes=[3, 3], j_sizes=[2, 2])
        cost = np.full((4, 6), 100.0)
        layout.block(cost, 0)[:, :] = block
        layout.block(cost, 1)[:, :] = block
        rows, values = lmo_blocks(diagonal_blocks(cost, layout))
        for a in rows:
            np.testing.assert_array_equal(a, [0, 0, 1])
        assert values.tolist() == [0.0, 0.0]

    def test_off_block_entries_ignored(self):
        rng = np.random.default_rng(6)
        layout = StreamLayout(i_sizes=[4, 5], j_sizes=[2, 3])
        cost = rng.standard_normal((5, 9))
        rows, values = lmo_blocks(diagonal_blocks(cost, layout))
        noisy = cost.copy()
        # Perturb everything outside the diagonal blocks.
        blocks = np.zeros_like(cost, dtype=bool)
        layout.block(blocks, 0)[:, :] = True
        layout.block(blocks, 1)[:, :] = True
        noisy[~blocks] += rng.standard_normal((~blocks).sum()) * 100
        rows2, values2 = lmo_blocks(diagonal_blocks(noisy, layout))
        for a, b in zip(rows, rows2):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(values, values2)

    def test_fixed_block_is_pinned(self):
        layout = StreamLayout(i_sizes=[3, 3], j_sizes=[2, 2])
        pinned = AlignmentPath(np.array([0, 1, 1]), j_count=2)
        cost = np.zeros((4, 6))
        rows, _ = lmo_blocks(diagonal_blocks(cost, layout), [fix_assignment_mask(pinned), None])
        np.testing.assert_array_equal(rows[0], pinned.assignment)

    def test_mask_of_another_shape_rejected(self):
        blocks = [np.zeros((2, 4)), np.zeros((2, 4))]
        masks = [None, np.zeros((2, 3), dtype=bool)]
        with pytest.raises(ValueError, match="mask shape does not match cost shape"):
            lmo_blocks(blocks, masks)

    def test_blocks_to_matrix_support(self):
        layout = StreamLayout(i_sizes=[3, 4], j_sizes=[2, 2])
        y = blocks_to_matrix([np.array([0, 0, 1]), np.array([0, 1, 1, 1])], layout)
        assert y.shape == (4, 7)
        np.testing.assert_array_equal(y.sum(axis=0), 1.0)
        assert y[:2, 3:].sum() == 0 and y[2:, :3].sum() == 0


def random_layout_case(rng, n_streams, max_i=30, integer=False, p_forbid=0.0):
    """A random multi-stream cost matrix, layout and per-stream masks (None or random)."""
    i_sizes, j_sizes = [], []
    for _ in range(n_streams):
        kind = rng.integers(4)
        i = 1 if kind == 0 else int(rng.integers(1, max_i + 1))
        j = {0: 1, 1: i, 2: 1}.get(int(kind), int(rng.integers(1, i + 1)))
        i_sizes.append(i)
        j_sizes.append(j)
    layout = StreamLayout(i_sizes=i_sizes, j_sizes=j_sizes)
    shape = (layout.j_total, layout.i_total)
    if integer:
        cost = rng.integers(-2, 3, size=shape).astype(float)
    else:
        cost = rng.standard_normal(shape)
    masks = [
        rng.random((j, i)) < p_forbid if p_forbid and rng.random() < 0.7 else None
        for i, j in zip(i_sizes, j_sizes)
    ]
    return cost, layout, masks


class TestLmoBlocksSweep:
    """The one sweep per stream width against the per-stream DP in oracles.py."""

    def assert_matches_single(self, cost, layout, masks):
        ref = lmo_blocks_single(cost, layout, masks)
        blocks = diagonal_blocks(cost, layout)
        rows, values = lmo_blocks(blocks, masks)
        assert len(rows) == len(ref) and values.dtype == np.float64
        assert values.shape == (len(ref),)
        for n, (a, (q, v)) in enumerate(zip(rows, ref, strict=True)):
            assert a.dtype == np.int64
            np.testing.assert_array_equal(a, q.assignment)
            assert values[n] == v
            # Each row array is a path of its block's height, and the path
            # minimize_linear finds on that block alone.
            AlignmentPath(a, j_count=q.j_count)
            path, _ = minimize_linear(blocks[n], None if masks is None else masks[n])
            np.testing.assert_array_equal(a, path.assignment)

    def test_matches_single_stream_dp(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            cost, layout, _ = random_layout_case(rng, int(rng.integers(1, 7)))
            self.assert_matches_single(cost, layout, None)

    def test_matches_single_stream_dp_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            cost, layout, _ = random_layout_case(rng, int(rng.integers(1, 7)), integer=True)
            self.assert_matches_single(cost, layout, None)

    def test_matches_single_stream_dp_with_forbidden_cells(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 300:
            cost, layout, masks = random_layout_case(
                rng, int(rng.integers(1, 6)), max_i=12, integer=bool(rng.integers(2)),
                p_forbid=0.25,
            )
            try:
                lmo_blocks_single(cost, layout, masks)
            except InfeasibleError as e:
                with pytest.raises(InfeasibleError, match=str(e)):
                    lmo_blocks(diagonal_blocks(cost, layout), masks)
                continue
            self.assert_matches_single(cost, layout, masks)
            checked += 1

    def test_hard_pinned_streams(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            cost, layout, _ = random_layout_case(rng, int(rng.integers(2, 6)), max_i=7)
            masks, pinned = [], []
            for i, j in zip(layout.i_sizes, layout.j_sizes):
                paths = enumerate_paths(i, j)
                p = paths[int(rng.integers(len(paths)))]
                pin = rng.random() < 0.5
                pinned.append(p if pin else None)
                masks.append(fix_assignment_mask(p) if pin else None)
            self.assert_matches_single(cost, layout, masks)
            rows, _ = lmo_blocks(diagonal_blocks(cost, layout), masks)
            for a, q in zip(rows, pinned):
                if q is not None:
                    np.testing.assert_array_equal(a, q.assignment)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            cost, layout, masks = random_layout_case(rng, int(rng.integers(1, 5)), max_i=7,
                                                     p_forbid=0.2)
            masks = [m if m is None or enumerate_paths(i, j, m) else None
                     for m, i, j in zip(masks, layout.i_sizes, layout.j_sizes)]
            rows, values = lmo_blocks(diagonal_blocks(cost, layout), masks)
            for n, a in enumerate(rows):
                block = layout.block(cost, n)
                p = AlignmentPath(a, j_count=layout.j_sizes[n])
                best = min(path_cost(q, block)
                           for q in enumerate_paths(p.i_count, p.j_count, masks[n]))
                assert path_cost(p, block) == pytest.approx(best, abs=1e-12)
                assert values[n] == pytest.approx(best, abs=1e-12)

    def test_one_sweep_per_width(self, monkeypatch):
        # Streams of one width share a lattice of their own rows plus one
        # separator each; no stream is padded to another's width.
        shapes = []

        def counting(lattice, starts):
            shapes.append(lattice.shape)
            return dp_align(lattice, starts)

        layout = StreamLayout(i_sizes=[5, 3, 5, 5, 3], j_sizes=[2, 3, 5, 1, 1])
        cost = np.random.default_rng(17).standard_normal((layout.j_total, layout.i_total))
        self.assert_matches_single(cost, layout, None)
        monkeypatch.setattr(polytope, "dp_align", counting)
        lmo_blocks(diagonal_blocks(cost, layout))
        assert shapes == [(11, 5), (6, 3)]

    def test_infeasible_stream_raises_todays_messages(self):
        layout = StreamLayout(i_sizes=[4, 2], j_sizes=[2, 3])
        with pytest.raises(InfeasibleError, match=r"^no monotone path exists for J=3 > I=2$"):
            lmo_blocks(diagonal_blocks(np.zeros((5, 6)), layout))
        layout = StreamLayout(i_sizes=[4, 3], j_sizes=[2, 2])
        closed = np.ones((2, 3), dtype=bool)
        with pytest.raises(InfeasibleError, match=r"^mask forbids every monotone path$"):
            lmo_blocks(diagonal_blocks(np.zeros((4, 7)), layout), [None, closed])
        # Only the last column of the last row is open: no path reaches it from row 0.
        edge = np.ones((2, 3), dtype=bool)
        edge[1, 2] = False
        with pytest.raises(InfeasibleError, match=r"^mask forbids every monotone path$"):
            lmo_blocks(diagonal_blocks(np.zeros((4, 7)), layout), [None, edge])

    def test_rejects_non_finite_block(self):
        layout = StreamLayout(i_sizes=[3, 3], j_sizes=[2, 2])
        cost = np.zeros((4, 6))
        cost[3, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            lmo_blocks(diagonal_blocks(cost, layout))
        cost = np.zeros((4, 6))
        cost[3, 0] = np.nan  # off-block: never read
        lmo_blocks(diagonal_blocks(cost, layout))

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from seqalign import pipeline
from seqalign.core import CostKernel, fit_model
from seqalign.data import Hyperparameters
from seqalign.polytope import AlignmentPath, band_indicator, blocks_to_matrix, lmo_blocks
from seqalign.solver import (
    _ActiveSet,
    _face_direction,
    _initial_paths,
    _minimize_on_simplices,
    _sum_zero_basis,
    exact_line_search,
    gradient,
    objective,
    solve,
)
from seqalign.supervision import Annotation, Stream, assemble

from conftest import make_instance, make_stream
from oracles import (
    band_penalty,
    discriminative_cost,
    duration_penalty,
    enumerate_paths,
    face_direction_scipy,
    gradient_dense,
    gradient_per_stream,
    gram_per_vertex,
    iterate_dense,
    objective_dense,
    path_to_matrix,
    reference_certificate,
    ridge_residual,
    sum_zero_basis,
)


def random_hull_point(rng, instance):
    """Convex combination of enumerated vertices of a single-stream instance."""
    layout = instance.layout
    vertices = enumerate_paths(layout.i_sizes[0], layout.j_sizes[0])
    w = rng.dirichlet(np.ones(len(vertices)))
    return sum(wi * path_to_matrix(p) for wi, p in zip(w, vertices))


def finite_difference(f, y, h=1e-5):
    g = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        up, down = y.copy(), y.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (f(up) - f(down)) / (2 * h)
    return g


class TestObjective:
    def test_additivity_of_components(self):
        rng = np.random.default_rng(0)
        inst = make_instance(rng, i_count=6, n_sentences=2)
        y = random_hull_point(rng, inst)
        total = objective(inst, y)
        parts = (
            discriminative_cost(inst.psi, y, inst.kernel)
            + duration_penalty(y, inst.mu, inst.sigma)
            + band_penalty(y, inst.band[0], inst.alpha)
        )
        assert total == pytest.approx(parts, abs=1e-12)

    def test_vertex_value_equals_residual_plus_priors(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam = 0.1
            inst = make_instance(rng, i_count=6, n_sentences=1, lam=lam)
            vertex = enumerate_paths(6, 3)[int(rng.integers(0, 10))]
            y = path_to_matrix(vertex)
            w = fit_model(inst.psi, y, inst.phi, inst.kernel)
            expect = (
                ridge_residual(inst.psi, y, inst.phi, w, lam)
                + duration_penalty(y, inst.mu, inst.sigma)
                + inst.alpha * np.sum(inst.band[0] * y)
            )
            assert objective(inst, y) == pytest.approx(expect, rel=1e-8)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            inst = make_instance(
                rng,
                i_count=int(rng.integers(3, 7)),
                n_sentences=int(rng.integers(1, 3)),
                sigma=float(rng.uniform(0.5, 3.0)),
                alpha=float(rng.uniform(0.05, 0.5)),
                beta=float(rng.uniform(0.0, 0.4)),
            )
            y = rng.random((inst.layout.j_total, inst.layout.i_total))
            (g,) = gradient(inst, y)  # one stream: its block is the whole gradient
            fd = finite_difference(lambda m: objective_dense(inst, m), y)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(g - fd)) / scale <= 1e-5

    def test_zero_at_stationary_configuration(self):
        rng = np.random.default_rng(3)
        inst = make_instance(rng, i_count=4, n_sentences=1, alpha=0.0, beta=1.0)
        # psi = 0 kills the data term; row sums matching mu kill the rest.
        inst = replace(inst, psi=np.zeros_like(inst.psi))
        mu = inst.mu
        y = np.tile((mu / inst.layout.i_total)[:, None], (1, inst.layout.i_total))
        np.testing.assert_allclose(gradient(inst, y)[0], 0.0, atol=1e-12)

    def test_pure_band_term(self):
        rng = np.random.default_rng(4)
        inst = make_instance(rng, i_count=5, n_sentences=1, sigma=1e9, alpha=0.4)
        inst = replace(inst, psi=np.zeros_like(inst.psi))
        y = rng.random((inst.layout.j_total, inst.layout.i_total))
        np.testing.assert_allclose(gradient(inst, y)[0], 0.4 * inst.band[0], atol=1e-17)


def random_path(rng, i_count, j_count):
    steps = np.sort(rng.choice(np.arange(1, i_count), size=j_count - 1, replace=False))
    return AlignmentPath(np.searchsorted(steps, np.arange(i_count), side="right"), j_count)


def annotated_stream(rng, sid, i_count, j_count):
    """A stream of random features, each row annotated with its columns on a random path."""
    rows = random_path(rng, i_count, j_count).assignment
    starts = np.searchsorted(rows, np.arange(j_count))
    ends = np.searchsorted(rows, np.arange(j_count), side="right")
    return Stream(
        id=sid,
        phi=rng.standard_normal((3, i_count)),
        psi=rng.standard_normal((4, j_count)),
        annotation=Annotation(tuple(zip(range(j_count), starts, ends))),
        supervised=bool(rng.integers(2)),
    )


@st.composite
def random_suites(draw):
    """Streams of random (I_n, J_n) shapes, annotated on every row, and their settings.

    A shape now and then repeats an earlier one, so runs of equal shapes
    form, and some are split by another shape.
    """
    shapes = []
    for _ in range(draw(st.integers(1, 6))):
        if shapes and draw(st.integers(0, 2)) == 0:
            shapes.append(draw(st.sampled_from(shapes)))
        else:
            j = draw(st.integers(1, 5))
            shapes.append((draw(st.integers(j, 15)), j))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    streams = []
    for n, (i, j) in enumerate(shapes):
        stream = annotated_stream(rng, f"s{n}", i, j)
        # Background rows, which soft supervision leaves free; at least one sentence row.
        background = frozenset(np.flatnonzero(rng.random(j) < 0.3)[: j - 1].tolist())
        stream.psi[:, sorted(background)] = 0.0
        streams.append(replace(stream, background=background))
    hp = Hyperparameters(
        supervision=draw(st.sampled_from(["none", "soft", "hard"])),
        sigma=draw(st.floats(0.5, 20)),
        alpha=draw(st.floats(0, 1)),
        beta=draw(st.floats(0, 1)),
    )
    return streams, hp


class TestGradientBlocks:
    # (I_n, J_n) of the streams: all unequal, with I_n = 1, J_n = 1 and J_n = I_n among them.
    SHAPES = [(1, 1), (9, 1), (7, 7), (23, 5), (4, 3), (16, 2), (30, 11)]

    @pytest.mark.parametrize("supervision", ["none", "soft", "hard"])
    def test_blocks_of_the_dense_formula(self, supervision):
        rng = np.random.default_rng(["none", "soft", "hard"].index(supervision))
        for _ in range(8):
            order = rng.permutation(len(self.SHAPES))[: int(rng.integers(1, len(self.SHAPES) + 1))]
            streams = [annotated_stream(rng, f"s{k}", *self.SHAPES[k]) for k in order]
            hp = Hyperparameters(
                supervision=supervision, mu_background=None, kappa=float(rng.uniform(0.5, 3.0)),
                sigma=float(rng.uniform(0.5, 3.0)), alpha=float(rng.uniform(0.0, 0.5)),
                beta=float(rng.uniform(0.0, 0.4)), lam=float(rng.uniform(0.01, 1.0)),
            )
            inst = assemble(streams, hp)
            layout = inst.layout
            for n, y_c in enumerate(inst.band):
                assert np.array_equal(
                    y_c, band_indicator(layout.j_sizes[n], layout.i_sizes[n], hp.beta)
                )
            vertices = [
                blocks_to_matrix(
                    [random_path(rng, i, j).assignment
                     for i, j in zip(layout.i_sizes, layout.j_sizes)],
                    layout,
                )
                for _ in range(3)
            ]
            hull = sum(w * v for w, v in zip(rng.dirichlet(np.ones(3)), vertices))
            for y in (hull, rng.standard_normal((layout.j_total, layout.i_total))):
                blocks, dense = gradient(inst, y), gradient_dense(inst, y)
                assert len(blocks) == layout.n_streams
                # x = (psi Y) Q comes from the Gram factor, not the dense Q:
                # equal up to round-off.
                for n, g in enumerate(blocks):
                    ref = layout.block(dense, n)
                    assert np.abs(g - ref).max() <= 4e-15 * np.abs(ref).max()


class TestLineSearch:
    def test_non_descent_direction_gives_zero(self):
        rng = np.random.default_rng(5)
        inst = make_instance(rng, i_count=5, n_sentences=1)
        y = random_hull_point(rng, inst)
        (g,) = gradient(inst, y)
        d = np.sign(g)  # ascent direction: <g, d> >= 0
        assert exact_line_search(inst, y, d) == 0.0

    def test_matches_scalar_quadratic_minimizer(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = make_instance(rng, i_count=6, n_sentences=1)
            y = random_hull_point(rng, inst)
            v = path_to_matrix(enumerate_paths(6, 3)[int(rng.integers(0, 10))])
            d = v - y
            # Analytic minimizer of the 1-d restriction g(t) = f(y + t d).
            f0 = objective_dense(inst, y)
            f1 = objective_dense(inst, y + d)
            fh = objective_dense(inst, y + 0.5 * d)
            a = 4 * (f1 - 2 * fh + f0)  # curvature
            b = f1 - f0 - a / 2  # slope at 0
            expect = 1.0 if a <= 1e-14 else float(np.clip(-b / a, 0.0, 1.0))
            if a <= 1e-14 and b >= 0:
                expect = 0.0
            assert exact_line_search(inst, y, d) == pytest.approx(expect, abs=1e-10)

    def test_beats_grid_sampling(self):
        rng = np.random.default_rng(7)
        inst = make_instance(rng, i_count=7, n_sentences=1)
        y = random_hull_point(rng, inst)
        v = path_to_matrix(enumerate_paths(7, 3)[0])
        d = v - y
        gamma = exact_line_search(inst, y, d)
        best = objective_dense(inst, y + gamma * d)
        for t in np.linspace(0, 1, 100):
            assert best <= objective_dense(inst, y + t * d) + 1e-12


class TestSolve:
    def test_square_stream_converges_immediately(self):
        rng = np.random.default_rng(8)
        inst = make_instance(rng, i_count=3, n_sentences=1)
        res = solve(inst, max_iter=2000, gap_tol=1e-6)
        assert res.converged
        assert res.iterations == 0
        assert res.gap_trace[-1] <= 1e-6
        np.testing.assert_array_equal(res.y_relaxed, np.eye(3))

    def test_relaxation_lower_bounds_integer_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = make_instance(rng, i_count=6, n_sentences=1)
            res = solve(inst, max_iter=3000, gap_tol=1e-9)
            integer_opt = min(
                objective_dense(inst, path_to_matrix(p)) for p in enumerate_paths(6, 3)
            )
            assert res.objective_trace[-1] <= integer_opt + 1e-8

    def test_trace_invariants(self):
        rng = np.random.default_rng(10)
        inst = make_instance(rng, i_count=8, n_sentences=2)
        res = solve(inst, max_iter=500, gap_tol=0.0)
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs <= 1e-12)
        assert np.all(np.asarray(res.gap_trace) >= -1e-10)
        assert res.objective_trace[-1] == pytest.approx(
            objective_dense(inst, res.y_relaxed), abs=1e-10
        )

    def test_iterates_stay_in_hull(self):
        rng = np.random.default_rng(11)
        inst = make_instance(rng, i_count=7, n_sentences=2)
        res = solve(inst, max_iter=200, gap_tol=0.0)
        y = res.y_relaxed
        assert np.all(y >= -1e-12) and np.all(y <= 1 + 1e-12)
        np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-10)

    def test_gap_certifies_suboptimality(self):
        rng = np.random.default_rng(12)
        inst = make_instance(rng, i_count=6, n_sentences=1)
        res = solve(inst, max_iter=5000, gap_tol=1e-10)
        coarse = solve(inst, max_iter=40, gap_tol=0.0)
        optimum = res.objective_trace[-1]
        assert coarse.objective_trace[-1] - optimum <= coarse.gap_trace[-1] + 1e-10

    def test_fixed_block_held_constant(self):
        rng = np.random.default_rng(13)
        from seqalign.polytope import AlignmentPath
        from seqalign.supervision import fix_assignment_mask

        inst = make_instance(rng, i_count=6, n_sentences=1)
        pinned = AlignmentPath(np.array([0, 1, 1, 1, 2, 2]), j_count=3)
        inst = replace(inst, masks=(fix_assignment_mask(pinned),))
        res = solve(inst, max_iter=100, gap_tol=1e-6)
        np.testing.assert_array_equal(res.y_relaxed, path_to_matrix(pinned))

    def test_returns_fitted_model(self):
        rng = np.random.default_rng(14)
        inst = make_instance(rng, i_count=6, n_sentences=1)
        res = solve(inst, max_iter=100, gap_tol=1e-8)
        expect = fit_model(inst.psi, res.y_relaxed, inst.phi, inst.kernel)
        np.testing.assert_allclose(res.w_star, expect)

    def test_stop_reasons(self):
        rng = np.random.default_rng(15)
        inst = make_instance(rng, i_count=8, n_sentences=2)
        closed = solve(inst, max_iter=2000, gap_tol=1e-6)
        assert closed.converged and closed.stop_reason == "gap_tol"
        assert closed.gap_trace[-1] <= 1e-6
        # A negative tolerance can never be met: only the budget or a stall ends.
        budget = solve(inst, max_iter=1, gap_tol=-1.0)
        assert budget.stop_reason == "max_iter" and not budget.converged
        assert budget.iterations == 1 and len(budget.gap_trace) == 2
        stalled = solve(inst, max_iter=2000, gap_tol=-1.0)
        assert stalled.stop_reason == "stalled" and not stalled.converged
        assert stalled.iterations < 2000
        assert len(stalled.objective_trace) == stalled.iterations + 1
        assert stalled.gap_trace[-1] <= 1e-10
        assert stalled.objective_trace[-1] == pytest.approx(
            objective_dense(inst, stalled.y_relaxed), abs=1e-10
        )

    def test_multi_stream_suite_with_soft_mask_converges(self, tmp_path):
        # Four default streams, one confined by a soft interval mask.  Plain
        # Frank-Wolfe ends here at gap 3.7e-3 after 2000 iterations.
        manifest = pipeline.run_synth(
            tmp_path, n_streams=4, supervised_fraction=0.25, seed=0
        )
        hp = replace(manifest.hyperparameters, supervision="soft")
        inst = assemble(pipeline.load_streams(manifest), hp)
        assert sum(m is not None for m in inst.masks) == 1
        res = solve(inst, max_iter=2000, gap_tol=1e-6)
        assert res.converged and res.iterations <= 2000
        assert res.gap_trace[-1] <= 1e-6
        assert np.all(np.diff(res.objective_trace) <= 1e-12)


class TestDenseIterate:
    """solve keeps one dense Y and rebuilds each iterate into it."""

    @staticmethod
    def suite(tmp_path, **synth):
        manifest = pipeline.run_synth(tmp_path, seed=0, **synth)
        return assemble(pipeline.load_streams(manifest), manifest.hyperparameters)

    def test_solve_holds_one_dense_iterate(self, tmp_path):
        inst = self.suite(tmp_path, n_streams=8, sentences=10, intervals=100)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = solve(inst, max_iter=6, gap_tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == 6
        assert res.y_relaxed.shape == (168, 800)
        assert peak - before < res.y_relaxed.nbytes

    def test_matrix_rebuilds_a_used_buffer_bit_for_bit(self, tmp_path):
        # The steps of solve, each iterate checked against a fresh dense sum.
        # Some step must prune a vertex that alone set a cell, which the
        # rebuild then has to clear.
        inst = self.suite(tmp_path, n_streams=4, sentences=3, intervals=30)
        layout = inst.layout
        in_block = np.zeros((layout.j_total, layout.i_total), dtype=bool)
        for n in range(layout.n_streams):
            layout.block(in_block, n)[...] = True
        paths = _initial_paths(inst)
        vertices = {(n, a.tobytes()): (n, a) for n, a in enumerate(paths)}
        active = _ActiveSet(inst)
        active.index(enumerate(paths))
        active.w[:] = 1.0
        y = blocks_to_matrix(paths, layout)
        obj, cleared = active.objective(active.w), 0
        for _ in range(100):
            grad = gradient(inst, y)
            v_rows, _ = lmo_blocks(grad, inst.masks)
            if active.gap(grad, v_rows) <= 1e-6:
                break
            vertices.update(((n, a.tobytes()), (n, a)) for n, a in enumerate(v_rows))
            w, _ = active.corrected_weights(v_rows)
            if not active.objective(w) < obj:
                break
            active.w, obj = w, active.objective(w)
            active.prune()
            used = y != 0
            active.matrix(y)
            expect = iterate_dense(layout, [vertices[key] for key in active.lookup], active.w)
            np.testing.assert_array_equal(y.view(np.int64), expect.view(np.int64))
            assert not y.view(np.int64)[~in_block].any()  # +0.0 off the blocks
            cleared += int((used & (expect == 0)).any())
        assert cleared > 0


class TestReferenceCertificate:
    """Each solve's answer, vouched for by a gap and objective computed without its code."""

    # Disagreements measured against the solver's own figures: up to 1.2e-15 in
    # the gap and 2e-14 in objectives of 1.2 to 7.6 on the fixed suites, and up
    # to 4.3e-13 in the objective over the random layouts.  The slack is a
    # million times below gap_tol, so a fault that leaves a gap of gap_tol
    # unseen still fails.
    SLACK = 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("supervision", ["none", "soft", "hard"])
    @pytest.mark.parametrize(
        "synth",
        [
            dict(noise=1.0, supervised_fraction=0.25),
            dict(supervised_fraction=0.0),
            dict(supervised_fraction=0.5),
        ],
        ids=["converge", "kernel", "pinned"],
    )
    def test_solve_meets_reference_certificate(self, tmp_path, synth, supervision, seed):
        # The benchmark's three workloads at a tiny shape: 4 streams of 2 sentences x 12 intervals.
        manifest = pipeline.run_synth(
            tmp_path, n_streams=4, sentences=2, intervals=12, seed=seed, **synth
        )
        hp = replace(manifest.hyperparameters, supervision=supervision)
        inst = assemble(pipeline.load_streams(manifest), hp)
        res = solve(inst, max_iter=hp.max_iter, gap_tol=hp.gap_tol)
        f, gap = reference_certificate(inst, res, hp)
        assert res.converged
        assert gap <= hp.gap_tol + self.SLACK
        assert abs(f - res.objective_trace[-1]) <= self.SLACK

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(random_suites())
    def test_random_layouts_meet_reference_certificate(self, suite):
        streams, hp = suite
        inst = assemble(streams, hp)
        res = solve(inst, max_iter=hp.max_iter, gap_tol=hp.gap_tol)
        f, gap = reference_certificate(inst, res, hp)
        assert res.converged
        assert gap <= hp.gap_tol + self.SLACK
        assert abs(f - res.objective_trace[-1]) <= self.SLACK


def test_simplex_correction_reaches_kkt_point():
    # Singular Hessians (rank 3 over 12 weights) and a linear term outside
    # their range: the Newton step alone cannot solve such a face, and
    # weights that reach zero on the way must be able to re-enter.  The
    # streams interleave, as vertices join the active sets in turn.
    rng = np.random.default_rng(16)
    stream = np.tile(np.arange(3), 4)
    for _ in range(20):
        x = rng.standard_normal((3, 12))
        h = x.T @ x
        b = rng.standard_normal(12)
        w0 = np.zeros(12)
        w0[[0, 1, 2]] = 1.0
        w, steps = _minimize_on_simplices(h, b, stream, 3, w0)
        assert 0 < steps <= 3 * w.size + 10
        assert np.all(w >= 0)
        np.testing.assert_allclose(np.bincount(stream, w), 1.0, atol=1e-12)
        g = h @ w + b
        for n in range(3):
            g_n, w_n = g[stream == n], w[stream == n]
            # KKT: the support shares the least reduced cost of its stream.
            assert np.all(g_n[w_n > 0] <= g_n.min() + 1e-9)
        f = lambda v: 0.5 * v @ h @ v + b @ v
        assert f(w) <= f(w0)


def test_sum_zero_basis_matches_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n_streams = int(rng.integers(1, 7))
        ids = rng.choice(20, size=n_streams, replace=False)
        stream_f = np.repeat(ids, rng.integers(1, 9, size=n_streams))
        rng.shuffle(stream_f)
        z, ref = _sum_zero_basis(stream_f), sum_zero_basis(stream_f)
        assert z.shape == ref.shape
        np.testing.assert_array_equal(z.view(np.int64), ref.view(np.int64))


class TestActiveSet:
    @staticmethod
    def instance(rng):
        # Three streams of (J, I) = (3, 6), (3, 6) and (5, 8).
        streams = [
            replace(make_stream(rng, i, s), id=f"s{n}")
            for n, (i, s) in enumerate([(6, 1), (6, 1), (8, 2)])
        ]
        hp = Hyperparameters(lam=0.1, sigma=2.0, alpha=0.1, beta=0.3, mu_background=None)
        return assemble(streams, hp)

    @staticmethod
    def interleaved_vertices(instance, per_stream=3):
        layout = instance.layout
        candidates = [enumerate_paths(i, j)[:per_stream]
                      for i, j in zip(layout.i_sizes, layout.j_sizes)]
        return [(n, candidates[n][r].assignment)
                for r in range(per_stream) for n in range(len(candidates))]

    def test_index_returns_existing_vertex_or_adds_one(self):
        inst = self.instance(np.random.default_rng(18))
        active = _ActiveSet(inst)
        vertices = self.interleaved_vertices(inst)
        assert active.index(vertices) == list(range(len(vertices)))
        copies = [(n, a.copy()) for n, a in vertices]
        assert active.index(copies) == list(range(len(vertices)))
        assert [active.index([v])[0] for v in copies] == list(range(len(vertices)))
        assert active.stream.size == active.w.size == len(vertices)
        # The same assignment in another stream of the same shape is another vertex,
        # and a vertex given twice in one call is added once.
        stream_0 = [a for n, a in vertices if n == 0]
        extra = next(p.assignment for p in enumerate_paths(6, 3) if not any(
            np.array_equal(p.assignment, a) for n, a in vertices if n == 1))
        k = len(vertices)
        assert active.index([(0, stream_0[0]), (1, extra), (0, extra), (1, extra)]) == [
            0, k, k + 1, k]
        assert active.stream.size == active.h.shape[0] == active.b.size == k + 2

    def test_prune_renumbers_lookups_and_stream_arrays(self):
        rng = np.random.default_rng(19)
        inst = self.instance(rng)
        active = _ActiveSet(inst)
        vertices = self.interleaved_vertices(inst)
        active.index(vertices)
        h, b = active.h.copy(), active.b.copy()
        dead = [0, 4, 5]
        active.w = rng.random(len(vertices)) + 0.1
        active.w[dead] = 0.0
        keep = np.flatnonzero(active.w > 0)
        active.prune()

        kept = [vertices[k] for k in keep]
        assert active.index(kept) == list(range(keep.size))
        assert list(active.lookup.values()) == list(range(keep.size))
        np.testing.assert_array_equal(active.stream, [n for n, _ in kept])
        np.testing.assert_array_equal(active.h, h[np.ix_(keep, keep)])
        np.testing.assert_array_equal(active.b, b[keep])
        # Streams 0 and 1 are one run of shape (3, 6); stream 2 is a run of its own.
        for r, streams in enumerate([(0, 1), (2,)]):
            members = np.flatnonzero(np.isin(active.stream, streams))
            np.testing.assert_array_equal(active.members[r], members)
            np.testing.assert_array_equal(active.place[r], active.stream[members] - streams[0])
            rows = [kept[k][1] for k in members]
            J, I = inst.layout.j_sizes[streams[0]], inst.layout.i_sizes[streams[0]]
            np.testing.assert_array_equal(active.cells[r], [
                (n * J + a) * I + np.arange(I) for n, a in zip(active.place[r], rows)])
            np.testing.assert_array_equal(
                active.durations[r], [np.bincount(a, minlength=J) for a in rows])

        # A pruned vertex comes back at the end, with its H row and b entry as before
        # (up to round-off where the other vertex's row computed the entry).
        assert active.index([vertices[dead[0]]]) == [keep.size]
        np.testing.assert_allclose(active.h[-1, :-1], h[dead[0], keep], rtol=1e-12, atol=0)
        assert active.h[-1, -1] == h[dead[0], dead[0]]
        assert active.b[-1] == b[dead[0]]


def layout_instance(rng, shapes, e_dim=4, alpha=0.3, beta=0.2):
    """An instance of streams of random features with the given (I_n, J_n) shapes, in order."""
    streams = [
        Stream(id=f"s{k}", phi=rng.standard_normal((3, i)), psi=rng.standard_normal((e_dim, j)))
        for k, (i, j) in enumerate(shapes)
    ]
    hp = Hyperparameters(lam=0.2, sigma=1.5, alpha=alpha, beta=beta, mu_background=None,
                         supervision="none")
    return assemble(streams, hp)


class TestBatchedBlocksBitForBit:
    """The blocks of a run of streams of one shape come from one stacked product.

    gradient and _ActiveSet must keep the bits of the stream-by-stream
    products they replaced (oracles.gradient_per_stream, oracles.gram_per_vertex).
    """

    LAYOUTS = {
        "one run": [(12, 5)] * 4,
        "run split by another shape": [(9, 3)] * 2 + [(14, 5)] + [(9, 3)] * 3,
        "one row and one column": [(1, 1), (1, 1), (6, 1), (6, 1), (7, 3), (6, 1)],
        "single stream": [(11, 4)],
    }

    @staticmethod
    def check(rng, inst, n_vertices=5):
        layout = inst.layout
        paths = [
            [random_path(rng, i, j).assignment if j > 1 else np.zeros(i, np.int64)
             for _ in range(n_vertices)]
            for i, j in zip(layout.i_sizes, layout.j_sizes)
        ]
        hull = sum(
            w * blocks_to_matrix([p[r] for p in paths], layout)
            for r, w in enumerate(rng.dirichlet(np.ones(n_vertices)))
        )
        for y in (hull, rng.standard_normal((layout.j_total, layout.i_total))):
            blocks, reference = gradient(inst, y), gradient_per_stream(inst, y)
            assert len(blocks) == layout.n_streams
            for g, ref in zip(blocks, reference):
                assert np.array_equal(g, ref)

        # Batches of one vertex per stream, as solve adds them; then single
        # vertices of streams in turn, repeats among them.
        vertices = [(n, paths[n][r]) for r in range(2) for n in range(layout.n_streams)]
        active = _ActiveSet(inst)
        for r in range(2):
            active.index(vertices[r * layout.n_streams : (r + 1) * layout.n_streams])
        for n in range(layout.n_streams):
            active.index([(n, paths[n][3]), (n, paths[n][0])])
            vertices += [(n, paths[n][3])]
        h, b = gram_per_vertex(inst, vertices)
        assert active.h.shape == h.shape
        assert np.array_equal(active.h, h)
        assert np.array_equal(active.b, b)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_small_layouts(self, layout):
        rng = np.random.default_rng(list(self.LAYOUTS).index(layout) + 30)
        self.check(rng, layout_instance(rng, self.LAYOUTS[layout]))

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_gradient_never_reads_the_dense_q(self, layout):
        rng = np.random.default_rng(list(self.LAYOUTS).index(layout) + 40)
        inst = layout_instance(rng, self.LAYOUTS[layout])
        # The same instance with a dense Q of NaN: the gradient keeps every bit.
        q = inst.kernel.q_matrix
        blind = replace(inst, kernel=CostKernel(np.full_like(q, np.nan), inst.kernel.gram_factor))
        sizes = zip(inst.layout.i_sizes, inst.layout.j_sizes)
        vertex = blocks_to_matrix(
            [random_path(rng, i, j).assignment if j > 1 else np.zeros(i, np.int64)
             for i, j in sizes],
            inst.layout,
        )
        for y in (vertex, rng.standard_normal(vertex.shape)):
            for g, ref in zip(gradient(blind, y), gradient(inst, y), strict=True):
                assert np.array_equal(g, ref)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_objective_and_line_search_never_read_the_dense_q(self, layout):
        rng = np.random.default_rng(list(self.LAYOUTS).index(layout) + 50)
        inst = layout_instance(rng, self.LAYOUTS[layout])
        q = inst.kernel.q_matrix
        blind = replace(inst, kernel=CostKernel(np.full_like(q, np.nan), inst.kernel.gram_factor))
        sizes = list(zip(inst.layout.i_sizes, inst.layout.j_sizes))
        vertex, other = (
            blocks_to_matrix(
                [random_path(rng, i, j).assignment if j > 1 else np.zeros(i, np.int64)
                 for i, j in sizes],
                inst.layout,
            )
            for _ in range(2)
        )
        # A random Y of the block-diagonal pattern, which both functions require.
        noise = rng.standard_normal(vertex.shape) * block_diag(*[np.ones((j, i)) for i, j in sizes])
        hull = 0.3 * vertex + 0.7 * other
        for y in (vertex, hull, noise):
            assert objective(blind, y) == pytest.approx(objective_dense(inst, y), abs=1e-12)
        for y, d in ((hull, vertex - hull), (vertex, other - vertex), (hull, noise)):
            # The minimizer over [0, 1] of the dense objective's restriction to y + t d.
            f0, f1 = objective_dense(inst, y), objective_dense(inst, y + d)
            fh = objective_dense(inst, y + 0.5 * d)
            a = 4 * (f1 - 2 * fh + f0)
            b = f1 - f0 - a / 2
            expect = float(np.clip(-b / a, 0.0, 1.0))
            assert exact_line_search(blind, y, d) == pytest.approx(expect, abs=1e-10)

    def test_sixteen_streams_of_the_kernel_workload_shape(self):
        # 16 streams of 41 x 250 with E = 8, the shape of the benchmark's
        # kernel workload.  Here a stacked product on gathered copies
        # (x[:, idx] is laid out in Fortran order) differs from the
        # stream-by-stream products in the last bits; the views do not.
        rng = np.random.default_rng(34)
        self.check(rng, layout_instance(rng, [(250, 41)] * 16, e_dim=8), n_vertices=4)


class TestFaceDirection:
    """_face_direction against the scipy cho_factor / cho_solve form it replaced."""

    @staticmethod
    def face(rng, n_streams, size):
        stream = rng.integers(0, n_streams, size)
        x = rng.standard_normal((int(rng.integers(1, size + 3)), size))
        h = x.T @ x
        return h, rng.standard_normal(size), rng.random(size) < 0.7, stream

    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            h, g, free, stream = self.face(rng, int(rng.integers(1, 6)), int(rng.integers(1, 40)))
            d, ref = _face_direction(h, g, free, stream), face_direction_scipy(h, g, free, stream)
            np.testing.assert_array_equal(d.view(np.int64), ref.view(np.int64))

    def test_empty_face_and_one_entry_streams(self):
        rng = np.random.default_rng(41)
        h, g, _, _ = self.face(rng, 3, 6)
        stream = np.array([0, 1, 2, 0, 1, 2])
        for free in (np.zeros(6, bool), np.array([1, 1, 1, 0, 0, 0], bool)):
            d = _face_direction(h, g, free, stream)
            assert np.array_equal(d, np.zeros(6))
            assert np.array_equal(d, face_direction_scipy(h, g, free, stream))
        # One stream of one entry beside one of several.
        free = np.array([1, 1, 0, 1, 0, 0], bool)
        d = _face_direction(h, g, free, stream)
        assert d[1] == 0.0 and d[0] + d[3] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(d, face_direction_scipy(h, g, free, stream))

    @staticmethod
    def errors(*args):
        raised = []
        for fn in (_face_direction, face_direction_scipy):
            with pytest.raises((ValueError, np.linalg.LinAlgError)) as e:
                fn(*args)
            raised.append((type(e.value), str(e.value)))
        return raised

    def test_non_finite_face_raises_scipys_value_error(self):
        rng = np.random.default_rng(42)
        h, g, _, _ = self.face(rng, 2, 8)
        h += np.eye(8)
        stream, free = np.arange(8) % 2, np.ones(8, bool)
        h[2, 4] = np.nan
        (mine, theirs) = self.errors(h, g, free, stream)
        assert mine == theirs and mine[0] is ValueError
        h[2, 4] = 0.0
        g[3] = np.inf
        with np.errstate(invalid="ignore"):
            (mine, theirs) = self.errors(h, g, free, stream)
        assert mine == theirs and mine[0] is ValueError

    def test_indefinite_face_raises_scipys_linalg_error(self):
        h = -np.eye(6)
        stream, free = np.arange(6) % 2, np.ones(6, bool)
        (mine, theirs) = self.errors(h, np.ones(6), free, stream)
        assert mine == theirs and mine[0] is np.linalg.LinAlgError
        assert "leading minor" in mine[1]

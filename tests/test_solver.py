from dataclasses import replace

import numpy as np
import pytest

from seqalign import pipeline
from seqalign.core import fit_model
from seqalign.priors import band_penalty, duration_penalty
from seqalign.data import Hyperparameters
from seqalign.polytope import AlignmentPath, band_indicator, blocks_to_matrix
from seqalign.solver import (
    _ActiveSet,
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
    enumerate_paths,
    gradient_dense,
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
        from seqalign.core import discriminative_cost

        total = objective(inst, y)
        parts = (
            discriminative_cost(inst.psi, y, inst.kernel)
            + duration_penalty(y, inst.priors)
            + band_penalty(y, inst.band[0], inst.priors.alpha)
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
                + duration_penalty(y, inst.priors)
                + inst.priors.alpha * np.sum(inst.band[0] * y)
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
            fd = finite_difference(lambda m: objective(inst, m), y)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(g - fd)) / scale <= 1e-5

    def test_zero_at_stationary_configuration(self):
        rng = np.random.default_rng(3)
        inst = make_instance(rng, i_count=4, n_sentences=1, alpha=0.0, beta=1.0)
        # psi = 0 kills the data term; row sums matching mu kill the rest.
        inst = type(inst)(
            psi=np.zeros_like(inst.psi),
            phi=inst.phi,
            layout=inst.layout,
            kernel=inst.kernel,
            priors=inst.priors,
            band=inst.band,
            masks=inst.masks,
        )
        mu = inst.priors.mu
        y = np.tile((mu / inst.layout.i_total)[:, None], (1, inst.layout.i_total))
        np.testing.assert_allclose(gradient(inst, y)[0], 0.0, atol=1e-12)

    def test_pure_band_term(self):
        rng = np.random.default_rng(4)
        inst = make_instance(rng, i_count=5, n_sentences=1, sigma=1e9, alpha=0.4)
        inst = type(inst)(
            psi=np.zeros_like(inst.psi),
            phi=inst.phi,
            layout=inst.layout,
            kernel=inst.kernel,
            priors=inst.priors,
            band=inst.band,
            masks=inst.masks,
        )
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


class TestGradientBlocks:
    # (I_n, J_n) of the streams: all unequal, with I_n = 1, J_n = 1 and J_n = I_n among them.
    SHAPES = [(1, 1), (9, 1), (7, 7), (23, 5), (4, 3), (16, 2), (30, 11)]

    @pytest.mark.parametrize("supervision", ["none", "soft", "hard"])
    def test_blocks_of_the_dense_formula_bit_for_bit(self, supervision):
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
                    [random_path(rng, i, j) for i, j in zip(layout.i_sizes, layout.j_sizes)],
                    layout,
                )
                for _ in range(3)
            ]
            hull = sum(w * v for w, v in zip(rng.dirichlet(np.ones(3)), vertices))
            for y in (hull, rng.standard_normal((layout.j_total, layout.i_total))):
                blocks, dense = gradient(inst, y), gradient_dense(inst, y)
                assert len(blocks) == layout.n_streams
                for n, g in enumerate(blocks):
                    assert np.array_equal(g, layout.block(dense, n))


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
            f0 = objective(inst, y)
            f1 = objective(inst, y + d)
            fh = objective(inst, y + 0.5 * d)
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
        best = objective(inst, y + gamma * d)
        for t in np.linspace(0, 1, 100):
            assert best <= objective(inst, y + t * d) + 1e-12


class TestSolve:
    def test_square_stream_converges_immediately(self):
        rng = np.random.default_rng(8)
        inst = make_instance(rng, i_count=3, n_sentences=1)
        res = solve(inst)
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
                objective(inst, path_to_matrix(p)) for p in enumerate_paths(6, 3)
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
            objective(inst, res.y_relaxed), abs=1e-10
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
        inst = type(inst)(
            psi=inst.psi,
            phi=inst.phi,
            layout=inst.layout,
            kernel=inst.kernel,
            priors=inst.priors,
            band=inst.band,
            masks=(fix_assignment_mask(pinned),),
        )
        res = solve(inst, max_iter=100)
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
        closed = solve(inst)
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
            objective(inst, stalled.y_relaxed), abs=1e-10
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


class TestReferenceCertificate:
    """Each solve's answer, vouched for by a gap and objective computed without its code."""

    # Disagreements measured against the solver's own figures: up to 1.2e-15 in
    # the gap and 2e-14 in objectives of 1.2 to 7.6.  The slack is 50 times the
    # larger, and a million times below gap_tol, so a fault that leaves a gap
    # of gap_tol unseen still fails.
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
        w = _minimize_on_simplices(h, b, stream, 3, w0)
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
        return [(n, candidates[n][r]) for r in range(per_stream) for n in range(len(candidates))]

    def test_index_returns_existing_vertex_or_adds_one(self):
        inst = self.instance(np.random.default_rng(18))
        active = _ActiveSet(inst)
        vertices = self.interleaved_vertices(inst)
        assert [active.index(n, p) for n, p in vertices] == list(range(len(vertices)))
        copies = [(n, AlignmentPath(p.assignment.copy(), p.j_count)) for n, p in vertices]
        assert [active.index(n, p) for n, p in copies] == list(range(len(vertices)))
        assert active.stream.size == active.w.size == len(vertices)
        # The same assignment in another stream of the same shape is another vertex.
        stream_0 = [p for n, p in vertices if n == 0]
        extra = next(p for p in enumerate_paths(6, 3) if not any(
            np.array_equal(p.assignment, q.assignment) for n, q in vertices if n == 1))
        assert active.index(0, stream_0[0]) == 0
        assert active.index(1, extra) == len(vertices)
        assert active.index(0, extra) == len(vertices) + 1

    def test_prune_renumbers_lookups_and_stream_arrays(self):
        rng = np.random.default_rng(19)
        inst = self.instance(rng)
        active = _ActiveSet(inst)
        vertices = self.interleaved_vertices(inst)
        for n, p in vertices:
            active.index(n, p)
        h, b = active.h.copy(), active.b.copy()
        dead = [0, 4, 5]
        active.w = rng.random(len(vertices)) + 0.1
        active.w[dead] = 0.0
        keep = np.flatnonzero(active.w > 0)
        active.prune()

        kept = [vertices[k] for k in keep]
        for k, (n, p) in enumerate(kept):
            assert active.index(n, p) == k
        np.testing.assert_array_equal(active.stream, [n for n, _ in kept])
        np.testing.assert_array_equal(active.h, h[np.ix_(keep, keep)])
        np.testing.assert_array_equal(active.b, b[keep])
        for n in range(inst.layout.n_streams):
            members = np.flatnonzero(active.stream == n)
            np.testing.assert_array_equal(active.members[n], members)
            paths = [kept[k][1] for k in members]
            np.testing.assert_array_equal(active.rows[n], [p.assignment for p in paths])
            np.testing.assert_array_equal(active.durations[n], [p.durations() for p in paths])

        # A pruned vertex comes back at the end, with its H row and b entry as before
        # (up to round-off where the other vertex's row computed the entry).
        n, p = vertices[dead[0]]
        assert active.index(n, p) == keep.size
        np.testing.assert_allclose(active.h[-1, :-1], h[dead[0], keep], rtol=1e-12, atol=0)
        assert active.h[-1, -1] == h[dead[0], dead[0]]
        assert active.b[-1] == b[dead[0]]

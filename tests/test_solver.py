import numpy as np
import pytest

from seqalign import pipeline
from seqalign.core import fit_model
from seqalign.priors import band_penalty, duration_penalty
from seqalign.solver import (
    _minimize_on_simplices,
    exact_line_search,
    gradient,
    objective,
    solve,
)
from seqalign.supervision import assemble

from conftest import make_instance
from oracles import enumerate_paths, path_to_matrix, ridge_residual


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
            + band_penalty(y, inst.band, inst.priors.alpha)
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
                + inst.priors.alpha * np.sum(inst.band * y)
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
            g = gradient(inst, y)
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
        np.testing.assert_allclose(gradient(inst, y), 0.0, atol=1e-12)

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
        np.testing.assert_allclose(gradient(inst, y), 0.4 * inst.band, atol=1e-17)


class TestLineSearch:
    def test_non_descent_direction_gives_zero(self):
        rng = np.random.default_rng(5)
        inst = make_instance(rng, i_count=5, n_sentences=1)
        y = random_hull_point(rng, inst)
        g = gradient(inst, y)
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
        hp = manifest.hyperparameters
        inst = assemble(
            pipeline.load_streams(manifest),
            lam=hp["lambda"],
            sigma=hp["sigma"],
            alpha=hp["alpha"],
            beta=hp["beta"],
            mu_background=hp["mu_background"],
            mode="soft",
        )
        assert sum(m is not None for m in inst.masks) == 1
        res = solve(inst, max_iter=2000, gap_tol=1e-6)
        assert res.converged and res.iterations <= 2000
        assert res.gap_trace[-1] <= 1e-6
        assert np.all(np.diff(res.objective_trace) <= 1e-12)


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

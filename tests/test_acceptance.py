"""Acceptance suite: ten standalone criteria, one pass/fail line each.

Each test prints a single `criterion NN [PASS|FAIL]` line and then asserts,
so the printed verdicts match the pytest outcome.  Thresholds for the
statistical criteria were frozen from a pre-registered pilot run before
being encoded here.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from seqalign import cli, pipeline
from seqalign.core import compute_q, discriminative_cost, fit_model
from seqalign.data import (
    Hyperparameters,
    SynthConfig,
    interleave_background,
    read_manifest,
    synthesize,
)
from seqalign.evaluation import diagonal_path, jaccard_score
from seqalign.polytope import CellMask, minimize_linear
from seqalign.rounding import round_feature, round_model, round_nearest
from seqalign.solver import gradient, objective, solve
from seqalign.supervision import Stream, assemble

from conftest import make_instance
from oracles import (
    enumerate_paths,
    feature_criterion,
    model_criterion,
    nearest_criterion,
    path_to_matrix,
    ridge_residual,
)


def _verdict(num, ok, desc):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def _random_shapes(rng):
    i = int(rng.integers(1, 9))
    j = int(rng.integers(1, min(i, 4) + 1))
    return i, j


def _random_feasible_mask(rng, j, i, p=0.3):
    while True:
        mask = CellMask(rng.random((j, i)) < p)
        if enumerate_paths(i, j, mask):
            return mask


def _default_stream(seed, noise=0.1):
    s = synthesize(SynthConfig(noise=noise, seed=seed))
    psi, background = interleave_background(s.psi_raw)
    return Stream(
        id=f"seed{seed}", phi=s.phi, psi=psi, background=background, annotation=s.annotation
    )


def test_criterion_01_linear_oracle_exactness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        i, j = _random_shapes(rng)
        mask = _random_feasible_mask(rng, j, i) if i > 1 else None
        cost = rng.standard_normal((j, i))
        path, value = minimize_linear(cost, mask)

        def right_to_left_sum(p):
            # Same accumulation order as the suffix recursion: exact comparison.
            s = 0.0
            for col in range(i - 1, -1, -1):
                s = cost[p.assignment[col], col] + s
            return s

        ok &= value == min(right_to_left_sum(p) for p in enumerate_paths(i, j, mask))
        ok &= right_to_left_sum(path) == value
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(1, ok, f"oracle equals enumeration on 200 masked instances in {elapsed:.2f}s")


def test_criterion_02_rounding_exactness():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        i, j = _random_shapes(rng)
        vertices = enumerate_paths(i, j)
        w = rng.dirichlet(np.ones(len(vertices)))
        y_star = sum(wi * path_to_matrix(p) for wi, p in zip(w, vertices))
        psi = rng.standard_normal((3, j))
        phi = rng.standard_normal((3, i))
        model = rng.standard_normal((3, 3))
        ok &= nearest_criterion(round_nearest(y_star), y_star) == min(
            nearest_criterion(p, y_star) for p in vertices
        )
        ok &= feature_criterion(round_feature(y_star, psi), y_star, psi) == min(
            feature_criterion(p, y_star, psi) for p in vertices
        )
        ok &= model_criterion(round_model(model, psi, phi), model, psi, phi) == min(
            model_criterion(p, model, psi, phi) for p in vertices
        )
    _verdict(2, ok, "all three roundings equal their brute-force minima, 100 draws each")


def test_criterion_03_reduced_cost_equals_ridge_residual():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        d, i = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        e, j = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        lam = float(rng.uniform(0.01, 1.0))
        phi = rng.standard_normal((d, i))
        psi = rng.standard_normal((e, j))
        y = rng.random((j, i))
        kernel = compute_q(phi, lam)
        w = fit_model(psi, y, phi, kernel)
        direct = ridge_residual(psi, y, phi, w, lam)
        reduced = discriminative_cost(psi, y, kernel)
        ok &= abs(reduced - direct) <= 1e-8 * max(abs(direct), 1e-12)
        # The feature-space and sample-space reduction formulas must agree.
        primal = np.eye(i) - phi.T @ np.linalg.solve(
            phi @ phi.T + i * lam * np.eye(d), phi
        )
        dual = i * lam * np.linalg.solve(phi.T @ phi + i * lam * np.eye(i), np.eye(i))
        ok &= np.max(np.abs(primal - dual)) <= 1e-8 * max(np.max(np.abs(primal)), 1e-12)
    _verdict(3, ok, "reduced cost matches ridge residual at the fitted model, 100 draws")


def test_criterion_04_gradient_matches_finite_differences():
    rng = np.random.default_rng(104)
    ok = True
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
        fd = np.zeros_like(y)
        h = 1e-5
        for idx in np.ndindex(y.shape):
            up, down = y.copy(), y.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (objective(inst, up) - objective(inst, down)) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-8)
        ok &= np.max(np.abs(g - fd)) / scale <= 1e-5
    _verdict(4, ok, "analytic gradient within 1e-5 of central differences, 50 instances")


def test_criterion_05_duality_gap_certificate_on_default_instance():
    stream = _default_stream(seed=7, noise=0.1)
    inst = assemble([stream], Hyperparameters())
    t0 = time.perf_counter()
    res = solve(inst, max_iter=2000, gap_tol=1e-6)
    elapsed = time.perf_counter() - t0
    monotone = bool(np.all(np.diff(res.objective_trace) <= 1e-12))
    gap = res.gap_trace[-1]
    ok = gap <= 1e-6 and monotone and elapsed < 30.0
    _verdict(
        5,
        ok,
        f"gap {gap:.3e} (target 1e-6) in {res.iterations} iterations, "
        f"monotone={monotone}, {elapsed:.1f}s",
    )


def test_criterion_06_relaxation_brackets_integer_optimum():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(50):
        inst = make_instance(rng, i_count=int(rng.integers(3, 9)), n_sentences=1)
        j = inst.layout.j_sizes[0]
        res = solve(inst, max_iter=3000, gap_tol=1e-9)
        relaxed = res.objective_trace[-1]
        gap = res.gap_trace[-1]
        integer_opt = min(
            objective(inst, path_to_matrix(p))
            for p in enumerate_paths(inst.layout.i_total, j)
        )
        rounded = round_nearest(res.y_relaxed)
        slack = objective(inst, path_to_matrix(rounded)) - relaxed
        ok &= relaxed <= integer_opt + 1e-8
        ok &= integer_opt <= relaxed + gap + slack + 1e-8
    _verdict(6, ok, "relaxed optimum brackets the enumerated integer optimum, 50 instances")


def _suite_scores(tmpdir, seed, noise, supervised_fraction=0.0, supervision="soft"):
    suite = tmpdir / f"suite_{seed}_{supervision}"
    manifest = pipeline.run_synth(
        suite,
        n_streams=4,
        supervised_fraction=supervised_fraction,
        noise=noise,
        seed=seed,
    )
    streams = pipeline.load_streams(manifest)
    _, _, preds = pipeline.align_streams(
        streams, replace(manifest.hyperparameters, supervision=supervision)
    )
    return streams, preds


def test_criterion_07_synthetic_recovery_beats_diagonal(tmp_path):
    model_scores, diag_scores = [], []
    for seed in range(10):
        streams, preds = _suite_scores(tmp_path, seed, noise=0.05)
        for s, p in zip(streams, preds):
            model_scores.append(jaccard_score(p, s.annotation, s.background))
            diag = diagonal_path(s.i_count, s.j_count)
            diag_scores.append(jaccard_score(diag, s.annotation, s.background))
    model_mean = float(np.mean(model_scores))
    diag_mean = float(np.mean(diag_scores))
    ok = model_mean >= 0.90 and model_mean >= diag_mean + 0.15
    _verdict(
        7,
        ok,
        f"model rounding mean {model_mean:.3f} (target >= 0.90) vs "
        f"diagonal {diag_mean:.3f} (margin target >= 0.15), 10 seeds",
    )


def test_criterion_08_duration_prior_has_interior_optimum(tmp_path):
    base = pipeline.run_synth(tmp_path / "base", n_streams=4, noise=0.3, seed=0)
    rows = pipeline.run_sweep(
        base,
        param="sigma",
        values=[2.0, 8.0, 1e9],
        seeds=list(range(10)),
        out_dir=tmp_path / "sweep",
    )
    stats = {point[0]: (mean, se) for point, mean, se, _ in rows}
    off_mean, off_se = stats[1e9]
    best_sigma, (best_mean, best_se) = max(
        ((s, v) for s, v in stats.items() if s < 1e9), key=lambda kv: kv[1][0]
    )
    margin = best_mean - off_mean
    ok = margin >= max(best_se, off_se)
    _verdict(
        8,
        ok,
        f"sigma={best_sigma:g} mean {best_mean:.3f} vs sigma=1e9 {off_mean:.3f}; "
        f"margin {margin:.3f} >= 1 SE ({max(best_se, off_se):.3f}), noise 0.3, 10 seeds",
    )


def test_criterion_09_partial_supervision_non_inferiority(tmp_path):
    semi_scores, unsup_scores = [], []
    for seed in range(10):
        streams, preds = _suite_scores(
            tmp_path, seed, noise=0.1, supervised_fraction=0.5, supervision="soft"
        )
        for s, p in zip(streams, preds):
            if not s.supervised:
                semi_scores.append(jaccard_score(p, s.annotation, s.background))
        streams, preds = _suite_scores(tmp_path, seed, noise=0.1, supervision="none")
        for s, p in zip(streams, preds):
            unsup_scores.append(jaccard_score(p, s.annotation, s.background))
    semi_mean = float(np.mean(semi_scores))
    unsup_mean = float(np.mean(unsup_scores))
    unsup_se = float(np.std(unsup_scores, ddof=1) / np.sqrt(len(unsup_scores)))
    ok = semi_mean >= unsup_mean - unsup_se
    _verdict(
        9,
        ok,
        f"unsupervised-stream mean with 50% soft supervision {semi_mean:.3f} vs "
        f"fully unsupervised {unsup_mean:.3f} - SE {unsup_se:.3f}, 10 seeds",
    )


def test_criterion_10_aligned_runs_are_bit_deterministic(tmp_path):
    suite = tmp_path / "suite"
    assert cli.main(["synth", "--out-dir", str(suite), "--streams", "2", "--seed", "3"]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    manifest = str(suite / "manifest.json")
    for out in (a, b):
        code = cli.main(
            ["align", "--manifest", manifest, "--out-dir", str(out), "--max-iter", "400"]
        )
        assert code == 0
    n_streams = len(read_manifest(manifest).streams)
    ok = all(
        (a / f"pred_stream_{n:02d}.csv").read_bytes()
        == (b / f"pred_stream_{n:02d}.csv").read_bytes()
        for n in range(n_streams)
    )
    _verdict(10, ok, "repeated align runs produce bit-identical prediction files")

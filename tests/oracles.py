"""Brute-force references the tests check the package against.

Exhaustive path enumeration, the per-stream DP and linear oracle, the
Helmert basis of the weight-space correction, the vertex matrix of a path,
the dense kernel Q and the dense gradient, the joint ridge objective, the
three rounding criteria and a duality-gap certificate of a solve.  Each is
written independently of the fast path it arbitrates; none is used by the
package itself.
"""

from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve

from seqalign.polytope import AlignmentPath, InfeasibleError, blocks_to_matrix, lmo_blocks
from seqalign.priors import band_penalty, duration_penalty

# Hard caps for exhaustive enumeration.
ENUM_MAX_I = 14
ENUM_MAX_J = 7


def path_to_matrix(path):
    """Binary (J, I) assignment matrix of a path."""
    I, J = path.i_count, path.j_count
    y = np.zeros((J, I))
    y[path.assignment, np.arange(I)] = 1.0
    return y


def matrix_to_path(y):
    """Inverse of path_to_matrix for binary vertex matrices (argmax per column)."""
    return AlignmentPath(np.argmax(y, axis=0), j_count=y.shape[0])


def enumerate_paths(i_count, j_count, mask=None):
    """All alignment paths, C(I-1, J-1) of them when unmasked.

    Guarded against combinatorial explosion.
    """
    if i_count > ENUM_MAX_I or j_count > ENUM_MAX_J:
        raise ValueError(
            f"enumeration guard: I <= {ENUM_MAX_I} and J <= {ENUM_MAX_J} required"
        )
    if j_count > i_count:
        return []
    forbidden = mask.forbidden if mask is not None else None
    cols = np.arange(i_count)
    paths = []
    # A path is determined by the J-1 columns at which the row advances.
    for steps in combinations(range(1, i_count), j_count - 1):
        assignment = np.zeros(i_count, dtype=np.int64)
        for s in steps:
            assignment[s:] += 1
        if forbidden is not None and forbidden[assignment, cols].any():
            continue
        paths.append(AlignmentPath(assignment, j_count=j_count))
    return paths


def path_count(i_count, j_count):
    """Number of unmasked vertices, C(I-1, J-1)."""
    return comb(i_count - 1, j_count - 1)


def dp_align_single(cost):
    """Suffix-cost DP of one (J, I) cost block, vectorized over its rows.

    Forbidden cells carry +inf.  Returns (value, path) where path[i] is the
    0-based row assigned to column i.  Ties prefer staying on the current
    row.
    """
    J, I = cost.shape
    S = np.full((J, I), np.inf)
    S[J - 1, I - 1] = cost[J - 1, I - 1]
    shifted = np.empty(J)
    for i in range(I - 2, -1, -1):
        nxt = S[:, i + 1]
        shifted[:-1] = nxt[1:]
        shifted[-1] = np.inf
        jlo = max(0, J - I + i)
        jhi = min(J - 1, i)
        sl = slice(jlo, jhi + 1)
        S[sl, i] = cost[sl, i] + np.minimum(nxt[sl], shifted[sl])
    value = S[0, 0]
    path = np.empty(I, dtype=np.int64)
    path[0] = 0
    j = 0
    for i in range(1, I):
        if j + 1 < J and S[j + 1, i] < S[j, i]:
            j += 1
        path[i] = j
    return value, path


def lmo_blocks_single(cost, layout, masks=None):
    """Stream by stream, each block's (path, value) from dp_align_single."""
    out = []
    for n in range(layout.n_streams):
        block = np.array(layout.block(cost, n), dtype=np.float64)
        J, I = block.shape
        if J > I:
            raise InfeasibleError(f"no monotone path exists for J={J} > I={I}")
        if masks is not None and masks[n] is not None:
            block[masks[n].forbidden] = np.inf
        value, path = dp_align_single(block)
        if not np.isfinite(value):
            raise InfeasibleError("mask forbids every monotone path")
        out.append((AlignmentPath(path, j_count=J), float(value)))
    return out


def diagonal_blocks(matrix, layout):
    """Stream by stream, the (J_n, I_n) diagonal blocks of a (J_total, I_total) matrix."""
    return [layout.block(matrix, n) for n in range(layout.n_streams)]


def compute_q_dense(phi, lam):
    """Q = Id - phi^T G^{-1} phi, averaged with its transpose, from three (I, I) arrays.

    The formula core.compute_q replaced; the tests require its bits.
    """
    D, I = phi.shape
    gram_factor = cho_factor(phi @ phi.T + I * lam * np.eye(D))
    q = np.eye(I) - phi.T @ cho_solve(gram_factor, phi)
    return 0.5 * (q + q.T)


def gradient_dense(instance, y):
    """The (J_total, I_total) gradient psi^T ((psi Y) Q) / I + (Y 1 - mu) 1^T / sigma^2 + alpha Y_c.

    The formula solver.gradient replaced, off-block cells included; the
    tests require the bits of its diagonal blocks.
    """
    y = np.asarray(y, dtype=np.float64)
    p = instance.priors
    g = instance.psi.T @ ((instance.psi @ y) @ instance.kernel.q_matrix)
    g /= instance.layout.i_total
    d = (y.sum(axis=1) - p.mu) / p.sigma**2
    g += d[:, None]
    g += p.alpha * block_diag(*instance.band)
    return g


def sum_zero_basis(stream_f):
    """Orthonormal basis of the vectors whose per-stream sums are zero, stream by stream.

    A stream of m entries contributes the m - 1 columns of a Helmert basis
    on them, the streams in ascending order.
    """
    streams = np.unique(stream_f)
    z = np.zeros((stream_f.size, stream_f.size - streams.size))
    col = 0
    for n in streams:
        idx = np.flatnonzero(stream_f == n)
        k = np.arange(1, idx.size)
        helmert = np.triu(np.ones((idx.size, k.size)))
        helmert[k, k - 1] = -k
        z[idx, col : col + k.size] = helmert / np.sqrt(k * (k + 1))
        col += k.size
    return z


def ridge_residual(psi, y, phi, w, lam):
    """Joint objective (1/2I)||psi Y - W phi||_F^2 + (lam/2)||W||_F^2.

    Independent of the reduced form; evaluating it at fit_model's W* must
    reproduce discriminative_cost.
    """
    psi = np.asarray(psi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if psi.shape[1] != y.shape[0] or y.shape[1] != phi.shape[1]:
        raise ValueError("shape mismatch between psi, y and phi")
    if w.shape != (psi.shape[0], phi.shape[0]):
        raise ValueError("w has wrong shape")
    I = phi.shape[1]
    resid = psi @ y - w @ phi
    return float(np.sum(resid * resid) / (2.0 * I) + 0.5 * lam * np.sum(w * w))


def nearest_criterion(path, y_star):
    """||Y - Y*||_F^2, the criterion round_nearest minimizes."""
    y = path_to_matrix(path)
    return float(np.sum((y - y_star) ** 2))


def feature_criterion(path, y_star, psi):
    """||psi (Y - Y*)||_F^2, the criterion round_feature minimizes."""
    y = path_to_matrix(path)
    return float(np.sum((psi @ (y - y_star)) ** 2))


def model_criterion(path, w, psi, phi):
    """||psi Y - W phi||_F^2, the criterion round_model minimizes."""
    y = path_to_matrix(path)
    return float(np.sum((psi @ y - w @ phi) ** 2))


def reference_certificate(instance, result, hp):
    """(objective, duality gap) of result.y_relaxed, computed without the solver's code.

    The objective is the joint ridge objective at W*, solved with
    np.linalg.solve on G = phi phi^T + I*lam*Id rather than the Cholesky
    factor, plus the two priors.  The gradient takes the dense
    Q = Id - phi^T G^{-1} phi; the linear minimizer is lmo_blocks, which the
    tests check against enumeration.  hp is the solve's Hyperparameters.
    """
    psi, phi, y, p = instance.psi, instance.phi, result.y_relaxed, instance.priors
    D, I = phi.shape
    gram = phi @ phi.T + I * hp.lam * np.eye(D)
    w = np.linalg.solve(gram, phi @ (psi @ y).T).T
    f = ridge_residual(psi, y, phi, w, hp.lam)
    band = block_diag(*instance.band)
    f += duration_penalty(y, p) + band_penalty(y, band, hp.alpha)
    q = np.eye(I) - phi.T @ np.linalg.solve(gram, phi)
    grad = (psi.T @ psi) @ y @ q / I
    grad += ((y.sum(axis=1) - p.mu) / p.sigma**2)[:, None] + hp.alpha * band
    v_paths, _ = lmo_blocks(diagonal_blocks(grad, instance.layout), instance.masks)
    v = blocks_to_matrix(v_paths, instance.layout)
    return f, float(np.sum(grad * (y - v)))

"""Brute-force references the tests check the package against.

Exhaustive path enumeration, the per-stream DP and linear oracle, the
set-based forms of an annotation's interval mask and Jaccard score, the
Helmert basis of the weight-space correction, the vertex matrix of a path
and the dense iterate of weighted paths, the dense kernel Q and the dense
gradient, the reduced cost, the two priors and the objective they sum to
with the dense Q, the joint ridge objective, the three rounding criteria
and a duality-gap certificate of a solve.  Each is written independently
of the fast path it arbitrates; none is used by the package itself.  The
stream-by-stream gradient and Gram rows and the scipy face step are the
forms the package's batched ones replaced, kept here because the tests
require their bits.
"""

from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve

from seqalign.polytope import AlignmentPath, InfeasibleError, blocks_to_matrix, lmo_blocks

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
    cols = np.arange(i_count)
    paths = []
    # A path is determined by the J-1 columns at which the row advances.
    for steps in combinations(range(1, i_count), j_count - 1):
        assignment = np.zeros(i_count, dtype=np.int64)
        for s in steps:
            assignment[s:] += 1
        if mask is not None and mask[assignment, cols].any():
            continue
        paths.append(AlignmentPath(assignment, j_count=j_count))
    return paths


def annotation_rows(ann):
    """Row index -> set of the columns an annotation's intervals cover."""
    out = {}
    for j, a, b in ann.entries:
        out.setdefault(j, set()).update(range(a, b))
    return out


def interval_mask_sets(ann, j_count, i_count, background_set):
    """Soft supervision's (J, I) mask from annotation_rows' sets."""
    forbidden = np.zeros((j_count, i_count), dtype=bool)
    for j, cols in annotation_rows(ann).items():
        if j in background_set:
            continue
        forbidden[j, :] = True
        forbidden[j, sorted(cols)] = False
    return forbidden


def jaccard_sets(pred, gt, background_set):
    """jaccard_score from annotation_rows' sets and the path's columns of each row."""
    scores = []
    for j, cols in annotation_rows(gt).items():
        if j in background_set:
            continue
        pred_j = np.flatnonzero(pred.assignment == j)
        if pred_j.size == 0:
            scores.append(0.0)
        else:
            scores.append(len(cols.intersection(pred_j.tolist())) / pred_j.size)
    if not scores:
        raise ValueError("no scorable rows")
    return float(np.mean(scores))


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
            block[masks[n]] = np.inf
        value, path = dp_align_single(block)
        if not np.isfinite(value):
            raise InfeasibleError("mask forbids every monotone path")
        out.append((AlignmentPath(path, j_count=J), float(value)))
    return out


def diagonal_blocks(matrix, layout):
    """Stream by stream, the (J_n, I_n) diagonal blocks of a (J_total, I_total) matrix."""
    return [layout.block(matrix, n) for n in range(layout.n_streams)]


def iterate_dense(layout, vertices, weights):
    """Sum of w_k V_k over the (stream, row array) pairs ``vertices``, as a fresh dense array.

    Each cell is summed in vertex order, starting from +0.0.
    """
    y = np.zeros((layout.j_total, layout.i_total))
    for (n, a), w in zip(vertices, weights):
        layout.block(y, n)[a, np.arange(a.size)] += w
    return y


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

    The formula solver.gradient replaced, off-block cells included, with the
    dense Q; the tests hold its diagonal blocks to within round-off.
    """
    y = np.asarray(y, dtype=np.float64)
    g = instance.psi.T @ ((instance.psi @ y) @ instance.kernel.q_matrix)
    g /= instance.layout.i_total
    d = (y.sum(axis=1) - instance.mu) / instance.sigma**2
    g += d[:, None]
    g += instance.alpha * block_diag(*instance.band)
    return g


def discriminative_cost(psi, y, kernel):
    """Reduced cost q(Y) = (1 / 2I) Tr(psi Y Q Y^T psi^T); non-negative."""
    psi = np.asarray(psi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    i_total = kernel.q_matrix.shape[0]
    if psi.shape[1] != y.shape[0] or y.shape[1] != i_total:
        raise ValueError("shape mismatch between psi, y and kernel")
    py = psi @ y
    return float(np.sum((py @ kernel.q_matrix) * py) / (2.0 * i_total))


def duration_penalty(y, mu, sigma):
    """(1 / 2 sigma^2) || Y 1_I - mu ||_2^2, mu the (J,) vector of row targets."""
    y = np.asarray(y, dtype=np.float64)
    if mu.shape != (y.shape[0],):
        raise ValueError(f"mu vector has length {mu.size}, expected {y.shape[0]}")
    d = y.sum(axis=1) - mu
    return float(np.dot(d, d) / (2.0 * sigma**2))


def band_penalty(y, y_c, alpha):
    """alpha * Tr(Y_c^T Y): penalized mass outside the diagonal band.

    y_c is the 0/1 indicator of the cells outside the band (see
    polytope.band_indicator), of y's shape: one stream's block of Y and its
    band, whose terms objective_dense adds up stream by stream.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.shape(y_c) != y.shape:
        raise ValueError("band indicator shape does not match y")
    return float(alpha * np.sum(y_c * y))


def objective_dense(instance, y):
    """q(Y) + r(Y) + l(Y) of a dense (J_total, I_total) Y, with the dense Q.

    The formula solver.objective replaced; any Y, off-block cells included.
    """
    layout, alpha = instance.layout, instance.alpha
    band = sum(band_penalty(layout.block(y, n), y_c, alpha) for n, y_c in enumerate(instance.band))
    return (
        discriminative_cost(instance.psi, y, instance.kernel)
        + duration_penalty(y, instance.mu, instance.sigma)
        + band
    )


def _span(start, size, total):
    """start:start+size, or two indices around start where size is 1 < total, and start's place."""
    if size == 1 < total:
        lo = min(start, total - 2)
        return slice(lo, lo + 2), start - lo
    return slice(start, start + size), 0


def gradient_per_stream(instance, y):
    """Stream by stream, the gradient's diagonal blocks with one product psi_n^T x_n each.

    x = (psi Y) Q is taken from the Gram factor G of Q = Id - phi^T G^{-1} phi,
    as psi Y - (G^{-1} phi (psi Y)^T)^T phi.  A block of one row (column) is
    taken from the product of a two-row (two-column) slice, which keeps it
    on BLAS's matrix kernel.
    """
    y = np.asarray(y, dtype=np.float64)
    layout, phi = instance.layout, instance.phi
    py = instance.psi @ y
    x = py - cho_solve(instance.kernel.gram_factor, phi @ py.T).T @ phi
    d = (y.sum(axis=1) - instance.mu) / instance.sigma**2
    blocks = []
    for n, y_c in enumerate(instance.band):
        J, I = y_c.shape
        j0 = layout.j_offsets[n]
        rows, r = _span(j0, J, layout.j_total)
        cols, c = _span(layout.i_offsets[n], I, layout.i_total)
        g = (instance.psi[:, rows].T @ x[:, cols])[r : r + J, c : c + I]
        g /= layout.i_total
        g += d[j0 : j0 + J, None]
        g += instance.alpha * y_c
        blocks.append(g)
    return blocks


def gram_per_vertex(instance, vertices):
    """H and b of the weight-space quadratic for (stream, row array) pairs added one at a time.

    A pair already added is skipped.  Each new vertex's row of H is
    computed stream by stream against the vertices before it and itself:
    (1/I) <psi_m V_l, (psi V Q)_m> summed over V_l's cells, plus the
    duration term within its stream; H grows by one row and column.
    """
    layout, psi, q = instance.layout, instance.psi, instance.kernel.q_matrix
    sigma2 = instance.sigma**2
    members = [[] for _ in range(layout.n_streams)]
    rows = [[] for _ in range(layout.n_streams)]
    durations = [[] for _ in range(layout.n_streams)]
    seen, b = set(), []
    h = np.zeros((0, 0))
    for n, a in vertices:
        key = (n, a.tobytes())
        if key in seen:
            continue
        seen.add(key)
        i0, j0 = layout.i_offsets[n], layout.j_offsets[n]
        image = psi[:, j0 + a] @ q[i0 : i0 + a.size]
        size = len(b) + 1
        members[n].append(size - 1)
        rows[n].append(a)
        # The number of columns on each row of the path.
        d_new = (a == np.arange(layout.j_sizes[n])[:, None]).sum(axis=1)
        durations[n].append(d_new)
        row = np.empty(size)
        for m in range(layout.n_streams):
            if not members[m]:
                continue
            i0m, j0m = layout.i_offsets[m], layout.j_offsets[m]
            im, jm = layout.i_sizes[m], layout.j_sizes[m]
            c = psi[:, j0m : j0m + jm].T @ image[:, i0m : i0m + im]
            row[members[m]] = c[np.array(rows[m]), np.arange(im)].sum(axis=1)
        row /= layout.i_total
        row[members[n]] += np.array(durations[n]) @ d_new / sigma2
        b_new = -float(instance.mu[j0 : j0 + layout.j_sizes[n]] @ d_new) / sigma2
        b_new += instance.alpha * float(instance.band[n][a, np.arange(a.size)].sum())
        grown = np.empty((size, size))
        grown[:-1, :-1] = h
        grown[-1, :] = row
        grown[:, -1] = row
        h = grown
        b.append(b_new)
    return h, np.array(b)


def face_direction_scipy(h, g, free, stream):
    """The face step of the weight-space correction with np.ix_, cho_factor and cho_solve."""
    f = np.flatnonzero(free)
    z = sum_zero_basis(stream[f])
    d = np.zeros_like(g)
    if z.shape[1] == 0:
        return d
    ridge = 1e-10 * np.max(np.diag(h)) or 1.0
    a = z.T @ (h[np.ix_(f, f)] @ z)
    a[np.diag_indices_from(a)] += ridge
    d[f] = z @ -cho_solve(cho_factor(a, overwrite_a=True), z.T @ g[f])
    return d


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
    psi, phi, y, mu = instance.psi, instance.phi, result.y_relaxed, instance.mu
    D, I = phi.shape
    gram = phi @ phi.T + I * hp.lam * np.eye(D)
    w = np.linalg.solve(gram, phi @ (psi @ y).T).T
    f = ridge_residual(psi, y, phi, w, hp.lam)
    band = block_diag(*instance.band)
    f += duration_penalty(y, mu, instance.sigma) + band_penalty(y, band, hp.alpha)
    q = np.eye(I) - phi.T @ np.linalg.solve(gram, phi)
    grad = (psi.T @ psi) @ y @ q / I
    grad += ((y.sum(axis=1) - mu) / instance.sigma**2)[:, None] + hp.alpha * band
    v_rows, _ = lmo_blocks(diagonal_blocks(grad, instance.layout), instance.masks)
    v = blocks_to_matrix(v_rows, instance.layout)
    return f, float(np.sum(grad * (y - v)))

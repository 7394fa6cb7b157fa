"""Fully-corrective Frank-Wolfe minimization of the relaxed alignment objective.

The relaxed problem minimizes q(Y) + r(Y) + l(Y) over the convex hull of
the block-diagonal alignment vertices.  Each iteration calls the dynamic
programming oracle on the gradient, which gives one vertex per stream and
the duality gap <grad, Y - V> that certifies suboptimality.  The iterate is
kept as a convex combination of vertices, one weighted set per stream; the
oracle's vertices join those sets and the objective, a quadratic in the
weights, is minimized again over the product of the per-stream simplices.
Plain Frank-Wolfe converges at O(1/t) when the optimum lies inside a face
of the polytope; the fully-corrective variant converges linearly
(Lacoste-Julien & Jaggi, NeurIPS 2015).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import CostKernel, discriminative_cost, fit_model
from .evaluation import diagonal_path
from .polytope import (
    StreamLayout,
    band_indicator,
    blocks_to_matrix,
    lmo_blocks,
    minimize_linear,
)
from .priors import PriorConfig, band_penalty, duration_penalty


@dataclass(frozen=True)
class ProblemInstance:
    """A fully assembled relaxed alignment problem.

    phi and psi are the concatenated (and, for phi, affine-augmented)
    feature matrices; masks is a per-stream tuple of CellMask, None where a
    stream is unconstrained.  A hard-supervised stream is pinned by a mask
    that admits only its annotated path.
    """

    psi: np.ndarray  # (E, J_total)
    phi: np.ndarray  # (D, I_total)
    layout: StreamLayout
    kernel: CostKernel
    priors: PriorConfig
    band: tuple  # per stream, its (J_n, I_n) band indicator Y_c
    masks: tuple


@dataclass
class SolveResult:
    y_relaxed: np.ndarray
    w_star: np.ndarray
    objective_trace: list = field(default_factory=list)
    gap_trace: list = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""  # "gap_tol", "stalled" or "max_iter"; see solve

    @property
    def converged(self):
        return self.stop_reason == "gap_tol"


def block_band(layout, beta):
    """Each stream's (J_n, I_n) band indicator, the diagonal blocks of Y_c."""
    return tuple(band_indicator(j, i, beta) for j, i in zip(layout.j_sizes, layout.i_sizes))


def objective(instance, y):
    """q(Y) + r(Y) + l(Y) of a dense (J_total, I_total) Y."""
    layout, alpha = instance.layout, instance.priors.alpha
    band = sum(band_penalty(layout.block(y, n), y_c, alpha) for n, y_c in enumerate(instance.band))
    return (
        discriminative_cost(instance.psi, y, instance.kernel)
        + duration_penalty(y, instance.priors)
        + band
    )


def _matrix_span(start, size, total):
    """The slice start:start+size, or two indices around start where size is 1 < total.

    numpy computes a product with one row or column on BLAS's vector
    kernels, which round otherwise than the matrix kernel of the whole
    product; a neighbouring row or column keeps a block's product on the
    matrix kernel.  Returns the slice and the place of start in it.
    """
    if size == 1 < total:
        lo = min(start, total - 2)
        return slice(lo, lo + 2), start - lo
    return slice(start, start + size), 0


def gradient(instance, y):
    """Stream by stream, the (J_n, I_n) diagonal blocks of the gradient at Y.

    The gradient is (1/I) psi^T psi Y Q + (1/sigma^2)(Y 1 - mu) 1^T + alpha Y_c;
    the oracle, the gap and the line search read only its diagonal blocks.
    The data term is taken as psi_n^T x_n with x = (psi Y) Q: the product
    with Q costs E I^2 flops instead of the J I^2 of (psi^T psi Y) Q, and the
    text dimension E is below J_total on any suite of more than a few
    streams.  Y stays dense, so that psi Y and the row sums Y 1 are summed
    as for the whole matrix, and each cell of a block gets the bits of the
    dense (J_total, I_total) formula.
    """
    y = np.asarray(y, dtype=np.float64)
    p, layout = instance.priors, instance.layout
    x = (instance.psi @ y) @ instance.kernel.q_matrix
    d = (y.sum(axis=1) - p.mu) / p.sigma**2
    blocks = []
    for n, y_c in enumerate(instance.band):
        J, I = y_c.shape
        j0 = layout.j_offsets[n]
        rows, r = _matrix_span(j0, J, layout.j_total)
        cols, c = _matrix_span(layout.i_offsets[n], I, layout.i_total)
        g = (instance.psi[:, rows].T @ x[:, cols])[r : r + J, c : c + I]
        g /= layout.i_total
        g += d[j0 : j0 + J, None]
        g += p.alpha * y_c
        blocks.append(g)
    return blocks


def _clamped_step(slope, curvature):
    """Minimizer over [0, 1] of slope * t + curvature * t^2 / 2."""
    if not np.isfinite(curvature) or curvature <= 1e-14:
        return 1.0 if slope < 0 else 0.0
    return float(np.clip(-slope / curvature, 0.0, 1.0))


def exact_line_search(instance, y, direction, grad=None):
    """Optimal step in [0, 1] along a vertex direction of the quadratic.

    y and direction are dense; grad, if given, is gradient's blocks at y.
    gamma* = clamp(-<grad, D> / c, 0, 1) with curvature
    c = (1/I) Tr(psi D Q D^T psi^T) + (1/sigma^2) ||D 1||^2.
    """
    if grad is None:
        grad = gradient(instance, y)
    d = np.asarray(direction, dtype=np.float64)
    slope = float(sum(np.sum(g * instance.layout.block(d, n)) for n, g in enumerate(grad)))
    pd = instance.psi @ d
    c = float(np.sum((pd @ instance.kernel.q_matrix) * pd)) / instance.layout.i_total
    r = d.sum(axis=1)
    c += float(np.dot(r, r)) / instance.priors.sigma**2
    return _clamped_step(slope, c)


def _path_sum(block, path):
    """<block, V> for the vertex matrix V of a path."""
    return float(block[path.assignment, np.arange(path.i_count)].sum())


class _ActiveSet:
    """Per-stream vertex sets whose weighted sum is the iterate.

    Vertex k is a path of stream ``stream[k]`` with weight ``w[k]``; the
    weights of each stream sum to one.  At Y = sum_k w_k V_k the objective
    is 0.5 w^T H w + b^T w + ||mu||^2 / (2 sigma^2) with

        H_kl = (1/I) <psi V_k Q, psi V_l> + (1/sigma^2) <V_k 1, V_l 1>,
        b_k  = -(1/sigma^2) <mu, V_k 1> + alpha <Y_c, V_k>.

    Only the paths and H and b are kept, not the images psi V_k Q.  Stream
    n's vertex indices, in ascending order, are ``members[n]``, and their
    assignments and durations are the rows of ``rows[n]`` and
    ``durations[n]``; ``lookup`` maps (stream, assignment bytes) to the index.
    """

    def __init__(self, instance):
        self.instance = instance
        layout = instance.layout
        self.lookup = {}
        self.stream = np.zeros(0, dtype=np.int64)
        self.members = [np.zeros(0, dtype=np.int64) for _ in range(layout.n_streams)]
        self.rows = [np.zeros((0, i), dtype=np.int64) for i in layout.i_sizes]
        self.durations = [np.zeros((0, j), dtype=np.int64) for j in layout.j_sizes]
        self.w = np.zeros(0)
        self.h = np.zeros((0, 0))
        self.b = np.zeros(0)
        p = instance.priors
        self.const = float(p.mu @ p.mu) / (2.0 * p.sigma**2)

    def objective(self, w):
        return float(0.5 * (w @ (self.h @ w)) + self.b @ w + self.const)

    def matrix(self):
        """The iterate Y = sum_k w_k V_k, each cell summed in vertex order."""
        layout = self.instance.layout
        y = np.zeros((layout.j_total, layout.i_total))
        for n in range(layout.n_streams):
            cells = (self.rows[n], np.arange(layout.i_sizes[n]))
            np.add.at(layout.block(y, n), cells, self.w[self.members[n], None])
        return y

    def gap(self, grad, v_paths):
        """<grad, Y - V>, summed stream by stream; grad is gradient's blocks."""
        layout = self.instance.layout
        gap = 0.0
        for n, (g_n, v) in enumerate(zip(grad, v_paths)):
            sums = g_n[self.rows[n], np.arange(layout.i_sizes[n])].sum(axis=1)
            y_dot = sum(self.w[self.members[n]] * sums)
            gap += y_dot - _path_sum(g_n, v)
        return float(gap)

    def index(self, n, path):
        """Index of stream n's vertex ``path``, added with weight 0 if new."""
        key = (n, path.assignment.tobytes())
        if key not in self.lookup:
            self.lookup[key] = self.stream.size
            self._add(n, path)
        return self.lookup[key]

    def _add(self, n, path):
        inst, layout = self.instance, self.instance.layout
        sigma2 = inst.priors.sigma**2
        i0, j0 = layout.i_offsets[n], layout.j_offsets[n]
        # psi V Q of the new vertex needs only stream n's rows of Q.
        image = inst.psi[:, j0 + path.assignment] @ inst.kernel.q_matrix[i0 : i0 + path.i_count]
        size = self.stream.size + 1
        self.stream = np.append(self.stream, n)
        self.members[n] = np.append(self.members[n], size - 1)
        self.rows[n] = np.vstack([self.rows[n], path.assignment])
        d_new = path.durations()
        self.durations[n] = np.vstack([self.durations[n], d_new])
        row = np.empty(size)
        for m in range(layout.n_streams):
            members = self.members[m]
            if members.size == 0:
                continue
            i0m, j0m = layout.i_offsets[m], layout.j_offsets[m]
            im, jm = layout.i_sizes[m], layout.j_sizes[m]
            c = inst.psi[:, j0m : j0m + jm].T @ image[:, i0m : i0m + im]
            row[members] = c[self.rows[m], np.arange(im)].sum(axis=1)
        row /= layout.i_total
        row[self.members[n]] += self.durations[n] @ d_new / sigma2
        j_slice = slice(j0, j0 + layout.j_sizes[n])
        b_new = -float(inst.priors.mu[j_slice] @ d_new) / sigma2
        b_new += inst.priors.alpha * _path_sum(inst.band[n], path)

        h = np.empty((size, size))
        h[:-1, :-1] = self.h
        h[-1, :] = row
        h[:, -1] = row
        self.h = h
        self.b = np.append(self.b, b_new)
        self.w = np.append(self.w, 0.0)

    def prune(self):
        """Drop the vertices of weight zero and number the rest in the same order."""
        alive = self.w > 0
        keep = np.flatnonzero(alive)
        renumbered = np.cumsum(alive) - 1
        self.stream = self.stream[keep]
        self.w = self.w[keep]
        self.h = self.h[np.ix_(keep, keep)]
        self.b = self.b[keep]
        for m, members in enumerate(self.members):
            live = alive[members]
            self.members[m] = renumbered[members[live]]
            self.rows[m] = self.rows[m][live]
            self.durations[m] = self.durations[m][live]
        self.lookup = {
            (m, row.tobytes()): k
            for m, members in enumerate(self.members)
            for k, row in zip(members.tolist(), self.rows[m])
        }

    def corrected_weights(self, v_paths):
        """Add v_paths to the active sets; weights after a step towards them and a full correction.

        The Frank-Wolfe step towards the product vertex is the exact line
        search in the weights; the correction starts from it, so it is never
        worse.  The current weights are left as they are.
        """
        fw = [self.index(n, v) for n, v in enumerate(v_paths)]
        w = self.w
        d = -w
        d[fw] += 1.0
        gamma = _clamped_step((self.h @ w + self.b) @ d, d @ (self.h @ d))
        return _minimize_on_simplices(
            self.h, self.b, self.stream, self.instance.layout.n_streams, w + gamma * d
        )


def _reduced_costs(g, free, stream, n_streams):
    """g minus, per stream, the mean of g over the stream's free weights."""
    total = np.bincount(stream[free], g[free], n_streams)
    count = np.bincount(stream[free], minlength=n_streams)
    return g - (total / count)[stream]


def _sum_zero_basis(stream_f):
    """Orthonormal basis of the vectors whose per-stream sums are zero.

    stream_f lists the stream of each entry; a stream of m entries
    contributes the m - 1 columns of a Helmert basis on them, the streams in
    ascending order.  Column k of a stream's block is 1/sqrt(k(k+1)) on its
    first k entries, -k/sqrt(k(k+1)) on entry k + 1 and 0 elsewhere.
    """
    order = np.argsort(stream_f, kind="stable")
    streams, first, counts = np.unique(stream_f[order], return_index=True, return_counts=True)
    # Position of each entry among its stream's entries.
    position = np.empty(stream_f.size, dtype=np.int64)
    position[order] = np.arange(stream_f.size) - np.repeat(first, counts)
    # Stream and k of each column.
    col_stream = np.repeat(streams, counts - 1)
    k = np.arange(col_stream.size) - np.repeat(first - np.arange(streams.size), counts - 1) + 1
    norm = np.sqrt(k * (k + 1))
    same = stream_f[:, None] == col_stream
    pos = position[:, None]
    z = np.where(same & (pos < k), 1.0 / norm, 0.0)
    return np.where(same & (pos == k), -k / norm, z)


def _face_direction(h, g, free, stream):
    """Descent direction on the face of the support: zero off ``free``, stream sums zero.

    The Newton step on the face, in an orthonormal basis of it, with a ridge
    of 1e-10 times the largest diagonal entry of h so that a singular face
    still has one.  Along a flat part of the face the objective falls
    linearly; there the step is about 1e10 times longer, so it runs to the
    boundary, where a weight leaves the support.
    """
    f = np.flatnonzero(free)
    z = _sum_zero_basis(stream[f])
    d = np.zeros_like(g)
    if z.shape[1] == 0:
        return d
    ridge = 1e-10 * np.max(np.diag(h)) or 1.0
    a = z.T @ (h[np.ix_(f, f)] @ z)
    a[np.diag_indices_from(a)] += ridge
    d[f] = z @ -cho_solve(cho_factor(a, overwrite_a=True), z.T @ g[f])
    return d


def _to_boundary(w, p):
    """The longest feasible move t * p from w, and the weight it zeroes."""
    neg = np.flatnonzero(p < 0)
    if neg.size == 0:
        return np.zeros_like(p), -1
    ratios = w[neg] / -p[neg]
    k = int(np.argmin(ratios))
    return ratios[k] * p, int(neg[k])


def _minimize_on_simplices(h, b, stream, n_streams, w):
    """Minimize 0.5 w^T h w + b^T w over a product of simplices, from a feasible w.

    A primal active-set method.  On the face of the current support it steps
    along _face_direction, cut at the boundary, where a weight that reaches
    zero leaves the support.  Once the support's reduced costs are equal,
    the weight of most negative reduced cost (re-)enters; none negative is
    the optimum.  Should that direction not descend, a projected-gradient
    step is taken instead.  Each step is an exact line search, so the
    objective never rises.
    """
    w = w.copy()
    free = w > 0
    for _ in range(3 * w.size + 10):
        g = h @ w + b
        r = _reduced_costs(g, free, stream, n_streams)
        tol = 1e-12 * max(1.0, float(np.abs(g).max()))
        if np.abs(r[free]).max() <= tol:
            k = int(np.argmin(np.where(free, np.inf, r)))
            if free[k] or r[k] >= -tol:
                break
            free[k] = True
            r = _reduced_costs(g, free, stream, n_streams)
        d, blocking = _to_boundary(w, _face_direction(h, g, free, stream))
        if not g @ d < 0:
            d, blocking = _to_boundary(w, np.where(free, -r, 0.0))
        gamma = _clamped_step(g @ d, d @ (h @ d))
        if gamma <= 0.0:
            break
        w += gamma * d
        if gamma == 1.0:
            w[blocking] = 0.0
        np.maximum(w, 0.0, out=w)
        w /= np.bincount(stream, w, n_streams)[stream]
        free = w > 0
    return w


def _initial_paths(instance):
    """Mask-feasible starting vertex, the uniform diagonal path when allowed."""
    layout = instance.layout
    paths = []
    for n in range(layout.n_streams):
        I, J = layout.i_sizes[n], layout.j_sizes[n]
        mask = instance.masks[n]
        diag = diagonal_path(I, J)
        if mask is None or not mask.forbidden[diag.assignment, np.arange(I)].any():
            paths.append(diag)
        else:
            # Fall back to the feasible path closest to the diagonal.
            j = np.arange(J)[:, None] / J
            i = np.arange(I)[None, :] / I
            p, _ = minimize_linear(np.abs(j - i), mask)
            paths.append(p)
    return paths


def solve(instance, max_iter=2000, gap_tol=1e-6):
    """Run fully-corrective Frank-Wolfe until the duality gap closes.

    It starts from the diagonal path of each stream, or the nearest
    mask-feasible vertex where the mask forbids it.  Iterate t has one
    entry in each trace: its objective and its gap certificate
    <grad, Y_t - V_t>, which bounds its distance to the relaxed optimum.
    The objective trace is non-increasing.  The solve stops at the first
    iterate t where one of these holds, and returns that iterate:

    - its gap is at most gap_tol: ``converged`` and stop_reason "gap_tol";
    - t == max_iter, the budget of corrections spent: stop_reason
      "max_iter";
    - the correction from it does not lower the objective, which happens
      only when the gap is as small as rounding error lets it be:
      stop_reason "stalled".

    ``iterations`` is that t, the number of corrections made.  A stream
    whose mask admits no path raises InfeasibleError, a ValueError, before
    the first iteration.
    """
    layout = instance.layout
    paths = _initial_paths(instance)
    active = _ActiveSet(instance)
    for n, p in enumerate(paths):
        active.index(n, p)
    active.w[:] = 1.0
    y = blocks_to_matrix(paths, layout)

    result = SolveResult(y_relaxed=y, w_star=None)
    obj = active.objective(active.w)
    if not np.isfinite(obj):
        raise ValueError("non-finite objective at initialization")

    for t in range(max_iter + 1):
        grad = gradient(instance, y)
        v_paths, _ = lmo_blocks(grad, instance.masks)
        gap = active.gap(grad, v_paths)
        result.objective_trace.append(obj)
        result.gap_trace.append(gap)
        result.iterations = t
        if gap <= gap_tol:
            result.stop_reason = "gap_tol"
            break
        if t == max_iter:
            result.stop_reason = "max_iter"
            break
        w = active.corrected_weights(v_paths)
        new_obj = active.objective(w)
        if not np.isfinite(new_obj):
            raise ValueError(f"non-finite objective at iteration {t}")
        if not new_obj < obj:
            result.stop_reason = "stalled"
            break
        active.w, obj = w, new_obj
        active.prune()
        y = active.matrix()

    result.y_relaxed = y
    result.w_star = fit_model(instance.psi, y, instance.phi, instance.kernel)
    return result

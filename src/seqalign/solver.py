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

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
from scipy.linalg.lapack import dposv

from .core import CostKernel, fit_model, ridge_map
from .evaluation import diagonal_path
from .polytope import StreamLayout, blocks_to_matrix, lmo_blocks, minimize_linear


@dataclass(frozen=True)
class ProblemInstance:
    """A fully assembled relaxed alignment problem.

    phi and psi are the concatenated (and, for phi, affine-augmented)
    feature matrices; masks is a per-stream tuple of boolean (J_n, I_n)
    arrays, True on a forbidden cell, None where a stream is unconstrained.
    A hard-supervised stream is pinned by a mask that admits only its
    annotated path.  The priors add
    (1 / 2 sigma^2) ||Y 1 - mu||^2 and alpha Tr(Y_c^T Y); gradient states
    both terms.
    """

    psi: np.ndarray  # (E, J_total)
    phi: np.ndarray  # (D, I_total)
    layout: StreamLayout
    kernel: CostKernel
    mu: np.ndarray  # (J_total,) target column count of each row, supervision.resolve_mu
    sigma: float  # spread of the duration prior
    alpha: float  # weight of the band prior
    band: tuple  # per stream, its (J_n, I_n) band indicator Y_c, polytope.band_indicator
    masks: tuple


@dataclass
class SolveResult:
    y_relaxed: np.ndarray
    w_star: np.ndarray
    objective_trace: list = field(default_factory=list)
    gap_trace: list = field(default_factory=list)
    active_set_trace: list = field(default_factory=list)  # vertices that carry iterate t
    face_steps_trace: list = field(default_factory=list)  # steps of the correction from it
    iterations: int = 0
    stop_reason: str = ""  # "gap_tol", "stalled" or "max_iter"; see solve

    @property
    def converged(self):
        return self.stop_reason == "gap_tol"


def _block_dot(blocks, y, layout):
    """sum_n <blocks_n, Y_n> over the diagonal blocks Y_n of a dense Y."""
    return float(sum(np.sum(b * layout.block(y, n)) for n, b in enumerate(blocks)))


def objective(instance, y):
    """q(Y) + r(Y) + l(Y) of a dense (J_total, I_total) Y, zero off the diagonal blocks.

    With g = gradient(Y) and its linear part c = gradient(0), the quadratic
    is 0.5 sum_n <g_n + c_n, Y_n> + ||mu||^2 / (2 sigma^2): Q is never read.
    """
    y, mu = np.asarray(y, dtype=np.float64), instance.mu
    g, c = gradient(instance, y), gradient(instance, np.zeros_like(y))
    total = _block_dot([g_n + c_n for g_n, c_n in zip(g, c)], y, instance.layout)
    return 0.5 * total + float(mu @ mu) / (2.0 * instance.sigma**2)


def _run_products(psi, x, layout, first, count):
    """psi_n^T x_n of the ``count`` streams of one shape from ``first`` on, a (count, J, I) array.

    psi is (E, J_total) and x (E, I_total), both C-ordered.  The product is
    one stacked matmul on reshape views of the run's column ranges, so BLAS
    gets each stream's operands with the strides that psi[:, rows].T and
    x[:, cols] have, and each block the bits of that product.  A gathered
    copy such as x[:, idx] is laid out otherwise (Fortran order), and a
    product on it can differ in the last bits.  Every shape takes this one
    path, one-row (J = 1) and one-column (I = 1) streams included.
    """
    J, I = layout.j_sizes[first], layout.i_sizes[first]
    j0, i0 = layout.j_offsets[first], layout.i_offsets[first]
    e = psi.shape[0]
    p = psi[:, j0 : j0 + count * J].reshape(e, count, J).transpose(1, 2, 0)
    v = x[:, i0 : i0 + count * I].reshape(e, count, I).transpose(1, 0, 2)
    return np.matmul(p, v)


def gradient(instance, y):
    """Stream by stream, the (J_n, I_n) diagonal blocks of the gradient at Y.

    The gradient is (1/I) psi^T psi Y Q + (1/sigma^2)(Y 1 - mu) 1^T + alpha Y_c;
    the oracle and the gap read only its diagonal blocks.  The data term is
    taken as psi_n^T x_n with x = (psi Y) Q, and x as the ridge residual,
    since Q = Id - phi^T G^{-1} phi with G = phi phi^T + I lam Id:

        x = psi Y - W* phi,  W* = core.ridge_map(psi Y, phi, G's factor),

    so the gradient never reads the dense (I, I) Q.  It costs
    2 E J_total I_total + 4 E D I_total + sum_n 2 E J_n I_n flops, with
    no I_total^2 term.  Y stays dense, so that psi Y and the row sums Y 1
    are summed as for the whole matrix.  Every block, one-row blocks
    included, comes from the one stacked product of its run of streams of
    one shape (_run_products), and the blocks of a run are views of one
    array.
    """
    y = np.asarray(y, dtype=np.float64)
    layout, psi, phi = instance.layout, instance.psi, instance.phi
    py = psi @ y
    x = py - ridge_map(py, phi, instance.kernel.gram_factor) @ phi
    d = (y.sum(axis=1) - instance.mu) / instance.sigma**2
    blocks = []
    for first, count in layout.runs:
        J, j0 = layout.j_sizes[first], layout.j_offsets[first]
        g = _run_products(psi, x, layout, first, count)
        g /= layout.i_total
        g += d[j0 : j0 + count * J].reshape(count, J, 1)
        # band_indicator depends on the shape alone, so a run shares one.
        g += instance.alpha * instance.band[first]
        blocks.extend(g)
    return blocks


def _clamped_step(slope, curvature):
    """Minimizer over [0, 1] of slope * t + curvature * t^2 / 2."""
    if not math.isfinite(curvature) or curvature <= 1e-14:
        return 1.0 if slope < 0 else 0.0
    return float(min(max(-slope / curvature, 0.0), 1.0))


def exact_line_search(instance, y, direction):
    """Optimal step in [0, 1] along a direction D of the quadratic.

    y and direction are dense and zero off the diagonal blocks.
    gamma* = clamp(-<gradient(Y), D> / c, 0, 1) with the curvature
    c = sum_n <gradient(D)_n - gradient(0)_n, D_n>, which is
    (1/I) Tr(psi D Q D^T psi^T) + (1/sigma^2) ||D 1||^2 without Q.
    """
    d = np.asarray(direction, dtype=np.float64)
    g, g_d, c = gradient(instance, y), gradient(instance, d), gradient(instance, np.zeros_like(d))
    curvature = _block_dot([a - b for a, b in zip(g_d, c)], d, instance.layout)
    return _clamped_step(_block_dot(g, d, instance.layout), curvature)


class _ActiveSet:
    """Per-stream vertex sets whose weighted sum is the iterate.

    Vertex k is a path of stream ``stream[k]``, its (I_n,) row array as
    the oracle returns it, with weight ``w[k]``; the
    weights of each stream sum to one.  At Y = sum_k w_k V_k the objective
    is 0.5 w^T H w + b^T w + ||mu||^2 / (2 sigma^2) with

        H_kl = (1/I) <psi V_k Q, psi V_l> + (1/sigma^2) <V_k 1, V_l 1>,
        b_k  = -(1/sigma^2) <mu, V_k 1> + alpha <Y_c, V_k>.

    Only the paths and H and b are kept, not the images psi V_k Q.  The
    paths are kept per run r of streams of one shape (J, I)
    (StreamLayout.runs): the run's vertex indices, in ascending order, are
    ``members[r]``, the places of their streams in the run ``place[r]``,
    their durations the rows of ``durations[r]``, and the cells of their
    paths the rows of ``cells[r]``: (place J + row) I + column, a flat
    index into the run's (count, J, I) blocks.  ``lookup`` maps (stream,
    row array bytes) to the index; its keys are in index order.
    """

    def __init__(self, instance):
        self.instance = instance
        layout = instance.layout
        self.run_of = np.repeat(np.arange(len(layout.runs)), [c for _, c in layout.runs])
        self.lookup = {}
        self.stream = np.zeros(0, dtype=np.int64)
        self.members = [np.zeros(0, dtype=np.int64) for _ in layout.runs]
        self.place = [np.zeros(0, dtype=np.int64) for _ in layout.runs]
        self.cells = [np.zeros((0, layout.i_sizes[f]), dtype=np.int64) for f, _ in layout.runs]
        self.durations = [np.zeros((0, layout.j_sizes[f]), dtype=np.int64) for f, _ in layout.runs]
        self.w = np.zeros(0)
        self.h = np.zeros((0, 0))
        self.b = np.zeros(0)
        self.const = float(instance.mu @ instance.mu) / (2.0 * instance.sigma**2)

    def objective(self, w):
        return float(0.5 * (w @ (self.h @ w)) + self.b @ w + self.const)

    def matrix(self, y):
        """Write the iterate Y = sum_k w_k V_k into y, each cell summed in vertex order.

        y is the dense (J_total, I_total) iterate, zero off the diagonal
        blocks, where no vertex has a cell; only those blocks are cleared.
        """
        layout = self.instance.layout
        for n in range(layout.n_streams):
            layout.block(y, n)[...] = 0.0
        cells, weights = [], []
        for r, (first, _) in enumerate(layout.runs):
            I = layout.i_sizes[first]
            j, i = np.divmod(self.cells[r], I)
            j += layout.j_offsets[first]
            i += layout.i_offsets[first] + self.place[r][:, None] * I
            cells.append((j * layout.i_total + i).ravel())
            weights.append(np.repeat(self.w[self.members[r]], I))
        np.add.at(y.reshape(-1), np.concatenate(cells), np.concatenate(weights))

    def gap(self, grad, v_rows):
        """<grad, Y - V>, summed stream by stream; grad is gradient's blocks, v_rows V's rows."""
        gap = 0.0
        for r, (first, count) in enumerate(self.instance.layout.runs):
            g = np.stack(grad[first : first + count])
            sums = g.take(self.cells[r]).sum(axis=1)
            # Each stream's w_k <grad, V_k>, added one at a time in vertex order.
            y_dot = np.bincount(self.place[r], self.w[self.members[r]] * sums, count)
            v = np.stack(v_rows[first : first + count])
            v_dot = g[np.arange(count)[:, None], v, np.arange(g.shape[2])].sum(axis=1)
            for y_n, v_n in zip(y_dot.tolist(), v_dot.tolist()):
                gap += y_n - v_n
        return gap

    def index(self, vertices):
        """Indices of the (stream, rows) pairs ``vertices``; new ones are added with weight 0."""
        found, new = [], []
        for n, a in vertices:
            key = (n, a.tobytes())
            k = self.lookup.get(key)
            if k is None:
                k = self.lookup[key] = self.stream.size + len(new)
                new.append((n, a))
            found.append(k)
        if new:
            self._add(new)
        return found

    def _add(self, new):
        """Append the (stream, rows) pairs ``new`` with their rows of H and entries of b.

        H grows once.  Its new rows are written in order, so where two new
        vertices meet, H holds the later one's entry, as when the vertices
        are added one at a time.
        """
        inst, layout = self.instance, self.instance.layout
        psi, q = inst.psi, inst.kernel.q_matrix
        sigma2 = inst.sigma**2
        old, size = self.stream.size, self.stream.size + len(new)
        new_stream = np.array([n for n, _ in new])
        durations = [np.bincount(a, minlength=layout.j_sizes[n]) for n, a in new]
        new_run = self.run_of[new_stream]
        self.stream = np.concatenate([self.stream, new_stream])
        added = []  # (run, positions in new, places in the run) of the new vertices
        for r, (first, _) in enumerate(layout.runs):
            mine = np.flatnonzero(new_run == r)
            if mine.size == 0:
                continue
            J, I = layout.j_sizes[first], layout.i_sizes[first]
            place = new_stream[mine] - first
            paths = np.array([new[v][1] for v in mine])
            self.members[r] = np.concatenate([self.members[r], old + mine])
            self.place[r] = np.concatenate([self.place[r], place])
            self.cells[r] = np.concatenate(
                [self.cells[r], (place[:, None] * J + paths) * I + np.arange(I)]
            )
            self.durations[r] = np.concatenate([self.durations[r], [durations[v] for v in mine]])
            added.append((r, mine, place))

        rows = np.empty((len(new), size))
        b = np.concatenate([self.b, np.empty(len(new))])
        for v, (n, a) in enumerate(new):
            i0, j0 = layout.i_offsets[n], layout.j_offsets[n]
            # psi V Q of the new vertex needs only stream n's rows of Q.
            image = psi[:, j0 + a] @ q[i0 : i0 + a.size]
            for r, (first, count) in enumerate(layout.runs):
                products = _run_products(psi, image, layout, first, count)
                rows[v, self.members[r]] = products.take(self.cells[r]).sum(axis=1)
                del products  # a (count, J, I) array: keep one alive at a time
            b_new = -float(inst.mu[j0 : j0 + layout.j_sizes[n]] @ durations[v]) / sigma2
            b_new += inst.alpha * inst.band[n][a, np.arange(a.size)].sum()
            b[old + v] = b_new
        rows /= layout.i_total
        for r, mine, place in added:
            # The duration term <V_k 1, V_l 1> / sigma^2 of the pairs in one stream.
            dots = self.durations[r] @ self.durations[r][-mine.size :].T
            member, new_k = np.nonzero(self.place[r][:, None] == place)
            rows[mine[new_k], self.members[r][member]] += dots[member, new_k] / sigma2

        h = np.empty((size, size))
        h[:old, :old] = self.h
        for k, row in enumerate(rows, old):
            h[k] = row
            h[:, k] = row
        self.h, self.b = h, b
        self.w = np.concatenate([self.w, np.zeros(len(new))])

    def prune(self):
        """Drop the vertices of weight zero and number the rest in the same order."""
        alive = self.w > 0
        keep = np.flatnonzero(alive)
        renumbered = np.cumsum(alive) - 1
        self.stream = self.stream[keep]
        self.w = self.w[keep]
        self.h = self.h.take(keep, axis=0).take(keep, axis=1)
        self.b = self.b[keep]
        for r, members in enumerate(self.members):
            live = alive[members]
            self.members[r] = renumbered[members[live]]
            self.place[r] = self.place[r][live]
            self.cells[r] = self.cells[r][live]
            self.durations[r] = self.durations[r][live]
        self.lookup = {key: k for k, key in enumerate(compress(self.lookup, alive))}

    def corrected_weights(self, v_rows):
        """Add v_rows to the active sets; weights after a step towards them and a full correction.

        The Frank-Wolfe step towards the product vertex is the exact line
        search in the weights; the correction starts from it, so it is never
        worse.  The current weights are left as they are.  Returns the
        weights and the number of steps the correction took.
        """
        fw = self.index(enumerate(v_rows))
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
    # In stream order (a stable sort of the entries) the streams' blocks are
    # consecutive: column c has its nonzeros on sorted entries first[c] to
    # last[c], the last of which holds its -k entry.
    order = np.argsort(stream_f, kind="stable")
    counts = np.bincount(stream_f)
    counts = counts[counts > 0]
    col_stream = np.repeat(np.arange(counts.size), counts - 1)
    col = np.arange(col_stream.size)
    last = col + col_stream + 1
    first = (np.cumsum(counts) - counts)[col_stream]
    k = last - first
    norm = np.sqrt(k * (k + 1))
    # The nonzeros, column by column.
    col_of = np.repeat(col, k + 1)
    sorted_row = np.arange(col_of.size) - (np.cumsum(k + 1) - (k + 1) - first)[col_of]
    values = np.where(sorted_row < last[col_of], (1.0 / norm)[col_of], (-k / norm)[col_of])
    z = np.zeros((stream_f.size, col.size))
    z[order[sorted_row], col_of] = values
    return z


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
    ridge = 1e-10 * h.diagonal().max() or 1.0
    a = z.T @ (h.take(f, axis=0).take(f, axis=1) @ z)
    a.flat[:: a.shape[0] + 1] += ridge
    rhs = z.T @ g[f]
    # A Cholesky factor and solve, with scipy's messages for them, in one LAPACK call.
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, x, info = dposv(a, rhs, lower=False, overwrite_a=True)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    d[f] = z @ -x
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
    objective never rises.  Returns the weights and the number of steps
    taken; at most 3 w.size + 10 are.
    """
    w = w.copy()
    free = w > 0
    steps = 0
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
        steps += 1
    return w, steps


def _initial_paths(instance):
    """Row arrays of the mask-feasible starting vertex, the uniform diagonal path when allowed."""
    layout = instance.layout
    paths = []
    for n in range(layout.n_streams):
        I, J = layout.i_sizes[n], layout.j_sizes[n]
        mask = instance.masks[n]
        diag = diagonal_path(I, J).assignment
        if mask is None or not mask[diag, np.arange(I)].any():
            paths.append(diag)
        else:
            # Fall back to the feasible path closest to the diagonal.
            j = np.arange(J)[:, None] / J
            i = np.arange(I)[None, :] / I
            p, _ = minimize_linear(np.abs(j - i), mask)
            paths.append(p.assignment)
    return paths


def solve(instance, max_iter, gap_tol):
    """Run fully-corrective Frank-Wolfe until the duality gap closes.

    It starts from the diagonal path of each stream, or the nearest
    mask-feasible vertex where the mask forbids it.  Iterate t has one
    entry in each trace: its objective; its gap certificate
    <grad, Y_t - V_t>, which bounds its distance to the relaxed optimum;
    the number of vertices that carry it (one per stream at t = 0, after
    that the active set the previous correction left); and the steps of
    the correction made from it (0 where none was).
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
    active.index(enumerate(paths))
    active.w[:] = 1.0
    # The one dense iterate: matrix() rebuilds it in place, and y_relaxed is it.
    y = blocks_to_matrix(paths, layout)

    result = SolveResult(y_relaxed=y, w_star=None)
    obj = active.objective(active.w)
    if not np.isfinite(obj):
        raise ValueError("non-finite objective at initialization")

    for t in range(max_iter + 1):
        grad = gradient(instance, y)
        v_rows, _ = lmo_blocks(grad, instance.masks)
        gap = active.gap(grad, v_rows)
        result.objective_trace.append(obj)
        result.gap_trace.append(gap)
        result.active_set_trace.append(active.stream.size)
        result.face_steps_trace.append(0)
        result.iterations = t
        if gap <= gap_tol:
            result.stop_reason = "gap_tol"
            break
        if t == max_iter:
            result.stop_reason = "max_iter"
            break
        w, result.face_steps_trace[-1] = active.corrected_weights(v_rows)
        new_obj = active.objective(w)
        if not np.isfinite(new_obj):
            raise ValueError(f"non-finite objective at iteration {t}")
        if not new_obj < obj:
            result.stop_reason = "stalled"
            break
        active.w, obj = w, new_obj
        active.prune()
        active.matrix(y)

    result.w_star = fit_model(instance.psi, y, instance.phi, instance.kernel)
    return result

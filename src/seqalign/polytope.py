"""Ordered assignment matrices and the linear minimization oracle.

A feasible alignment maps each of I columns (temporal intervals) to one of
J rows (text elements) such that the row index starts at 0, ends at J-1 and
moves by steps of 0 or 1.  Linear forms over this set are minimized exactly
by dynamic programming in O(IJ); this is the oracle used by the Frank-Wolfe
solver and by every rounding procedure.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from ._kernels import dp_align

# Hard caps for exhaustive enumeration (test oracle only).
ENUM_MAX_I = 14
ENUM_MAX_J = 7


class InfeasibleError(ValueError):
    """No monotone path satisfies the given mask."""


@dataclass(frozen=True)
class AlignmentPath:
    """A vertex of the alignment polytope: column i -> row assignment[i]."""

    assignment: np.ndarray  # (I,) int64, 0-based rows
    j_count: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a non-empty 1-d sequence")
        if a[0] != 0 or a[-1] != self.j_count - 1:
            raise ValueError("path must start at row 0 and end at the last row")
        steps = np.diff(a)
        if a.size > 1 and not np.all((steps == 0) | (steps == 1)):
            raise ValueError("path steps must be 0 or 1")

    @property
    def i_count(self):
        return self.assignment.size

    def durations(self):
        """Number of columns assigned to each row, length j_count."""
        return np.bincount(self.assignment, minlength=self.j_count)


@dataclass(frozen=True)
class CellMask:
    """Boolean (J, I) matrix; True marks a forbidden assignment cell."""

    forbidden: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "forbidden", np.asarray(self.forbidden, dtype=bool))


@dataclass(frozen=True)
class StreamLayout:
    """Block-diagonal layout of per-stream assignment matrices."""

    i_sizes: tuple
    j_sizes: tuple
    i_offsets: tuple = field(init=False)
    j_offsets: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "i_sizes", tuple(int(v) for v in self.i_sizes))
        object.__setattr__(self, "j_sizes", tuple(int(v) for v in self.j_sizes))
        if len(self.i_sizes) != len(self.j_sizes):
            raise ValueError("i_sizes and j_sizes must have equal length")
        object.__setattr__(
            self, "i_offsets", tuple(np.concatenate([[0], np.cumsum(self.i_sizes)[:-1]]))
        )
        object.__setattr__(
            self, "j_offsets", tuple(np.concatenate([[0], np.cumsum(self.j_sizes)[:-1]]))
        )

    @property
    def n_streams(self):
        return len(self.i_sizes)

    @property
    def i_total(self):
        return int(sum(self.i_sizes))

    @property
    def j_total(self):
        return int(sum(self.j_sizes))

    def block(self, matrix, n):
        """View of stream n's (J_n, I_n) block of a concatenated matrix."""
        i0, j0 = self.i_offsets[n], self.j_offsets[n]
        return matrix[j0 : j0 + self.j_sizes[n], i0 : i0 + self.i_sizes[n]]


def path_to_matrix(path):
    """Binary (J, I) assignment matrix of a path."""
    I, J = path.i_count, path.j_count
    y = np.zeros((J, I))
    y[path.assignment, np.arange(I)] = 1.0
    return y


def matrix_to_path(y):
    """Inverse of path_to_matrix for binary vertex matrices (argmax per column)."""
    return AlignmentPath(np.argmax(y, axis=0), j_count=y.shape[0])


def _masked_cost(cost, mask):
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    if mask is not None:
        if mask.forbidden.shape != cost.shape:
            raise ValueError("mask shape does not match cost shape")
        cost = np.where(mask.forbidden, np.inf, cost)
    return cost


def minimize_linear(cost, mask=None):
    """Exact argmin of sum(cost[j,i] * Y[j,i]) over alignment paths.

    Ties are broken by preferring to stay on the current row while walking
    the path forward, which makes the result deterministic.

    Returns (path, value).  Raises InfeasibleError when no path avoids the
    forbidden cells (including the case J > I).
    """
    J, I = np.shape(cost)
    if J > I:
        raise InfeasibleError(f"no monotone path exists for J={J} > I={I}")
    c = _masked_cost(cost, mask)
    value, assignment = dp_align(c)
    if not np.isfinite(value):
        raise InfeasibleError("mask forbids every monotone path")
    return AlignmentPath(assignment, j_count=J), float(value)


def is_feasible(j_count, i_count, mask=None):
    """Whether at least one path exists under the mask."""
    try:
        minimize_linear(np.zeros((j_count, i_count)), mask)
        return True
    except InfeasibleError:
        return False


def enumerate_paths(i_count, j_count, mask=None):
    """All alignment paths, C(I-1, J-1) of them when unmasked.

    Brute-force oracle for tests; guarded against combinatorial explosion.
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


def band_indicator(j_count, i_count, beta):
    """(J, I) 0/1 matrix Y_c of the cells outside the diagonal band of half-width beta.

    Y_c[j, i] = 0 iff |j/J - i/I| <= beta (0-based indices), else 1.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    j = np.arange(j_count)[:, None] / j_count
    i = np.arange(i_count)[None, :] / i_count
    return (np.abs(j - i) > beta).astype(np.float64)


def lmo_blocks(cost, layout, masks=None):
    """Per-stream linear minimization over the block-diagonal polytope.

    cost is (J_total, I_total); only the diagonal blocks are read.  masks
    is an optional per-stream list of CellMask or None; a hard-supervised
    stream's mask admits a single path, which the oracle then returns.

    Returns (paths, value) with value the sum of block optima.
    """
    paths = []
    total = 0.0
    for n in range(layout.n_streams):
        m = masks[n] if masks is not None else None
        p, v = minimize_linear(layout.block(cost, n), m)
        paths.append(p)
        total += v
    return paths, total


def blocks_to_matrix(paths, layout):
    """Assemble per-stream vertex paths into a (J_total, I_total) matrix."""
    y = np.zeros((layout.j_total, layout.i_total))
    for n, p in enumerate(paths):
        layout.block(y, n)[p.assignment, np.arange(p.i_count)] = 1.0
    return y

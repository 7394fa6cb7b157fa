"""Ordered assignment matrices and the linear minimization oracle.

A feasible alignment maps each of I columns (temporal intervals) to one of
J rows (text elements) such that the row index starts at 0, ends at J-1 and
moves by steps of 0 or 1.  Linear forms over this set are minimized exactly
by dynamic programming in O(IJ); this is the oracle used by the Frank-Wolfe
solver and by every rounding procedure.  lmo_blocks stacks the blocks of
all streams of one width into one lattice, so one DP sweep serves them all.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import dp_align


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


def _sweep(blocks, masks):
    """Optimal path and value of every (J_n, I_n) cost block, one DP sweep per width.

    The blocks of one width I are stacked into one (sum of J_n + 1, I)
    lattice: block n's J_n rows, then a row of +inf that keeps its last row
    from stepping into the next block (or past the lattice).  The cells of a
    block's last column above its last row are +inf too, so that every path
    ends on that row.  dp_align then sweeps the lattice once, and computes
    each reachable cell as a DP of its block alone would.  A lattice holds
    only its blocks' cells, so a suite whose streams share one width takes
    one sweep, and one of mixed widths does no more work than stream by
    stream.  Returns (paths, values) in block order.
    """
    for block in blocks:
        J, I = block.shape
        if J > I:
            raise InfeasibleError(f"no monotone path exists for J={J} > I={I}")
    by_width = {}
    for n, block in enumerate(blocks):
        by_width.setdefault(block.shape[1], []).append(n)
    values = np.empty(len(blocks))
    rows = [None] * len(blocks)
    for I, members in by_width.items():
        heights = np.array([blocks[n].shape[0] + 1 for n in members])
        ends = np.cumsum(heights)
        starts = ends - heights
        # Zeros, so that only a block entry can be non-finite when checked.
        lattice = np.zeros((int(ends[-1]), I), order="F")
        for n, r in zip(members, starts):
            lattice[r : r + blocks[n].shape[0]] = blocks[n]
        if not np.all(np.isfinite(lattice)):
            raise ValueError("cost matrix contains non-finite entries")
        for n, r in zip(members, starts):
            if masks[n] is not None:
                if masks[n].forbidden.shape != blocks[n].shape:
                    raise ValueError("mask shape does not match cost shape")
                lattice[r : r + blocks[n].shape[0]][masks[n].forbidden] = np.inf
        closed_end = np.ones(lattice.shape[0], dtype=bool)
        closed_end[ends - 2] = False
        lattice[closed_end, -1] = np.inf
        lattice[ends - 1] = np.inf
        values[members], width_rows = dp_align(lattice, starts)
        for n, r in zip(members, width_rows):
            rows[n] = r
    paths = []
    for n, block in enumerate(blocks):
        if not np.isfinite(values[n]):
            raise InfeasibleError("mask forbids every monotone path")
        paths.append(AlignmentPath(rows[n], j_count=block.shape[0]))
    return paths, values


def minimize_linear(cost, mask=None):
    """Exact argmin of sum(cost[j,i] * Y[j,i]) over alignment paths.

    Ties are broken by preferring to stay on the current row while walking
    the path forward, which makes the result deterministic.

    Returns (path, value).  Raises InfeasibleError when no path avoids the
    forbidden cells (including the case J > I).
    """
    paths, values = _sweep([np.asarray(cost, dtype=np.float64)], [mask])
    return paths[0], float(values[0])


def is_feasible(j_count, i_count, mask=None):
    """Whether at least one path exists under the mask."""
    try:
        minimize_linear(np.zeros((j_count, i_count)), mask)
        return True
    except InfeasibleError:
        return False


def band_indicator(j_count, i_count, beta):
    """(J, I) 0/1 matrix Y_c of the cells outside the diagonal band of half-width beta.

    Y_c[j, i] = 0 iff |j/J - i/I| <= beta (0-based indices), else 1.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    j = np.arange(j_count)[:, None] / j_count
    i = np.arange(i_count)[None, :] / i_count
    return (np.abs(j - i) > beta).astype(np.float64)


def lmo_blocks(blocks, masks=None):
    """Per-stream linear minimization over the block-diagonal polytope.

    blocks lists each stream's (J_n, I_n) cost block.  masks is an optional
    per-stream list of CellMask or None; a hard-supervised stream's mask
    admits a single path, which the oracle then returns.  The streams of
    one width share one DP sweep (see _sweep).

    Returns (paths, value) with value the sum of block optima.
    """
    paths, values = _sweep(blocks, masks if masks is not None else [None] * len(blocks))
    total = 0.0
    for v in values.tolist():
        total += v
    return paths, total


def blocks_to_matrix(paths, layout):
    """Assemble per-stream vertex paths into a (J_total, I_total) matrix."""
    y = np.zeros((layout.j_total, layout.i_total))
    for n, p in enumerate(paths):
        layout.block(y, n)[p.assignment, np.arange(p.i_count)] = 1.0
    return y

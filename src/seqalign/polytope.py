"""Ordered assignment matrices and the linear minimization oracle.

A feasible alignment maps each of I columns (temporal intervals) to one of
J rows (text elements) such that the row index starts at 0, ends at J-1 and
moves by steps of 0 or 1.  Linear forms over this set are minimized exactly
by dynamic programming in O(IJ); this is the oracle used by the Frank-Wolfe
solver and by every rounding procedure.  lmo_blocks stacks the blocks of
all streams of one width into one lattice, so one DP sweep serves them all.
"""

import mmap
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np


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


@dataclass(frozen=True)
class StreamLayout:
    """Block-diagonal layout of per-stream assignment matrices."""

    i_sizes: tuple
    j_sizes: tuple
    i_offsets: tuple = field(init=False)
    j_offsets: tuple = field(init=False)
    runs: tuple = field(init=False)  # (first stream, count) of each run of one (J, I) shape

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
        runs, first = [], 0
        for _, run in groupby(zip(self.j_sizes, self.i_sizes)):
            count = len(list(run))
            runs.append((first, count))
            first += count
        object.__setattr__(self, "runs", tuple(runs))

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


def dp_align(cost, starts):
    """Sweep, in place, one lattice that lmo_blocks built; the contract is stated there.

    Returns (values, paths): values[n] the optimal cost from row starts[n]
    of column 0, and paths[n, c] the path's row in column c less starts[n].
    """
    s = cost
    R, C = s.shape
    # Column views of the lattice's upper and lower R - 1 rows, made once.
    top, low = list(s[:-1].T), list(s[1:].T)
    best = np.empty(R - 1)
    for c in range(C - 2, -1, -1):
        np.minimum(top[c + 1], low[c + 1], out=best)
        np.add(top[c], best, out=top[c])
    down = list((s[1:] < s[:-1]).T)
    paths = np.empty((C, len(starts)), dtype=np.int64)
    rows = list(paths)
    rows[0][:] = starts
    for c in range(1, C):
        np.add(rows[c - 1], down[c][rows[c - 1]], out=rows[c])
    return s[starts, 0], (paths - starts).T.copy()


def lmo_blocks(blocks, masks=None):
    """Per-stream linear minimization over the block-diagonal polytope, one DP sweep per width.

    blocks lists each stream's (J_n, I_n) cost block.  masks is an optional
    per-stream list of boolean masks (True on a forbidden cell) or None; a
    hard-supervised stream's mask admits a single path, which the oracle
    then returns.

    The lattice contract.  The blocks of one width I are stacked into one
    (sum of J_n + 1, I) lattice, best in Fortran order: block n's J_n rows,
    the first of them its path's start row, then a row of +inf that keeps
    its last row from stepping into the next block (or past the lattice).
    Its masked cells, and those of its last column above its last row, are
    +inf too, so that every path ends on that row.  dp_align sweeps the
    lattice once, overwriting each cell with its optimal cost to the last
    column, and walks each path forward, staying on its row at a tie; each
    reachable cell gets the value a DP of its block alone would.  A lattice
    holds only its blocks' cells, so a suite whose streams share one width
    takes one sweep, and one of mixed widths does no more work than stream
    by stream.

    Returns (rows, values) in block order: rows[n] is the (I_n,) int64 row
    of each column on block n's optimal path, as dp_align wrote it, and
    values the (N,) float64 block optima.  The DP builds only valid
    paths, so the rows are not checked again; minimize_linear returns its
    one as a checked AlignmentPath.  Raises InfeasibleError where a block
    has no path that avoids its mask.
    """
    if masks is None:
        masks = [None] * len(blocks)
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
                # As bool, so that a 0/1 integer mask cannot act as a fancy index.
                mask = np.asarray(masks[n], dtype=bool)
                if mask.shape != blocks[n].shape:
                    raise ValueError("mask shape does not match cost shape")
                lattice[r : r + blocks[n].shape[0]][mask] = np.inf
        closed_end = np.ones(lattice.shape[0], dtype=bool)
        closed_end[ends - 2] = False
        lattice[closed_end, -1] = np.inf
        lattice[ends - 1] = np.inf
        values[members], width_rows = dp_align(lattice, starts)
        for n, r in zip(members, width_rows):
            rows[n] = r
    if not np.all(np.isfinite(values)):
        raise InfeasibleError("mask forbids every monotone path")
    return rows, values


def minimize_linear(cost, mask=None):
    """Exact argmin of sum(cost[j,i] * Y[j,i]) over alignment paths.

    mask, if given, is a boolean array of cost's (J, I) shape, True on a
    forbidden cell.  Ties are broken by preferring to stay on the current
    row while walking the path forward, which makes the result
    deterministic.

    Returns (path, value).  Raises InfeasibleError when no path avoids the
    forbidden cells (including the case J > I).
    """
    cost = np.asarray(cost, dtype=np.float64)
    rows, values = lmo_blocks([cost], [mask])
    return AlignmentPath(rows[0], j_count=cost.shape[0]), float(values[0])


def band_indicator(j_count, i_count, beta):
    """(J, I) 0/1 matrix Y_c of the cells outside the diagonal band of half-width beta.

    Y_c[j, i] = 0 iff |j/J - i/I| <= beta (0-based indices), else 1.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    j = np.arange(j_count)[:, None] / j_count
    i = np.arange(i_count)[None, :] / i_count
    return (np.abs(j - i) > beta).astype(np.float64)


def blocks_to_matrix(rows, layout):
    """Assemble per-stream vertex row arrays into a (J_total, I_total) matrix.

    The invariant its memory depends on: the matrix is written only on its
    diagonal blocks, here and by whatever later rebuilds it in place
    (solver._ActiveSet.matrix).  It is a private anonymous map, so a page
    becomes resident only when written, and huge pages are refused for it,
    so that a write does not make a whole 2 MiB region resident.  Only the
    4 KiB pages under the block rows, about one per row, are then resident;
    a read of the zeros off the blocks (psi Y, Y 1) finds the kernel's one
    zero page.  Where mmap has no MAP_PRIVATE (Windows) it is np.zeros.
    """
    shape = (layout.j_total, layout.i_total)
    if hasattr(mmap, "MAP_PRIVATE"):
        # mmap.mmap(-1, n) alone is MAP_SHARED: shared memory, resident as a whole.
        buffer = mmap.mmap(
            -1, max(8 * shape[0] * shape[1], 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        )
        try:
            buffer.madvise(mmap.MADV_NOHUGEPAGE)
        except (AttributeError, OSError):
            pass  # no such advice here, or a kernel without huge pages, which needs none
        y = np.frombuffer(buffer, count=shape[0] * shape[1]).reshape(shape)
    else:
        y = np.zeros(shape)
    for n, a in enumerate(rows):
        layout.block(y, n)[a, np.arange(a.size)] = 1.0
    return y

"""Numeric kernel: one dynamic program over a stack of alignment lattices.

``dp_align(cost, starts)`` sweeps a (R, C) lattice that stacks the cost
blocks of every stream of width C (polytope.lmo_blocks builds it) column by
column, all those streams at once, and walks each stream's path forward
from its row ``starts[n]`` of column 0.  The lattice's last row must be +inf, so that
no path steps past it, and the sweep overwrites the lattice with the
suffix costs.  The DP is a numpy column sweep.
"""

import numpy as np

# e2ebench/checks.py reads this to record the DP backend, which is numpy alone.
HAVE_NUMBA = False


def dp_align(cost, starts):
    """Suffix-cost DP over monotone unit-step paths, vectorized over the lattice's rows.

    ``cost`` is a (R, C) float64 lattice, best in Fortran order, whose
    forbidden cells and last row carry +inf; each cell is overwritten with
    the optimal cost from it to the last column.  ``starts`` holds each
    path's row in column 0.  Returns (values, paths): values[n] the optimal
    cost from (starts[n], 0), and paths[n, c] the path's row in column c
    relative to starts[n].  Ties prefer staying on the current row.
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

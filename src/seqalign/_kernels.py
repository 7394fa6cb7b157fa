"""Hot numeric kernels: the dynamic program over the monotone alignment lattice.

The DP is the only loop that dominates runtime at scale.  It runs as
compiled loops when numba imports and as the row-vectorized numpy
implementation otherwise; both are exact and return identical paths.
``_dp_align_numpy`` also stays importable as the reference the tests
compare the compiled kernel against.
"""

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def _dp_align_numpy(cost):
    """Suffix-cost DP over monotone unit-step paths, vectorized over rows.

    ``cost`` is a (J, I) float64 matrix; forbidden cells carry +inf.
    Returns (value, path) where path[i] is the 0-based row assigned to
    column i.  Ties prefer staying on the current row.
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


def _dp_align_loops(cost):
    J, I = cost.shape
    S = np.full((J, I), np.inf)
    S[J - 1, I - 1] = cost[J - 1, I - 1]
    for i in range(I - 2, -1, -1):
        jlo = max(0, J - I + i)
        jhi = min(J - 1, i)
        for j in range(jlo, jhi + 1):
            best = S[j, i + 1]
            if j + 1 < J and S[j + 1, i + 1] < best:
                best = S[j + 1, i + 1]
            S[j, i] = cost[j, i] + best
    value = S[0, 0]
    path = np.empty(I, dtype=np.int64)
    path[0] = 0
    j = 0
    for i in range(1, I):
        if j + 1 < J and S[j + 1, i] < S[j, i]:
            j += 1
        path[i] = j
    return value, path


if HAVE_NUMBA:
    dp_align = njit(cache=True)(_dp_align_loops)
else:
    dp_align = _dp_align_numpy

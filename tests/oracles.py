"""Brute-force references the tests check the package against.

Exhaustive path enumeration, the vertex matrix of a path, the joint ridge
objective and the three rounding criteria.  Each is written independently
of the fast path it arbitrates; none is used by the package itself.
"""

from itertools import combinations
from math import comb

import numpy as np

from seqalign.polytope import AlignmentPath

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

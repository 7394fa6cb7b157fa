"""Rounding of a relaxed assignment to a feasible integer vertex.

Each criterion is an exact quadratic over the vertex set; because binary
assignment matrices satisfy Tr(Y^T M Y) = sum_i M[j(i), j(i)] for the
relevant M, every criterion collapses to a single linear minimization over
the polytope, solved by one oracle call.
"""

import numpy as np

from .polytope import minimize_linear, path_to_matrix

ROUNDINGS = ("nearest", "feature", "model")


def round_nearest(y_star, mask=None):
    """Vertex minimizing ||Y - Y*||_F^2 (Frobenius-nearest rounding)."""
    y_star = np.asarray(y_star, dtype=np.float64)
    path, _ = minimize_linear(-2.0 * y_star, mask)
    return path


def round_feature(y_star, psi, mask=None):
    """Vertex minimizing ||psi (Y - Y*)||_F^2 (feature-weighted rounding)."""
    y_star = np.asarray(y_star, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    gram = psi.T @ psi
    cost = np.diag(gram)[:, None] - 2.0 * (gram @ y_star)
    path, _ = minimize_linear(cost, mask)
    return path


def round_model(w, psi, phi, mask=None):
    """Vertex minimizing ||psi Y - W phi||_F^2 (model-predicted rounding).

    Reads only the learned map, never Y*, so it applies to unseen streams.
    """
    w = np.asarray(w, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    cost = np.sum(psi * psi, axis=0)[:, None] - 2.0 * (psi.T @ (w @ phi))
    path, _ = minimize_linear(cost, mask)
    return path


def nearest_criterion(path, y_star):
    y = path_to_matrix(path)
    return float(np.sum((y - y_star) ** 2))


def feature_criterion(path, y_star, psi):
    y = path_to_matrix(path)
    return float(np.sum((psi @ (y - y_star)) ** 2))


def model_criterion(path, w, psi, phi):
    y = path_to_matrix(path)
    return float(np.sum((psi @ y - w @ phi) ** 2))

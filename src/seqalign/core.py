"""Closed-form ridge model and the reduced quadratic assignment cost.

For features phi (D x I) and psi (E x J) and an assignment Y, the joint
least-squares problem over the linear map W has the closed-form minimizer

    W* = psi Y phi^T (phi phi^T + I*lam*Id_D)^{-1},

and plugging W* back in reduces the objective to the quadratic

    q(Y) = (1 / 2I) Tr(psi Y Q Y^T psi^T)

with the data kernel Q = Id_I - phi^T (phi phi^T + I*lam*Id_D)^{-1} phi.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve


@dataclass(frozen=True)
class CostKernel:
    """Reduced quadratic cost kernel Q with its problem constants."""

    q_matrix: np.ndarray  # (I, I) symmetric, eigenvalues in (0, 1]
    i_total: int
    lam: float


def _check_features(m, name):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d matrix with positive shape")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def augment_affine(phi):
    """Append a constant all-ones row so the learned linear map is affine."""
    phi = _check_features(phi, "phi")
    return np.vstack([phi, np.ones((1, phi.shape[1]))])


def compute_q(phi, lam):
    """Build the (I, I) kernel Q of the reduced assignment cost.

    The (D, D) Gram matrix phi phi^T + I*lam*Id_D is positive definite for
    lam > 0, so its Cholesky solve serves every D, including D > I.
    """
    phi = _check_features(phi, "phi")
    if lam <= 0:
        raise ValueError("lam must be positive")
    D, I = phi.shape
    gram = phi @ phi.T + I * lam * np.eye(D)
    q = np.eye(I) - phi.T @ cho_solve(cho_factor(gram), phi)
    q = 0.5 * (q + q.T)
    return CostKernel(q_matrix=q, i_total=I, lam=float(lam))


def fit_model(psi, y, phi, lam):
    """Closed-form ridge minimizer W* = psi Y phi^T (phi phi^T + I*lam*Id)^{-1}."""
    psi = _check_features(psi, "psi")
    phi = _check_features(phi, "phi")
    y = np.asarray(y, dtype=np.float64)
    if psi.shape[1] != y.shape[0] or y.shape[1] != phi.shape[1]:
        raise ValueError(
            f"shape mismatch: psi {psi.shape}, y {y.shape}, phi {phi.shape}"
        )
    D, I = phi.shape
    gram = phi @ phi.T + I * lam * np.eye(D)
    rhs = phi @ (psi @ y).T  # (D, E)
    return cho_solve(cho_factor(gram), rhs).T


def discriminative_cost(psi, y, kernel):
    """Reduced cost q(Y) = (1 / 2I) Tr(psi Y Q Y^T psi^T); non-negative."""
    psi = np.asarray(psi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if psi.shape[1] != y.shape[0] or y.shape[1] != kernel.i_total:
        raise ValueError("shape mismatch between psi, y and kernel")
    py = psi @ y
    return float(np.sum((py @ kernel.q_matrix) * py) / (2.0 * kernel.i_total))


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

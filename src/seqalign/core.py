"""Closed-form ridge model and the reduced quadratic assignment cost.

For features phi (D x I) and psi (E x J) and an assignment Y, the joint
least-squares problem over the linear map W has the closed-form minimizer

    W* = psi Y phi^T (phi phi^T + I*lam*Id_D)^{-1},

and plugging W* back in reduces the objective to the quadratic

    q(Y) = (1 / 2I) Tr(psi Y Q Y^T psi^T)

with the data kernel Q = Id_I - phi^T (phi phi^T + I*lam*Id_D)^{-1} phi.
ridge_map solves for W* with the Cholesky factor of that Gram matrix,
solver.gradient states q's gradient from the ridge residual psi Y - W* phi,
and solver.objective states q from the gradient.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs


@dataclass(frozen=True)
class CostKernel:
    """Reduced quadratic cost kernel Q and the Cholesky factor of its Gram matrix."""

    q_matrix: np.ndarray  # (I, I) symmetric, eigenvalues in (0, 1]
    gram_factor: tuple  # cho_factor of phi phi^T + I*lam*Id_D


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


# Side of the square tiles in which compute_q averages Q with its transpose.
_SYMMETRIZE_TILE = 128


def compute_q(phi, lam):
    """Build the (I, I) kernel Q of the reduced assignment cost.

    The (D, D) Gram matrix phi phi^T + I*lam*Id_D is positive definite for
    lam > 0, so its Cholesky solve serves every D, including D > I.  Q is
    made in the one (I, I) buffer of M = phi^T G^{-1} phi: 0 - M off the
    diagonal and 1 - M on it, then 0.5 (Q + Q^T) one pair of mirrored tiles
    at a time.  Each cell gets the bits of Id - M and 0.5 (Q + Q^T), and Q
    is exactly symmetric.
    """
    phi = _check_features(phi, "phi")
    if lam <= 0:
        raise ValueError("lam must be positive")
    D, I = phi.shape
    gram_factor = cho_factor(phi @ phi.T + I * lam * np.eye(D))
    q = phi.T @ cho_solve(gram_factor, phi)
    np.subtract(0.0, q, out=q)
    q.flat[:: I + 1] += 1.0
    t = _SYMMETRIZE_TILE
    for a in range(0, I, t):
        for b in range(a, I, t):
            s = q[a : a + t, b : b + t] + q[b : b + t, a : a + t].T
            s *= 0.5
            q[a : a + t, b : b + t] = s
            q[b : b + t, a : a + t] = s.T
    return CostKernel(q_matrix=q, gram_factor=gram_factor)


def ridge_map(py, phi, gram_factor):
    """The (E, D) ridge map W* = py phi^T G^{-1} of py = psi Y, by one dpotrs on G's cho_factor."""
    c, lower = gram_factor
    s, _ = dpotrs(c, phi @ py.T, lower=lower)
    return s.T


def fit_model(psi, y, phi, kernel):
    """Closed-form ridge minimizer W* = psi Y phi^T (phi phi^T + I*lam*Id)^{-1}.

    kernel is compute_q(phi, lam); its Gram factor serves ridge_map.
    """
    psi = _check_features(psi, "psi")
    phi = _check_features(phi, "phi")
    y = np.asarray(y, dtype=np.float64)
    if psi.shape[1] != y.shape[0] or y.shape[1] != phi.shape[1]:
        raise ValueError(
            f"shape mismatch: psi {psi.shape}, y {y.shape}, phi {phi.shape}"
        )
    if kernel.gram_factor[0].shape[0] != phi.shape[0]:
        raise ValueError("kernel was built for features of another dimension")
    w = ridge_map(psi @ y, phi, kernel.gram_factor)
    if not np.all(np.isfinite(w)):
        raise ValueError("array must not contain infs or NaNs")
    return w


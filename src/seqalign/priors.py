"""Duration and band priors added to the discriminative cost."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters of the additive priors.

    mu is the target number of columns per row, either a scalar shared by
    all rows or a per-row vector; sigma its spread.  alpha weights the
    linear penalty on assignment mass outside the diagonal band of
    half-width beta (a fraction of the normalized diagonal).
    """

    mu: float | np.ndarray
    sigma: float
    alpha: float = 0.0
    beta: float = 0.1

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        mu = np.asarray(self.mu, dtype=np.float64)
        if np.any(mu <= 0):
            raise ValueError("mu entries must be positive")

    def mu_vector(self, j_count):
        mu = np.asarray(self.mu, dtype=np.float64)
        if mu.ndim == 0:
            return np.full(j_count, float(mu))
        if mu.shape != (j_count,):
            raise ValueError(f"mu vector has length {mu.size}, expected {j_count}")
        return mu


def duration_penalty(y, config):
    """(1 / 2 sigma^2) || Y 1_I - mu ||_2^2."""
    y = np.asarray(y, dtype=np.float64)
    mu = config.mu_vector(y.shape[0])
    d = y.sum(axis=1) - mu
    return float(np.dot(d, d) / (2.0 * config.sigma**2))


def band_penalty(y, y_c, alpha):
    """alpha * Tr(Y_c^T Y): penalized mass outside the diagonal band.

    y_c is the 0/1 indicator of the cells outside the band (see
    polytope.band_indicator).
    """
    y = np.asarray(y, dtype=np.float64)
    if np.shape(y_c) != y.shape:
        raise ValueError("band indicator shape does not match y")
    return float(alpha * np.sum(y_c * y))

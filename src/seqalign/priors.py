"""Duration and band priors added to the discriminative cost."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters of the additive priors.

    mu is the (J,) vector of target column counts per row (see
    supervision.resolve_mu), sigma its spread.  alpha weights the linear
    penalty on assignment mass outside the diagonal band; the band itself
    is, stream by stream, the (J_n, I_n) indicator array of
    polytope.band_indicator (solver.ProblemInstance.band).
    """

    mu: np.ndarray
    sigma: float
    alpha: float = 0.0

    def __post_init__(self):
        # sigma^2 divides: a sigma whose square is 0 or inf is as bad as 0.  The
        # square is the float one: an int's exact square can stay below inf.
        try:
            sigma = float(self.sigma)
        except OverflowError:
            sigma = np.inf
        if not (self.sigma > 0 and 0 < sigma * sigma < np.inf):
            raise ValueError(f"sigma and sigma^2 must be positive and finite, got {self.sigma!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        mu = np.asarray(self.mu, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError("mu must be a per-row vector")
        if np.any(mu <= 0):
            raise ValueError("mu entries must be positive")
        object.__setattr__(self, "mu", mu)


def duration_penalty(y, config):
    """(1 / 2 sigma^2) || Y 1_I - mu ||_2^2."""
    y = np.asarray(y, dtype=np.float64)
    if config.mu.shape != (y.shape[0],):
        raise ValueError(f"mu vector has length {config.mu.size}, expected {y.shape[0]}")
    d = y.sum(axis=1) - config.mu
    return float(np.dot(d, d) / (2.0 * config.sigma**2))


def band_penalty(y, y_c, alpha):
    """alpha * Tr(Y_c^T Y): penalized mass outside the diagonal band.

    y_c is the 0/1 indicator of the cells outside the band (see
    polytope.band_indicator), of y's shape: one stream's block of Y and its
    band, whose terms solver.objective adds up stream by stream.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.shape(y_c) != y.shape:
        raise ValueError("band indicator shape does not match y")
    return float(alpha * np.sum(y_c * y))

"""Hyperparameters of the duration and band priors.

The priors add (1 / 2 sigma^2) ||Y 1 - mu||^2 and alpha Tr(Y_c^T Y) to the
discriminative cost; solver.gradient states both terms.
"""

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


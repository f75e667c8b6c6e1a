"""Spiked Fisher matrices S1 S2^{-1}: limiting law edges and spike map.

Two sample covariances with sample sizes n (signal side, p/n -> c) and
T (noise side, p/T -> y, 0 < y < 1) give a Fisher matrix whose bulk lives
on the eigenvalue-scale interval sigma^2 ((1 -+ h)/(1-y))^2, h = sqrt(c+y-cy).

Note the two different scales: the *spike threshold* for population
eigenvalues is U = sigma^2 gamma (1 + h) with gamma = 1/(1-y), while the
*bulk upper edge* of the sample eigenvalues is the squared expression
sigma^2 ((1+h)/(1-y))^2.  The literature sometimes writes "b2" for both.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, SubcriticalSpikeError
from .marchenko_pastur import _finite_limit

__all__ = ["FisherLaw"]


@dataclass(frozen=True)
class FisherLaw:
    """Limiting law of a Fisher matrix with ratios c = p/n, y = p/T."""

    c: float
    y: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ConfigurationError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.y < 1.0:
            raise ConfigurationError(f"y must lie in (0, 1), got {self.y}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ConfigurationError(f"sigma2 must be positive and finite, got {self.sigma2}")
        with np.errstate(over="ignore"):  # an overflowing edge is reported here
            edge = self.upper_edge
        if not math.isfinite(edge):
            raise ConfigurationError(f"upper edge overflows for {self}")

    @property
    def gamma(self) -> float:
        return 1.0 / (1.0 - self.y)

    @property
    def h(self) -> float:
        return np.sqrt(self.c + self.y - self.c * self.y)

    @property
    def spike_threshold(self) -> float:
        """U: population spikes at or below this value are unidentifiable."""
        return self.sigma2 * self.gamma * (1.0 + self.h)

    @property
    def lower_edge(self) -> float:
        return self.sigma2 * ((1.0 - self.h) / (1.0 - self.y)) ** 2

    @property
    def upper_edge(self) -> float:
        return self.sigma2 * ((1.0 + self.h) / (1.0 - self.y)) ** 2

    @property
    def atom_at_zero(self) -> float:
        return max(0.0, 1.0 - 1.0 / self.c)

    def spike_map(self, lam: float) -> float:
        """Almost-sure limit of the Fisher eigenvalue spawned by spike ``lam``.

        psi(x) = gamma x (x - 1 + c) / (x - gamma) on the normalized scale,
        defined for x above the spike threshold (which exceeds the pole gamma).
        """
        if lam <= self.spike_threshold:
            raise SubcriticalSpikeError(
                f"spike {lam} at or below threshold {self.spike_threshold:.6f}"
            )
        x = lam / self.sigma2
        g = self.gamma
        return _finite_limit(lam, self.sigma2 * g * x * (x - 1.0 + self.c) / (x - g))

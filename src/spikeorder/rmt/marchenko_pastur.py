"""Marchenko-Pastur law and the spiked-population phase transition.

The sample covariance of p-dimensional white noise with scale sigma^2 and
n observations (p/n -> c) has limiting spectral distribution supported on
(sigma^2 (1-sqrt(c))^2, sigma^2 (1+sqrt(c))^2), plus a point mass 1 - 1/c
at zero when c > 1.  Population eigenvalues above sigma^2 (1+sqrt(c))
escape the bulk; the forward map of an escaping spike is phi(x) = x + cx/(x-1)
on the sigma^2-normalized scale.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from ..errors import ConfigurationError, NumericalError, QuantileAtomError, SubcriticalSpikeError
from ._integrate import integrate_density

__all__ = [
    "MpLaw",
    "mp_density",
    "mp_cdf",
    "mp_quantile",
    "spike_identifiable_count",
]


@dataclass(frozen=True)
class MpLaw:
    """Marchenko-Pastur law with aspect ratio c = p/n and scale sigma2."""

    c: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ConfigurationError(f"aspect ratio c must be positive and finite, got {self.c}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ConfigurationError(f"sigma2 must be positive and finite, got {self.sigma2}")
        with np.errstate(over="ignore"):  # an overflowing edge is reported here
            edge = self.upper_edge
        if not math.isfinite(edge):
            raise ConfigurationError(f"upper edge overflows for {self}")

    @property
    def lower_edge(self) -> float:
        return self.sigma2 * (1.0 - np.sqrt(self.c)) ** 2

    @property
    def upper_edge(self) -> float:
        return self.sigma2 * (1.0 + np.sqrt(self.c)) ** 2

    @property
    def atom_at_zero(self) -> float:
        """Mass of the point mass at 0 (zero when c <= 1)."""
        return max(0.0, 1.0 - 1.0 / self.c)

    @property
    def continuous_mass(self) -> float:
        return min(1.0, 1.0 / self.c)

    @property
    def spike_threshold(self) -> float:
        """Phase-transition point: spikes at or below it are not identifiable."""
        return self.sigma2 * (1.0 + np.sqrt(self.c))

    def spike_map(self, lam: float) -> float:
        """Almost-sure limit of the sample eigenvalue spawned by spike ``lam``.

        On the normalized scale phi(x) = x + cx/(x - 1), strictly increasing for
        x > 1 + sqrt(c); the returned value is sigma2 * phi(lam / sigma2).
        """
        x = lam / self.sigma2
        if x <= 1.0 + np.sqrt(self.c):
            raise SubcriticalSpikeError(
                f"spike {lam} at or below threshold {self.spike_threshold}"
            )
        return _finite_limit(lam, self.sigma2 * (x + self.c * x / (x - 1.0)))


def mp_density(x: float, law: MpLaw) -> float:
    """Continuous-part density at x; zero outside the open support.

    The c > 1 atom at zero is reported separately via ``law.atom_at_zero``.
    """
    a, b = law.lower_edge, law.upper_edge
    if x <= a or x >= b:
        return 0.0
    return np.sqrt((b - x) * (x - a)) / (2.0 * np.pi * x * law.c * law.sigma2)


def mp_cdf(x: float, law: MpLaw) -> float:
    """Distribution function, atom at zero included."""
    a, b = law.lower_edge, law.upper_edge
    atom = law.atom_at_zero if x >= 0 else 0.0
    if x <= a:
        return atom
    if x >= b:
        return atom + law.continuous_mass
    return atom + integrate_density(lambda t: mp_density(t, law), a, b, upto=x)


def mp_quantile(alpha: float, c: float) -> float:
    """Quantile of the unit-scale (sigma2 = 1) Marchenko-Pastur law.

    For c > 1 the CDF includes the atom at zero, so alpha <= 1 - 1/c would
    land inside the point mass and is rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    law = MpLaw(c=c, sigma2=1.0)
    if c > 1 and alpha <= law.atom_at_zero + 1e-15:
        raise QuantileAtomError(
            f"alpha={alpha} falls inside the point mass of size {law.atom_at_zero:.6f} at 0"
        )
    a, b = law.lower_edge, law.upper_edge
    lo = a + 1e-14 * max(1.0, b)
    hi = b - 1e-14 * max(1.0, b)
    return optimize.brentq(lambda x: mp_cdf(x, law) - alpha, lo, hi, xtol=1e-13, rtol=8.9e-16)


def _finite_limit(lam: float, limit: float) -> float:
    if not math.isfinite(limit):
        raise NumericalError(f"the sample limit of spike {lam} overflows")
    return limit


def spike_identifiable_count(spikes, law) -> int:
    """Number of spikes strictly above ``law.spike_threshold`` (MpLaw or FisherLaw)."""
    spikes = np.asarray(spikes, dtype=float)
    if not np.all(np.isfinite(spikes)):
        raise ConfigurationError("spikes must be finite")
    if np.any(np.diff(spikes) > 0):
        raise ConfigurationError("spikes must be in descending order")
    return int(np.sum(spikes > law.spike_threshold))

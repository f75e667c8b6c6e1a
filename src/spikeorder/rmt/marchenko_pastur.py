"""Marchenko-Pastur law and the spiked-population phase transition.

The sample covariance of p-dimensional white noise with scale sigma^2 and
n observations (p/n -> c) has limiting spectral distribution supported on
(sigma^2 (1-sqrt(c))^2, sigma^2 (1+sqrt(c))^2), plus a point mass 1 - 1/c
at zero when c > 1.  Population eigenvalues above sigma^2 (1+sqrt(c))
escape the bulk; the forward map of an escaping spike is phi(x) = x + cx/(x-1)
on the sigma^2-normalized scale.  The distribution function is the density's
closed-form antiderivative; the quantile bisects it down to adjacent floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, NumericalError, QuantileAtomError, SubcriticalSpikeError

__all__ = [
    "MpLaw",
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


def mp_cdf(x: float, law: MpLaw) -> float:
    """Distribution function, atom at zero included.

    On the sigma2-normalized scale u = x / sigma2, with edges a, b = (1 -+ sqrt(c))^2,
    the continuous part is [G(u) - G(a)] / (2 pi c), G(a) = -pi min(1, c), where

        G(u) = r + (1 + c) asin((2u - a - b) / (b - a))
                 - |1 - c| asin(((a + b) u - 2ab) / (u (b - a))),   r = sqrt((b - u)(u - a))

    (Bai & Silverstein, Spectral Analysis of Large Dimensional Random Matrices,
    2010).  Each asin is taken as atan2 of its argument's numerator and cosine,
    2r and 2 |1 - c| r: near the edges the argument is within rounding of -+1,
    where asin would lose half the digits.
    """
    c, s = law.c, math.sqrt(law.c)
    a, b = (1.0 - s) ** 2, (1.0 + s) ** 2
    u = x / law.sigma2
    atom = law.atom_at_zero if x >= 0 else 0.0
    if u <= a:
        return atom
    if u >= b:
        return atom + law.continuous_mass
    r = math.sqrt((b - u) * (u - a))
    g = (r + (1.0 + c) * math.atan2(2.0 * u - a - b, 2.0 * r)
         - abs(1.0 - c) * math.atan2((a + b) * u - 2.0 * a * b, 2.0 * abs(1.0 - c) * r))
    return atom + (g + math.pi * min(1.0, c)) / (2.0 * math.pi * c)


def mp_quantile(alpha: float, c: float) -> float:
    """Quantile of the unit-scale (sigma2 = 1) Marchenko-Pastur law.

    For c > 1 the CDF includes the atom at zero, so alpha <= 1 - 1/c would
    land inside the point mass and is rejected.  The CDF is monotone, so
    bisection of the bracket ends at two adjacent floats; the one whose CDF is
    nearer alpha is returned.
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
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mp_cdf(mid, law) < alpha:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda x: abs(mp_cdf(x, law) - alpha))


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

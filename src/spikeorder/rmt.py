"""Random-matrix-theory oracles: limiting laws, edges, thresholds, spike maps.

Marchenko-Pastur law and the spiked-population phase transition.

The sample covariance of p-dimensional white noise with scale sigma^2 and
n observations (p/n -> c) has limiting spectral distribution supported on
(sigma^2 (1-sqrt(c))^2, sigma^2 (1+sqrt(c))^2), plus a point mass 1 - 1/c
at zero when c > 1.  Population eigenvalues above sigma^2 (1+sqrt(c))
escape the bulk; the forward map of an escaping spike is phi(x) = x + cx/(x-1)
on the sigma^2-normalized scale.  The distribution function is the density's
closed-form antiderivative; the quantile bisects it down to adjacent floats.

Spiked Fisher matrices S1 S2^{-1}: limiting law edges and spike map.

Two sample covariances with sample sizes n (signal side, p/n -> c) and
T (noise side, p/T -> y, 0 < y < 1) give a Fisher matrix whose bulk lives
on the eigenvalue-scale interval sigma^2 ((1 -+ h)/(1-y))^2, h = sqrt(c+y-cy).

Note the two different scales: the *spike threshold* for population
eigenvalues is U = sigma^2 gamma (1 + h) with gamma = 1/(1-y), while the
*bulk upper edge* of the sample eigenvalues is the squared expression
sigma^2 ((1+h)/(1-y))^2.  The literature sometimes writes "b2" for both.

Limiting law of the squared lag-1 auto-covariance matrix and factor limits.

For p-dimensional white noise observed over T steps (p/T -> y), form the lag-1
sample auto-covariance Sigma and the symmetrized matrix M = Sigma Sigma'.  The
limiting spectral distribution of M / sigma^4 is supported on

    [a1 * 1{y >= 1}, b1],   a1, b1 = (-1 + 20y + 8y^2 -+ (1+8y)^(3/2)) / 8,

with an atom of mass 1 - 1/y at zero when y > 1.  The Stieltjes transform S
of the lag-side companion Sigma' Sigma, whose LSD weights the common nonzero
eigenvalues by 1/T rather than 1/p, solves the cubic

    z^2 S^3 - 2 z (y-1) S^2 + (y-1)^2 S - z S - 1 = 0.

A stationary factor with variance gamma0 and lag-1 auto-covariance gamma1
adds a rank-one perturbation that (together with its O(1) noise cross terms)
spawns an eigenvalue of M / sigma^4 converging to beta solving T(beta) = T1,
where T(z) = int t/(z-t) dmu(t) is the T-transformation of the LSD and

    T1 = [A - sqrt(A^2 - B)] / (2 y (gamma0^2 - gamma1^2))
       = 2 y sigma^4 / (A + sqrt(A^2 - B)),
    A = 2 y sigma^2 gamma0 + gamma1^2,   B = 4 y^2 sigma^4 (gamma0^2 - gamma1^2),

with A^2 - B = gamma1^2 (gamma1^2 + 4 y sigma^2 gamma0 + 4 y^2 sigma^4) >= 0 for
every valid signature.  The second form is the one computed: the first
cancels as y -> 0, where A and sqrt(A^2 - B) both tend to gamma1^2, and is
0 / 0 at gamma1^2 = gamma0^2.  Putting T = -(1 + z S) / y
into the cubic inverts T on (b1, inf): z(T) = y (1 + y T) (1 + T)^2 / T falls
from +inf at T = 0+ to its minimum b1 at T(b1+) = 2 / (1 + sqrt(1 + 8y)).  A
factor with T1 < T(b1+) has the limit beta = z(T1); otherwise its eigenvalue
sticks to the bulk edge and the factor is not identifiable.  The cutoff and
the limits are these closed forms, with no root search and no quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError

__all__ = [
    "AutocovLaw",
    "FactorLimit",
    "FactorSignature",
    "FisherLaw",
    "MpLaw",
    "autocov_factor_limit",
    "autocov_identifiable_count",
    "autocov_t1",
    "autocov_t_edge_limit",
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
            raise ConfigurationError(
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
        raise ConfigurationError(
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
            raise ConfigurationError(
                f"spike {lam} at or below threshold {self.spike_threshold:.6f}"
            )
        x = lam / self.sigma2
        g = self.gamma
        return _finite_limit(lam, self.sigma2 * g * x * (x - 1.0 + self.c) / (x - g))


@dataclass(frozen=True)
class AutocovLaw:
    """Limiting law of M / sigma^4 for noise with ratio y = p/T."""

    y: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.y < math.inf:
            raise ConfigurationError(f"y must be positive and finite, got {self.y}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ConfigurationError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not self.b1 < math.inf:  # from y near 6e122
            raise ConfigurationError(f"upper edge b1 overflows for {self}")

    @property
    def a1(self) -> float:
        y = self.y
        return (-1.0 + 20.0 * y + 8.0 * y * y - (1.0 + 8.0 * y) ** 1.5) / 8.0

    @property
    def b1(self) -> float:
        # z(T(b1+)) = y (s + 3)^3 / (8 (s + 1)); a1's form with + cancels at small y
        s = math.sqrt(1.0 + 8.0 * self.y)
        c = s + 3.0
        return self.y * c * c * c / (8.0 * (s + 1.0))

    @property
    def atom_at_zero(self) -> float:
        return max(0.0, 1.0 - 1.0 / self.y)


@dataclass(frozen=True)
class FactorSignature:
    """Variance gamma0 and lag-1 auto-covariance gamma1 of one factor series."""

    gamma0: float
    gamma1: float

    def __post_init__(self):
        if not 0.0 < self.gamma0 < math.inf:
            raise ConfigurationError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not abs(self.gamma1) <= self.gamma0:
            raise ConfigurationError(
                f"|gamma1| = {abs(self.gamma1)} exceeds gamma0 = {self.gamma0}"
            )


@dataclass(frozen=True)
class FactorLimit:
    """Almost-sure limit of a factor's eigenvalue of M / sigma^4."""

    value: float
    identifiable: bool


def _z_of_t(t: float, y: float) -> float:
    """Inverse of the T-transform on (0, T(b1+)): the z > b1 with T(z) = t."""
    return y * (1.0 + y * t) * (1.0 + t) ** 2 / t


def autocov_t_edge_limit(law: AutocovLaw) -> float:
    """One-sided limit T(b1+) = 2 / (1 + sqrt(1 + 8y)), where z(T) has its minimum b1."""
    return 2.0 / (1.0 + math.sqrt(1.0 + 8.0 * law.y))


def autocov_t1(sig: FactorSignature, law: AutocovLaw) -> float:
    """Critical T-value of one factor; identifiable iff T1 < T(b1+)."""
    g0, g1 = sig.gamma0, sig.gamma1
    y, s2 = law.y, law.sigma2
    a = 2.0 * y * s2 * g0 + g1 * g1
    disc = g1 * g1 * (g1 * g1 + 4.0 * y * s2 * g0 + 4.0 * y * y * s2 * s2)
    # plain floats overflow to inf or NaN without a warning; a tiny y sigma^4 underflows
    t1 = 2.0 * y * s2 * s2 / (a + math.sqrt(disc))
    if not 0.0 < t1 < math.inf:
        raise NumericalError(f"T1 = {t1} of {sig} is not finite and positive ({law})")
    return t1


def autocov_factor_limit(sig: FactorSignature, law: AutocovLaw) -> FactorLimit:
    """beta = z(T1) when T1 < T(b1+); sticks to b1 when unidentifiable."""
    t1 = autocov_t1(sig, law)
    if t1 >= autocov_t_edge_limit(law):
        return FactorLimit(value=law.b1, identifiable=False)
    beta = _z_of_t(t1, law.y)
    if not math.isfinite(beta):
        raise NumericalError(f"the limit of factor {sig} overflows ({law})")
    return FactorLimit(value=beta, identifiable=True)


def autocov_identifiable_count(sigs, law: AutocovLaw) -> int:
    """Number of factor signatures with T1 strictly below T(b1+)."""
    cutoff = autocov_t_edge_limit(law)
    return sum(1 for s in sigs if autocov_t1(s, law) < cutoff)

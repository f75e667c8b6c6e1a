"""Limiting law of the squared lag-1 auto-covariance matrix and factor limits.

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

from ..errors import ConfigurationError, NumericalError

__all__ = [
    "AutocovLaw",
    "FactorSignature",
    "FactorLimit",
    "autocov_t_edge_limit",
    "autocov_t1",
    "autocov_factor_limit",
    "autocov_identifiable_count",
]


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
        if self.gamma0 <= 0:
            raise ConfigurationError(f"gamma0 must be positive, got {self.gamma0}")
        if abs(self.gamma1) > self.gamma0:
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

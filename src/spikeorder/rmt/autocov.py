"""Limiting law of the squared lag-1 auto-covariance matrix and factor limits.

For p-dimensional white noise observed over T steps (p/T -> y), form the lag-1
sample auto-covariance Sigma and the symmetrized matrix M = Sigma Sigma'.  The
limiting spectral distribution of M / sigma^4 is supported on

    [a1 * 1{y >= 1}, b1],   a1, b1 = (-1 + 20y + 8y^2 -+ (1+8y)^(3/2)) / 8,

with an atom of mass 1 - 1/y at zero when y > 1.  Its Stieltjes data come
from the cubic

    z^2 S^3 - 2 z (y-1) S^2 + (y-1)^2 S - z S - 1 = 0,

whose boundary solution S(x + i0+) describes the LSD of the *lag-side
companion* matrix Sigma' Sigma: that measure weights the common nonzero
eigenvalues by 1/T rather than 1/p, so the eigenvalue density of M itself is
Im S / (pi y) and the companion's complementary atom carries the rest of the
mass.  This normalization is validated against Monte Carlo in the test suite.

A stationary factor with variance gamma0 and lag-1 auto-covariance gamma1
adds a rank-one perturbation that (together with its O(1) noise cross terms)
spawns an eigenvalue of M / sigma^4 converging to beta solving T(beta) = T1,
where T(z) = int t/(z-t) dmu(t) is the T-transformation of the LSD and

    T1 = [A - sqrt(A^2 - B)] / (2 y (gamma0^2 - gamma1^2)),
    A = 2 y sigma^2 gamma0 + gamma1^2,   B = 4 y^2 sigma^4 (gamma0^2 - gamma1^2),

equivalently A^2 - B = gamma1^2 (gamma1^2 + 4 y sigma^2 gamma0 + 4 y^2 sigma^4),
which is nonnegative for every valid signature.  Putting T = -(1 + z S) / y
into the cubic inverts T on (b1, inf): z(T) = y (1 + y T) (1 + T)^2 / T falls
from +inf at T = 0+ to its minimum b1 at T(b1+) = 2 / (1 + sqrt(1 + 8y)).  A
factor with T1 < T(b1+) has the limit beta = z(T1); otherwise its eigenvalue
sticks to the bulk edge and the factor is not identifiable.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from ..errors import ConfigurationError, DegenerateSignatureError, NumericalError

__all__ = [
    "AutocovLaw",
    "FactorSignature",
    "FactorLimit",
    "autocov_lsd_density",
    "autocov_t_transform",
    "autocov_t_edge_limit",
    "autocov_t1",
    "autocov_factor_limit",
    "autocov_identifiable_count",
]

# boundary extraction: evaluate S at x + i*eta and keep the root with the
# largest positive imaginary part; below IM_FLOOR counts as "no root"
_ETA = 1e-9
_IM_FLOOR = 1e-12

# T(b1+) is a one-sided limit; approximate it just outside the edge
EDGE_EPS = 1e-6


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
        # b1 overflows from y near 6e122; a subnormal b1 (1 + eps) rounds to b1
        if not sys.float_info.min <= self.b1 < math.inf:
            raise ConfigurationError(f"upper edge b1 = {self.b1} is not a normal float for {self}")

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
    def support_lo(self) -> float:
        """Lower support edge of the continuous part (a1 is active for y >= 1)."""
        return max(self.a1, 0.0) if self.y >= 1.0 else 0.0

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


def _stieltjes_roots(z: complex, y: float) -> np.ndarray:
    return np.roots([z * z, -2.0 * z * (y - 1.0), (y - 1.0) ** 2 - z, -1.0])


def autocov_lsd_density(x: float, law: AutocovLaw) -> float:
    """Density of the LSD of M / sigma^4 at x; zero outside the support."""
    lo, hi = law.support_lo, law.b1
    if x <= lo or x >= hi:
        return 0.0
    roots = _stieltjes_roots(complex(x, _ETA), law.y)
    im = max(r.imag for r in roots)
    if im < _IM_FLOOR:
        raise NumericalError(
            f"no Stieltjes root with positive imaginary part at x={x} (y={law.y})"
        )
    # for y < 1 the companion measure carries a point mass 1 - y at zero;
    # its Lorentzian leaks into Im S for x comparable to eta and must be
    # removed before reading off the continuous density
    atom = max(0.0, 1.0 - law.y)
    if atom:
        im -= atom * _ETA / (x * x + _ETA * _ETA)
    return max(im, 0.0) / (np.pi * law.y)


def _z_of_t(t: float, y: float) -> float:
    """Inverse of the T-transform on (0, T(b1+)): the z > b1 with T(z) = t."""
    return y * (1.0 + y * t) * (1.0 + t) ** 2 / t


def autocov_t_transform(z: float, law: AutocovLaw) -> float:
    """T-transformation T(z) = int t/(z-t) dmu(t) of the LSD, for z > b1.

    Strictly decreasing and positive on (b1, inf), tending to zero at
    infinity: the one root of z(T) = z below T(b1+), where z(T) falls.
    """
    if not z > law.b1:
        raise ValueError(f"z = {z} must exceed the upper edge b1 = {law.b1:.6f}")
    y = law.y
    # solved in u = 1/T >= 1: z(1/u) is nearly linear far from the edge, where
    # a search in T crawls, and xtol is relative as well
    excess = lambda u: _z_of_t(1.0 / u, y) / z - 1.0
    u_edge = (1.0 + math.sqrt(1.0 + 8.0 * y)) / 2.0  # 1 / T(b1+)
    u_hi = 2.0 * (z / y)  # z(1/u) > y u, so excess > 0 there
    if excess(u_edge) >= 0.0:  # z is within rounding of b1
        return 1.0 / u_edge
    if u_hi == math.inf:  # T < y/z underflows
        return 0.0
    # maxiter: a z within a few ulps of b1 leaves excess flat in rounding noise
    u, res = optimize.brentq(excess, u_edge, u_hi, xtol=1e-15, maxiter=200,
                             full_output=True, disp=False)
    if not res.converged:
        raise NumericalError(f"T-transform solve at z = {z} ({law}) did not converge")
    return 1.0 / u


def autocov_t_edge_limit(law: AutocovLaw, eps: float = EDGE_EPS) -> float:
    """One-sided limit T(b1+), approximated at z = b1 (1 + eps).

    The exact limit is 2 / (1 + sqrt(1 + 8y)); eps = 1e-6 is kept as the
    working definition.  Pass eps = 1e-5 to gauge sensitivity (0.4% at y = 0.5).
    """
    return autocov_t_transform(law.b1 * (1.0 + eps), law)


def autocov_t1(sig: FactorSignature, law: AutocovLaw) -> float:
    """Critical T-value of one factor; identifiable iff T1 < T(b1+)."""
    g0, g1 = sig.gamma0, sig.gamma1
    y, s2 = law.y, law.sigma2
    denom = 2.0 * y * (g0 * g0 - g1 * g1)
    if denom == 0.0:
        raise DegenerateSignatureError(
            f"gamma0^2 == gamma1^2 (gamma0={g0}, gamma1={g1}): zero denominator"
        )
    a = 2.0 * y * s2 * g0 + g1 * g1
    disc = g1 * g1 * (g1 * g1 + 4.0 * y * s2 * g0 + 4.0 * y * y * s2 * s2)
    if disc < 0.0:
        raise DegenerateSignatureError(f"negative discriminant {disc}")
    # plain floats overflow to NaN without a warning; a tiny sigma2 cancels T1 to 0
    t1 = (a - math.sqrt(disc)) / denom
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

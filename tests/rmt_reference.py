"""Test-only references for the rmt oracles: limiting densities and a library root solve.

The oracles in ``spikeorder.rmt`` are closed forms (edges, CDF, spike maps,
factor limits) and read none of these.  The tests integrate the densities
(``quadrature_reference``, ``conftest.gauss_legendre_mass``) and solve for the
Marchenko-Pastur quantile with scipy's ``brentq`` to check those closed forms
through independent routes.
"""

import numpy as np
from scipy import optimize

from spikeorder.errors import NumericalError
from spikeorder.rmt import AutocovLaw, FisherLaw, MpLaw, mp_cdf

# autocov boundary extraction: evaluate S at x + i*eta and keep the root with
# the largest positive imaginary part; below IM_FLOOR counts as "no root"
_ETA = 1e-9
_IM_FLOOR = 1e-12


def mp_density(x: float, law: MpLaw) -> float:
    """Continuous-part density at x; zero outside the open support.

    The c > 1 atom at zero is reported separately via ``law.atom_at_zero``.
    """
    a, b = law.lower_edge, law.upper_edge
    if x <= a or x >= b:
        return 0.0
    return np.sqrt((b - x) * (x - a)) / (2.0 * np.pi * x * law.c * law.sigma2)


def mp_quantile_brentq(alpha: float, c: float) -> float:
    """Unit-scale Marchenko-Pastur quantile by ``brentq`` on the bracket ``mp_quantile`` bisects."""
    law = MpLaw(c=c)
    a, b = law.lower_edge, law.upper_edge
    lo = a + 1e-14 * max(1.0, b)
    hi = b - 1e-14 * max(1.0, b)
    return optimize.brentq(lambda x: mp_cdf(x, law) - alpha, lo, hi, xtol=1e-13, rtol=8.9e-16)


def fisher_lsd_density(x: float, law: FisherLaw) -> float:
    """Bulk density of the Fisher eigenvalues at x (continuous part)."""
    a, b = law.lower_edge, law.upper_edge
    if x <= a or x >= b:
        return 0.0
    u = x / law.sigma2
    a1, b1 = a / law.sigma2, b / law.sigma2
    dens = ((1.0 - law.y) * np.sqrt((b1 - u) * (u - a1))
            / (2.0 * np.pi * u * (law.c + u * law.y)))
    return dens / law.sigma2


def autocov_support_lo(law: AutocovLaw) -> float:
    """Lower support edge of the continuous part (a1 is active for y >= 1)."""
    return max(law.a1, 0.0) if law.y >= 1.0 else 0.0


def _stieltjes_roots(z: complex, y: float) -> np.ndarray:
    return np.roots([z * z, -2.0 * z * (y - 1.0), (y - 1.0) ** 2 - z, -1.0])


def autocov_lsd_density(x: float, law: AutocovLaw) -> float:
    """Density of the LSD of M / sigma^4 at x; zero outside the support.

    The boundary root S(x + i eta) of the cubic in ``spikeorder.rmt.autocov``
    describes the lag-side companion Sigma' Sigma, whose LSD weights the common
    nonzero eigenvalues by 1/T rather than 1/p; the density of M itself is
    Im S / (pi y), and the companion's complementary atom carries the rest of
    the mass.  The fixed eta = 1e-9 is not scaled to the support [0, b1], so the
    values hold over y in [1e-3, 5e3] only: there the mass (2,000
    Gauss-Legendre nodes) is within 5e-4 of min(1, 1/y).  Below it the error
    grows (1.4e-3 at y = 1e-4, 1.5e-2 at 1e-6); at y = 1e4 some x in the
    support finds no root above the imaginary floor.
    """
    lo, hi = autocov_support_lo(law), law.b1
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

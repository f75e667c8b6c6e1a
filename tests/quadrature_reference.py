"""Edge-aware adaptive quadrature: the tests' reference for the closed-form oracles.

All the limiting spectral densities handled here vanish like sqrt(edge - x)
at their support edges, which ruins naive quadrature rules.  Substituting
x = lo + (hi - lo) sin^2(theta) absorbs the singularity: the transformed
integrand is smooth in theta on [0, pi/2].
"""

import warnings

import numpy as np
from scipy import integrate

_QUAD_EPSABS = 1e-12
_QUAD_LIMIT = 400


def integrate_density(f, lo, hi, upto=None):
    """Integrate ``f`` over (lo, min(hi, upto)).

    Parameters
    ----------
    f : callable
        Density evaluated at a scalar x inside (lo, hi).
    lo, hi : float
        Support edges; f may have sqrt singular behaviour at either.
    upto : float, optional
        Upper limit strictly inside (lo, hi]; defaults to hi.
    """
    if upto is None:
        upto = hi
    upto = min(upto, hi)
    if upto <= lo:
        return 0.0
    span = hi - lo
    theta_hi = np.arcsin(min(1.0, np.sqrt((upto - lo) / span)))

    def g(theta):
        x = lo + span * np.sin(theta) ** 2
        return f(x) * span * np.sin(2.0 * theta)

    with warnings.catch_warnings():
        # requesting epsabs near machine precision makes quad warn about
        # roundoff; the returned value is still good to ~1e-11
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(g, 0.0, theta_hi, limit=_QUAD_LIMIT,
                                epsabs=_QUAD_EPSABS, epsrel=1e-10)
    return val

"""Burn-in auto-covariance generator, kept as the tests' reference.

Each AR(1) factor path starts at zero and runs ``burn_in`` steps before the
T + 1 observations that are kept, all filtered by ``scipy.signal.lfilter``.
Draw order: factor innovations, then noise.  At |theta| <= 0.9 and the
default burn-in of 1000 the kept window is stationary to within
theta^2000, so distributional tests compare
``spikeorder.spectra.AutocovModel.draw``, which starts each path from the
stationary law, with it.
"""

import math

import numpy as np
from scipy import signal

from spikeorder.spectra import AutocovModel, Spectrum, _eigvals


def simulate_autocov(spec: AutocovModel, rng: np.random.Generator,
                     burn_in: int = 1000) -> Spectrum:
    """Spectrum of M = Sigma Sigma' with Sigma = sum_t y_t y_{t-1}' / T."""
    p, T, q = spec.p, spec.T, spec.q
    keep = T + 1
    if q:
        e = rng.standard_normal((q, burn_in + keep))
        e *= np.sqrt(np.asarray(spec.gamma_diag))[:, None]
        x = np.array([signal.lfilter([1.0], [1.0, -th], row)
                      for th, row in zip(spec.theta, e)])[:, -keep:]
    Y = rng.standard_normal((p, keep))
    Y *= math.sqrt(spec.sigma2)
    if q:
        Y[:q] += x
    Sig = Y[:, 1:] @ Y[:, :-1].T / T
    return Spectrum(values=_eigvals(Sig @ Sig.T, p), p=p, n=T, scale_power=2)

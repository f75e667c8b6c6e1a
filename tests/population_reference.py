"""Dense spiked population generator, kept as the tests' reference.

The p x n Gaussian data matrix is drawn in full, scaled row by row to the
covariance diag(spikes, sigma2, ..., sigma2), and S = X X' / n (or, for
p > n, the n x n Gram X' X / n, which shares S's nonzero eigenvalues) is
eigensolved densely.  Distributional tests compare
``spikeorder.spectra.PopulationModel.draw``, which draws the exact banded
model, with it.
"""

import math

import numpy as np

from spikeorder.spectra import PopulationModel, Spectrum, _eigvals


def simulate_population(spec: PopulationModel, rng: np.random.Generator) -> Spectrum:
    """Spectrum of the uncentered sample covariance S = X X' / n."""
    p, n = spec.p, spec.n
    scale = np.full(p, math.sqrt(spec.sigma2))
    for i, s in enumerate(spec.spikes):
        scale[i] = math.sqrt(s)
    X = rng.standard_normal((p, n))
    X *= scale[:, None]
    # for p > n, S shares its nonzero eigenvalues with the n x n Gram matrix
    S = X.T @ X / n if p > n else X @ X.T / n
    return Spectrum(values=_eigvals(S, p), p=p, n=n, scale_power=1)

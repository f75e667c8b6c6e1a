"""Dense spiked Fisher generator, kept as the tests' reference.

The signal and noise samples are drawn in full, with the anisotropic noise
covariance and the loading matrix, and the pencil is solved through a
Cholesky factor of S2 that guards against a singular noise covariance.
Distributional tests compare ``spikeorder.spectra.simulate_fisher``, which
draws the whitened Bartlett model, with it.
"""

import math

import numpy as np
from scipy.linalg import lapack

from spikeorder.errors import NumericalError
from spikeorder.spectra import FisherModel, Spectrum, _finish


class SingularMatrixError(NumericalError):
    """A sample covariance that must be inverted is numerically singular."""


def _sigma2_diag(spec: FisherModel) -> np.ndarray:
    d = np.full(spec.p, spec.noise_diag[1], dtype=float)
    d[: spec.p // 2] = spec.noise_diag[0]
    return d


def _loading(spec: FisherModel) -> np.ndarray:
    a1, a2, a3 = spec.alpha
    A = np.zeros((spec.p, 3))
    A[0, 0] = math.sqrt(a1)
    A[1, 1] = math.sqrt(a2 / 2.0)
    A[2, 1] = math.sqrt(a2 / 2.0)
    A[1, 2] = math.sqrt(a3 / 2.0)
    A[2, 2] = -math.sqrt(a3 / 2.0)
    return A


def simulate_fisher(spec: FisherModel, rng: np.random.Generator) -> Spectrum:
    """Spectrum of S1 S2^{-1} via the symmetric-definite pencil (S1, S2).

    Draw order (fixed for reproducibility): signal factors u, signal noise,
    then the independent pure-noise sample behind S2.  The pencil is solved by
    the LAPACK chain inside ``scipy.linalg.eigh(S1, S2)``, bit for bit.  Its
    Cholesky factor guards S2: SingularMatrixError when it fails or when
    LAPACK's estimate of the reciprocal 1-norm condition is below 1e-12.
    """
    p, n, T = spec.p, spec.n, spec.T
    d = _sigma2_diag(spec)
    u = rng.standard_normal((3, n)) if spec.alpha else None
    X = rng.standard_normal((p, n))
    X *= np.sqrt(spec.sigma2 * d)[:, None]
    if u is not None:
        X += _loading(spec) @ u
    E = rng.standard_normal((p, T))
    E *= np.sqrt(d)[:, None]

    S1 = X @ X.T / n
    S2 = E @ E.T / T
    chol, info = lapack.dpotrf(S2, lower=1)
    rcond = lapack.dpocon(chol, np.linalg.norm(S2, 1), uplo="L")[0] if info == 0 else 0.0
    if rcond < 1e-12:
        raise SingularMatrixError(f"noise covariance numerically singular (rcond {rcond:.1e})")
    reduced, _ = lapack.dsygst(S1, chol, itype=1, lower=1, overwrite_a=1)
    w, _, info = lapack.dsyevd(reduced, compute_v=0, lower=1, overwrite_a=1)
    return Spectrum(values=_finish(w, p, info), p=p, n=n, scale_power=1)

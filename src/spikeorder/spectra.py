"""Model specifications, data generation and spectrum extraction.

Three generative families are supported, each producing a ``Spectrum`` of
descending sample eigenvalues:

* spiked population covariance: n iid Gaussian vectors with diagonal
  covariance diag(spikes, sigma2, ..., sigma2), uncentered S = X X' / n;
* spiked Fisher matrices: S1 from the signal sample, S2 from an independent
  pure-noise sample, eigenvalues of the symmetric-definite pencil (S1, S2);
* lag-1 auto-covariance factor models: VAR(1) factors plus white noise,
  Sigma = sum_{t=2}^{T+1} y_t y_{t-1}' / T, eigenvalues of M = Sigma Sigma'.

Each model class describes its family (limiting law, sizes it needs,
primary sample count, estimator defaults, oracle order and bulk edge) and
draws its spiked eigenvalues (``draw``), which ``simulate`` wraps in a
``Spectrum``; ``FAMILIES`` maps each ``kind`` to its class.  Each model also
draws the top three eigenvalues the calibration reads (``noise_top``):
population and Fisher models from an O(p) bidiagonal pure-noise model, by
LAPACK ``dstebz`` bisection, auto-covariance models from their dense ``draw``.
``PopulationModel.draw`` uses the exact banded model, eigensolved by LAPACK
``dsbevd``; ``FisherModel.draw`` the whitened Bartlett model.  Fisher and
auto-covariance eigensolve by LAPACK ``dsyevd``.  Every LAPACK call goes
through ctypes with the GIL released, to the function pointers of scipy's
Cython LAPACK API; auto-covariance factors go through scipy.signal's C filter.
Both extensions are loaded from their files: importing ``scipy.linalg`` and
``scipy.signal`` would first import numpy.f2py, numpy.testing, numpy.ma and
scipy.stats, none of which the draws read.

Every ``draw`` is a deterministic function of (model, rng) and shares no
state, so ``replicate`` can run replications concurrently, one stream each.
"""

import csv
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import sys
import threading
from concurrent import futures
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import rmt
from .errors import ConfigurationError, NumericalError
from .rmt import FactorSignature

__all__ = [
    "PopulationModel",
    "FisherModel",
    "AutocovModel",
    "Spectrum",
    "FAMILIES",
    "at_size",
    "simulate",
    "replicate",
    "check_workers",
    "ingest_spectrum",
]

@dataclass(frozen=True)
class PopulationModel:
    """Spiked population covariance: diag(spikes, sigma2, ..., sigma2)."""

    p: int
    n: int
    spikes: tuple = ()
    sigma2: float = 1.0

    kind = "population"
    law = rmt.MpLaw
    sizes = ("p", "n")
    default_tau = 0.5
    transformed_ridge = "c2"
    scale_power = 1
    sigma2_estimable = True

    def __post_init__(self):
        spikes = tuple(float(s) for s in self.spikes)
        object.__setattr__(self, "spikes", spikes)
        if not all(map(math.isfinite, (*spikes, self.sigma2))):
            raise ConfigurationError("spikes and sigma2 must be finite")
        if self.n < 2:
            raise ConfigurationError(f"n = {self.n} too small (need n >= 2)")
        if self.p < len(spikes) + 2:
            raise ConfigurationError(
                f"p = {self.p} too small for {len(spikes)} spikes (need p >= q + 2)"
            )
        if any(s <= self.sigma2 for s in spikes):
            raise ConfigurationError("spikes must exceed the noise level sigma2")
        if any(spikes[i] < spikes[i + 1] for i in range(len(spikes) - 1)):
            raise ConfigurationError("spikes must be in descending order")
        if self.sigma2 <= 0:
            raise ConfigurationError("sigma2 must be positive")

    @property
    def count(self) -> int:
        return self.n

    def true_order(self) -> int:
        law = self.law(c=self.p / self.n, sigma2=self.sigma2)
        return rmt.spike_identifiable_count(self.spikes, law)

    def bulk_edge(self) -> float:
        return self.law(c=self.p / self.n).upper_edge

    def noise_top(self, rng: np.random.Generator, k: int = 3) -> np.ndarray:
        """Top k eigenvalues of a pure-noise draw, on ``simulate``'s scale.

        Dumitriu-Edelman beta-Laguerre model, beta = 1: the nonzero eigenvalues
        of X X' share their law with those of B B', where B is lower bidiagonal
        of size m = min(p, n) with chi_{max(p, n) - i} on the diagonal and
        chi_{m - 1 - i} below it, i = 0, 1, ...  Spikes do not enter.
        """
        m = min(self.p, self.n)
        d2 = rng.chisquare(max(self.p, self.n) - np.arange(m))
        e2 = rng.chisquare(m - 1 - np.arange(m - 1))
        return _bidiagonal_top(d2, e2, k) * (self.sigma2 / self.n)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Eigenvalues of the uncentered sample covariance S = X X' / n, X = D^{1/2} Z.

        Exact banded model.  With q spikes and r = max(q, 1), alternating LQ steps over the
        unused columns and QR steps over the unused noise rows (rows >= q, where D = sigma2 I,
        so they commute with D) reduce X to a lower-banded B, min(p, n + r) x m, m = min(p, n),
        with independent entries: chi_{n - j} at (j, j), chi_{p - r - j} at (j + r, j), N(0, 1)
        strictly between, row i scaled by sqrt(D_ii).  S's nonzero eigenvalues are those of the
        m x m band B'B / n.  Draw order: the diagonal chis, the r-th subdiagonal chis, then the
        normals column by column of B, dropping those below row p - 1 (when p < m + r).
        """
        p, n, q = self.p, self.n, len(self.spikes)
        r, m = max(q, 1), min(p, n)
        # W[j, d] = B[j + d, j] / sqrt(n); zero past column m - 1 and row p - 1 of B
        W = np.zeros((m + r, r + 1))
        W[:m, 0] = np.sqrt(rng.chisquare(n - np.arange(m)))
        k = min(m, p - r)
        W[:k, r] = np.sqrt(rng.chisquare(p - r - np.arange(k)))
        W[:m, 1:r] = rng.standard_normal((m, r - 1))
        row_scale = np.sqrt(np.concatenate([self.spikes, np.full(p - q, self.sigma2),
                                            np.zeros(m + r)]) / n)
        W *= row_scale[np.add.outer(np.arange(m + r), np.arange(r + 1))]
        # ab[j, d] = (B'B)[j + d, j] = sum_e B[j + d + e, j + d] B[j + d + e, j], d <= m - 1
        ab = np.stack([np.einsum("je,je->j", W[d:d + m, :r + 1 - d], W[:m, d:])
                       for d in range(min(r, m - 1) + 1)], axis=1)
        return _band_eigvals(ab, p)


@dataclass(frozen=True)
class FisherModel:
    """Spiked Fisher matrix with the three-factor loading structure.

    The loading matrix sends three independent unit-variance signals onto
    the first three coordinates: factor 1 loads coordinate 1 with weight
    sqrt(alpha1); factor 2 loads coordinates 2 and 3 with equal weights
    sqrt(alpha2/2); factor 3 loads them antisymmetrically with
    +-sqrt(alpha3/2).  The resulting spikes of Sigma1 Sigma2^{-1} are
    sigma2 + alpha_i / d1.  The noise covariance is diagonal, value d1 on
    the first floor(p/2) coordinates and d2 on the rest, so unequal d1, d2
    need p >= 6 to keep the loaded coordinates in the d1 block.
    ``alpha = ()`` gives the pure-noise Fisher matrix (Sigma1 = sigma2 Sigma2).
    """

    p: int
    n: int
    T: int
    alpha: tuple = ()
    sigma2: float = 1.0
    noise_diag: tuple = (1.0, 2.0)

    kind = "fisher"
    law = rmt.FisherLaw
    sizes = ("p", "n", "T")
    default_tau = 0.8
    transformed_ridge = "c3a"
    scale_power = 1
    sigma2_estimable = False

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if len(alpha) not in (0, 3):
            raise ConfigurationError("alpha must have length 0 (pure noise) or 3")
        if len(self.noise_diag) != 2:
            raise ConfigurationError("noise_diag must have 2 entries (d1, d2)")
        if not all(map(math.isfinite, (*alpha, self.sigma2, *self.noise_diag))):
            raise ConfigurationError("alpha, sigma2 and noise_diag must be finite")
        if any(a < 0 for a in alpha):
            raise ConfigurationError("alpha entries must be nonnegative")
        if self.T <= self.p:
            raise ConfigurationError(
                f"need T > p for an invertible noise covariance (T={self.T}, p={self.p})"
            )
        if self.n < 2:
            raise ConfigurationError("n must be at least 2")
        if self.p < len(alpha) + 2:
            raise ConfigurationError("p too small for the loading structure")
        if self.sigma2 <= 0 or any(d <= 0 for d in self.noise_diag):
            raise ConfigurationError("sigma2 and noise_diag entries must be positive")
        if alpha and self.noise_diag[0] != self.noise_diag[1] and self.p // 2 < 3:
            raise ConfigurationError(
                f"p = {self.p} puts loaded coordinates in the d2 noise block "
                "(need p >= 6 when the noise_diag entries differ)"
            )

    @property
    def count(self) -> int:
        return self.n

    def true_order(self) -> int:
        law = self.law(c=self.p / self.n, y=self.p / self.T, sigma2=self.sigma2)
        return rmt.spike_identifiable_count(self.spikes, law)

    def bulk_edge(self) -> float:
        return self.law(c=self.p / self.n, y=self.p / self.T).upper_edge

    def noise_top(self, rng: np.random.Generator, k: int = 3) -> np.ndarray:
        """Top k eigenvalues of a pure-noise draw, on ``simulate``'s scale.

        Edelman-Sutton beta-Jacobi model, beta = 1, with m = min(p, n),
        a = |n - p| and b = T - p.  Draw c_k^2 ~ Beta((a + k)/2, (b + k)/2) and
        c'_k^2 ~ Beta(k/2, (a + b + 1 + k)/2), with s = sqrt(1 - c^2).  The
        squared singular values lambda of the upper bidiagonal B11, diagonal
        (c_m, c_{m-1} s'_{m-1}, ..., c_1 s'_1) and superdiagonal
        (-s_m c'_{m-1}, ..., -s_2 c'_1), share their law with the nonzero
        eigenvalues of W1 (W1 + W2)^{-1}; for n < p through the duality
        (p, n, T) -> (n, p, T + n - p).  The pencil value is
        sigma2 (T/n) lambda / (1 - lambda).  ``noise_diag`` does not enter: a
        common congruence of S1 and S2 leaves the pencil's eigenvalues
        unchanged.  Spikes do not enter.
        """
        m, a, b = min(self.p, self.n), abs(self.n - self.p), self.T - self.p
        ks = np.arange(m, 0, -1)
        c2 = rng.beta((a + ks) / 2, (b + ks) / 2)
        cp2 = rng.beta(ks[1:] / 2, (a + b + 1 + ks[1:]) / 2)
        lam = _bidiagonal_top(c2 * np.append(1.0, 1.0 - cp2), (1.0 - c2[:-1]) * cp2, k)
        return self.sigma2 * self.T / self.n * lam / (1.0 - lam)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Eigenvalues of S1 S2^{-1} via the symmetric-definite pencil (S1, S2).

        Whitened Bartlett model.  Congruences by D^{-1/2} (D the noise covariance)
        and by the eigenvectors of the whitened signal covariance sigma2 I + A A'/d1
        change neither the pencil's eigenvalues nor the law of a white Wishart
        matrix, so S1 = F K K' F/n, F^2 = diag(spikes, sigma2, ..., sigma2), and
        S2 = L L'/T, K and L the Bartlett factors of Wishart(n, I_p), Wishart(T, I_p).
        Draw order: K's chi diagonal, K's normals row by row, then the same for L.
        LAPACK reads the C-ordered L/sqrt(T) as S2's upper Cholesky factor; as
        T > p, L's diagonal is chi with >= 2 degrees of freedom: S2 is never singular.
        """
        p, n, T = self.p, self.n, self.T
        F2 = np.concatenate([self.spikes, np.full(p - len(self.spikes), self.sigma2)])
        G = _bartlett(rng, p, n) * np.sqrt(F2 / n)[:, None]
        S1, chol = G @ G.T, _bartlett(rng, p, T) / math.sqrt(T)
        size = ctypes.c_int(p)
        _dsygst(ctypes.c_int(1), b"U", size, S1, size, chol, size, ctypes.c_int())
        return _eigvals(S1, p)

    @property
    def spikes(self) -> tuple:
        """Spiked eigenvalues of Sigma1 Sigma2^{-1} implied by the loadings."""
        if not self.alpha:
            return ()
        d1 = self.noise_diag[0]
        return tuple(sorted((self.sigma2 + a / d1 for a in self.alpha), reverse=True))


@dataclass(frozen=True)
class AutocovModel:
    """Factor model y_t = A x_t + eps_t with diagonal VAR(1) factors.

    x_t = Theta x_{t-1} + e_t, e_t ~ N(0, Gamma), loading A = (I_q, O)',
    eps_t ~ N(0, sigma2 I_p).  theta holds the diagonal of Theta and
    gamma_diag the diagonal of Gamma (a scalar is broadcast).  The factors
    start stationary: x_1 ~ N(0, Gamma (I - Theta^2)^{-1}).
    """

    p: int
    T: int
    theta: tuple = ()
    gamma_diag: tuple = ()
    sigma2: float = 1.0

    kind = "autocov"
    law = rmt.AutocovLaw
    sizes = ("p", "T")
    default_tau = 0.5
    transformed_ridge = "c2"
    scale_power = 2
    sigma2_estimable = False

    def __post_init__(self):
        theta = tuple(float(t) for t in self.theta)
        object.__setattr__(self, "theta", theta)
        gd = self.gamma_diag
        if isinstance(gd, (int, float)):
            gd = (float(gd),) * len(theta)
        gd = tuple(float(g) for g in gd)
        if not gd and theta:
            gd = (2.0,) * len(theta)
        object.__setattr__(self, "gamma_diag", gd)
        if not all(map(math.isfinite, (*theta, *gd, self.sigma2))):
            raise ConfigurationError("theta, gamma_diag and sigma2 must be finite")
        if self.T < 3:
            raise ConfigurationError(f"T = {self.T} too small (need T >= 3)")
        if len(gd) != len(theta):
            raise ConfigurationError("theta and gamma_diag lengths differ")
        if any(abs(t) >= 1.0 for t in theta):
            raise ConfigurationError("VAR(1) coefficients must satisfy |theta| < 1")
        if any(g <= 0 for g in gd):
            raise ConfigurationError("innovation variances must be positive")
        if self.p < len(theta) + 2:
            raise ConfigurationError("p too small for the factor count")
        if self.sigma2 <= 0:
            raise ConfigurationError("sigma2 must be positive")

    @property
    def count(self) -> int:
        return self.T

    @property
    def q(self) -> int:
        return len(self.theta)

    @property
    def signatures(self) -> tuple:
        """Per-factor (gamma0, gamma1) implied by the AR(1) dynamics."""
        out = []
        for th, g in zip(self.theta, self.gamma_diag):
            g0 = g / (1.0 - th * th)
            if math.isinf(g0):  # finite inputs: an overflow, not bad input
                raise NumericalError(f"the variance of the factor with theta = {th} overflows")
            out.append(FactorSignature(gamma0=g0, gamma1=th * g0))
        return tuple(out)

    def true_order(self) -> int:
        law = self.law(y=self.p / self.T, sigma2=self.sigma2)
        return rmt.autocov_identifiable_count(self.signatures, law)

    def bulk_edge(self) -> float:
        return self.law(y=self.p / self.T).b1

    def noise_top(self, rng: np.random.Generator, k: int = 3) -> np.ndarray:
        """Top k values of ``draw``, zero-padded to length k when p < k.

        No O(p) model of the lag-1 product is known, so this is the dense draw,
        and factors enter: a pure-noise top needs a model with no theta.
        """
        top = self.draw(rng)[:k]
        return np.concatenate([top, np.zeros(k - top.size)])

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Eigenvalues of M = Sigma Sigma' with Sigma = sum_t y_t y_{t-1}' / T.

        T + 1 observations, so that exactly T lag-1 products enter Sigma.  Each
        factor's first innovation is divided by sqrt(1 - theta^2), so its path,
        filtered from zero state, is stationary.  Draw order: factor
        innovations, then noise.
        """
        p, T, q = self.p, self.T, self.q
        if q:
            e = rng.standard_normal((q, T + 1))
            e *= np.sqrt(np.asarray(self.gamma_diag))[:, None]
            e[:, 0] /= np.sqrt(1.0 - np.asarray(self.theta) ** 2)
            x = np.empty_like(e)
            for i, th in enumerate(self.theta):
                # scipy.signal.lfilter([1], [1, -th], e[i]): its call for 1-D input, no state
                x[i] = _sigtools._linear_filter(np.ones(1), np.array([1.0, -th]), e[i], -1)
        Y = rng.standard_normal((p, T + 1))
        Y *= math.sqrt(self.sigma2)
        if q:
            Y[:q] += x
        Sig = Y[:, 1:] @ Y[:, :-1].T / T
        return _eigvals(Sig @ Sig.T, p)


FAMILIES = {cls.kind: cls for cls in (PopulationModel, FisherModel, AutocovModel)}


def at_size(model_or_kind, p: int, n=None, T=None, **fields):
    """The model at sizes (p, n, T), or a family's pure-noise model there.

    ``model_or_kind`` is a model instance or a ``FAMILIES`` key.  Only the
    sizes the family uses are read; a missing one is a ConfigurationError.
    ``fields`` sets other model fields in the same construction, so the
    model is validated once, with them.
    """
    by_kind = isinstance(model_or_kind, str)
    cls = FAMILIES.get(model_or_kind) if by_kind else type(model_or_kind)
    if cls not in FAMILIES.values():
        raise ConfigurationError(
            f"unknown model {model_or_kind!r}; expected one of {tuple(FAMILIES)}"
        )
    sizes = {name: {"p": p, "n": n, "T": T}[name] for name in cls.sizes}
    if None in sizes.values():
        raise ConfigurationError(f"{cls.kind} models need {', '.join(cls.sizes)}")
    if any(size > sys.float_info.max for size in sizes.values()):  # rates read them as floats
        raise ConfigurationError(f"{cls.kind} sizes must not exceed the float range")
    return cls(**sizes, **fields) if by_kind else replace(model_or_kind, **sizes, **fields)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Descending sample eigenvalues plus the metadata estimators need.

    ``n`` is the model's sample count (T for auto-covariance spectra).
    ``scale_power`` is the power of sigma^2 that normalizes the values:
    1 for covariance and Fisher eigenvalues, 2 for the squared-auto-covariance
    eigenvalues (which live on the sigma^4 scale).
    """

    values: np.ndarray
    p: int
    n: int | None = None
    scale_power: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ConfigurationError("spectrum values must be one-dimensional")
        if values.size != self.p:
            raise ConfigurationError(
                f"spectrum length {values.size} does not match p = {self.p}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("spectrum contains non-finite values")
        if np.any(np.diff(values) > 0):
            raise ConfigurationError("spectrum values must be sorted descending")
        if values.size and values[-1] < 0:
            raise ConfigurationError("spectrum values must be nonnegative")
        if self.scale_power not in (1, 2):
            raise ConfigurationError("scale_power must be 1 or 2")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _finish(w: np.ndarray, p: int, info: int = 0) -> np.ndarray:
    """The ascending eigenvalues w of a solve, zero-padded to length p, sorted descending and
    clamped at zero (eigensolver noise); NumericalError on a LAPACK ``info`` or a non-finite w."""
    if info:
        raise NumericalError(f"eigensolver did not converge (LAPACK info {info})")
    if not np.all(np.isfinite(w)):
        raise NumericalError("eigensolver returned a non-finite eigenvalue")
    return np.maximum(np.sort(np.concatenate([np.zeros(p - w.size), w]))[::-1], 0.0)


def _load_extension(package: str, name: str):
    """scipy's ``scipy.<package>.<name>`` extension from its file, without the package's
    ``__init__``; it hands back the module object the package's import gets, whichever
    loads first."""
    folder = Path(scipy.__file__).parent / package
    # the suffix, not a glob: cython_lapack.pxd sits next to its extension
    path = next((path for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if (path := folder / f"{name}{suffix}").is_file()), None)
    if path is None:
        raise ImportError(f"no extension file for scipy/{package}/{name}")
    spec = importlib.util.spec_from_file_location(f"scipy.{package}.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cython_lapack = _load_extension("linalg", "cython_lapack")
_sigtools = _load_extension("signal", "_sigtools")


def _lapack(name: str, *argtypes):
    """LAPACK routine ``name`` from scipy's Cython API through ctypes, which releases
    the GIL (``scipy.linalg.lapack`` holds it), so replications solve in parallel."""
    capsule, api, obj = cython_lapack.__pyx_capi__[name], ctypes.pythonapi, ctypes.py_object
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
    ptr = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *argtypes)(ptr(capsule, name_of(capsule)))


_I, _C, _A = ctypes.POINTER(ctypes.c_int), ctypes.c_char_p, np.ctypeslib.ndpointer(float, flags="C")
_dsygst = _lapack("dsygst", _I, _C, _I, _A, _I, _A, _I, _I)
_dsyevd = _lapack("dsyevd", _C, _C, _I, _A, _I, _A, _A, _I, _I, _I, _I)
_dsbevd = _lapack("dsbevd", _C, _C, _I, _I, _A, _I, _A, _A, _I, _A, _I, _I, _I, _I)
_D, _N = ctypes.POINTER(ctypes.c_double), np.ctypeslib.ndpointer(np.intc, flags="C")
_dstebz = _lapack("dstebz", _C, _C, _I, _D, _D, _I, _I, _D, _A, _A, _I, _I, _A, _N, _N, _A, _N, _I)


def _bidiagonal_top(d2: np.ndarray, e2: np.ndarray, k: int) -> np.ndarray:
    """Top k squared singular values of the bidiagonal matrix B with squared diagonal d2
    and squared off-diagonal e2, through ``_finish`` (descending, zero-padded to k).

    They are the eigenvalues of the tridiagonal B B', B taken lower bidiagonal (its
    transpose has the same singular values); O(m) by LAPACK ``dstebz`` bisection (range
    'I', order 'E', abstol 0: scipy's f2py tridiagonal solver's call, bit for bit).
    """
    m = d2.size
    diag, off = d2.copy(), np.sqrt(d2[:-1] * e2)
    diag[1:] += e2
    size, found, info, zero = ctypes.c_int(m), ctypes.c_int(), ctypes.c_int(), ctypes.c_double()
    w, iblock, isplit = np.empty(m), np.empty(m, np.intc), np.empty(m, np.intc)
    _dstebz(b"I", b"E", size, zero, zero, ctypes.c_int(max(m - k, 0) + 1), size, zero, diag, off,
            found, ctypes.c_int(), w, iblock, isplit, np.empty(4 * m), np.empty(3 * m, np.intc),
            info)
    return _finish(w[:found.value], k, info.value)


def _eigvals(A: np.ndarray, p: int) -> np.ndarray:
    """Eigenvalues of the symmetric C-ordered A (overwritten) by LAPACK ``dsyevd``, through
    ``_finish``.  The workspace fits a blocked tridiagonal reduction (block size <= 32); at
    the minimal 2m + 1 it runs unblocked, 8-25% slower at m = 200-400."""
    m = ctypes.c_int(A.shape[0])
    w, work, info = np.empty(m.value), np.empty(34 * m.value + 1), ctypes.c_int()
    _dsyevd(b"N", b"U", m, A, m, w, work, ctypes.c_int(work.size), ctypes.c_int(),
            ctypes.c_int(1), info)
    return _finish(w, p, info.value)


def _band_eigvals(ab: np.ndarray, p: int) -> np.ndarray:
    """Eigenvalues of the symmetric band matrix A whose lower band the C-ordered (m, kd + 1)
    ab holds, ab[j, d] = A[j + d, j] (LAPACK's AB for uplo 'L'; overwritten), by LAPACK
    ``dsbevd``, through ``_finish``."""
    m, ld = ctypes.c_int(ab.shape[0]), ctypes.c_int(ab.shape[1])
    w, work, info = np.empty(m.value), np.empty(2 * m.value + 1), ctypes.c_int()
    _dsbevd(b"N", b"L", m, ctypes.c_int(ld.value - 1), ab, ld, w, w, ctypes.c_int(1), work,
            ctypes.c_int(work.size), ctypes.c_int(), ctypes.c_int(1), info)
    return _finish(w, p, info.value)


def _bartlett(rng: np.random.Generator, p: int, df: int) -> np.ndarray:
    """Bartlett factor K of a Wishart(df, I_p) matrix W = K K': lower trapezoidal,
    p x min(p, df), chi_{df - i} at (i, i), drawn first, then N(0, 1) below the
    diagonal, filled row by row."""
    m = min(p, df)
    K = np.zeros((p, m))
    K[np.diag_indices(m)] = np.sqrt(rng.chisquare(df - np.arange(m)))
    K[np.tri(p, m, -1, dtype=bool)] = rng.standard_normal(p * m - m * (m + 1) // 2)
    return K


def simulate(spec, rng: np.random.Generator) -> Spectrum:
    """Draw one spectrum from the model's ``draw``, with its family's sample count and scale."""
    if type(spec) not in FAMILIES.values():
        raise ConfigurationError(f"unknown model spec {type(spec).__name__}")
    return Spectrum(values=spec.draw(rng), p=spec.p, n=spec.count, scale_power=spec.scale_power)


# numpy and scipy each bundle their own OpenBLAS; numpy's is the build with
# 64-bit integers, whose symbols carry the suffix 64_
_OPENBLAS_COPIES = ((np, "64_"), (scipy, ""))


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS copy found."""
    controls = []
    for package, suffix in _OPENBLAS_COPIES:
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
            break
    return tuple(controls)


class _OneBlasThread:
    """Context manager that runs its body with every OpenBLAS copy at one thread.

    The thread counts are process-wide, so entries are counted under a lock:
    the outermost entry saves and pins the counts, the last exit restores
    them, however nested or concurrent calls overlap.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((put, get()) for get, put in _openblas_thread_controls())
                for put, _ in self._saved:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved:
                    put(count)


_one_blas_thread = _OneBlasThread()


def check_workers(workers: int) -> None:
    """Reject a worker count ``replicate`` cannot run on: below 1."""
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")


def replicate(draw, seed: int, reps: int, workers: int = 1):
    """``draw(rng)`` on each of ``reps`` random streams, as ``(results, error)``.

    Stream i is a Philox generator seeded by child i of the seed's
    ``SeedSequence``, so its value depends on (seed, i) alone.  ``results``
    holds the values in replication order up to the first replication that
    raised, ``error`` that exception (None if none did); work not yet started
    is then cancelled.  ``workers > 1`` runs the draws on that many threads
    without changing either, so results never depend on the worker count.

    Replications are the unit of parallelism: at every worker count, the
    draws run with numpy's and scipy's OpenBLAS at one thread, and the saved
    thread counts are restored when the call ends.  Threaded BLAS would
    oversubscribe the cores under the pool and round differently from the
    serial path.  numpy's overflow and invalid-value warnings are off in the
    draws: an overflowing draw is reported by the NumericalError it raises.
    """
    check_workers(workers)
    streams = (np.random.Generator(np.random.Philox(child))
               for child in np.random.SeedSequence(seed).spawn(reps))
    results = []
    pooled = futures.ThreadPoolExecutor(workers) if workers > 1 else nullcontext()
    quiet = np.errstate(over="ignore", invalid="ignore")(draw)  # per call, on the draw's thread
    with _one_blas_thread, pooled as pool:
        try:
            for value in (pool.map if pool else map)(quiet, streams):
                results.append(value)
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            return results, exc
    return results, None


def ingest_spectrum(path, column=None) -> Spectrum:
    """Read eigenvalues from a text or CSV file, in any order.

    Plain format: one decimal float per line, blank lines and ``#`` comments
    allowed.  With ``column``, the file is parsed as CSV with a header row
    and the named column is used.  Values are validated finite and
    nonnegative; negatives above -1e-12 are clamped to zero.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not a text file: {exc}") from None
    if column is not None:
        reader = csv.DictReader(lines)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ConfigurationError(f"column {column!r} not found in {path}")
        # the reader skips blank lines, so number cells by line, not by row
        cells = ((reader.line_num, row[column] or "") for row in reader)
    else:
        cells = ((lineno, line.split("#", 1)[0]) for lineno, line in enumerate(lines, start=1))
    raw = []
    for lineno, cell in cells:
        cell = cell.strip()
        if not cell:
            continue
        try:
            raw.append(float(cell))
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: cannot parse {cell!r} as a float") from None

    if len(raw) < 3:
        raise ConfigurationError(f"{path}: need at least 3 eigenvalues, found {len(raw)}")
    values = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{path}: non-finite eigenvalues present")
    if np.any(values < -1e-12):
        raise ConfigurationError(f"{path}: negative eigenvalue {values.min()} beyond tolerance")
    values = np.sort(np.maximum(values, 0.0))[::-1]
    return Spectrum(values=values, p=values.size)

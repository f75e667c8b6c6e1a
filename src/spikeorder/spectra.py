"""Model specifications, data generation and spectrum extraction.

Three generative families are supported, each producing a ``Spectrum`` of
descending sample eigenvalues:

* spiked population covariance: n iid Gaussian vectors with diagonal
  covariance diag(spikes, sigma2, ..., sigma2), uncentered S = X X' / n;
* spiked Fisher matrices: S1 from the signal sample, S2 from an independent
  pure-noise sample, eigenvalues of the symmetric-definite pencil (S1, S2);
* lag-1 auto-covariance factor models: VAR(1) factors plus white noise,
  Sigma = sum_{t=2}^{T+1} y_t y_{t-1}' / T, eigenvalues of M = Sigma Sigma'.

Each model class also describes its family (sizes it needs, primary sample
count, estimator defaults, oracle order and bulk edge); ``FAMILIES`` maps
each ``kind`` to its class.

All generators are deterministic functions of (spec, rng) and never share
state, so ``replicate`` can run replications concurrently, one stream each.
"""

import csv
import ctypes
import functools
import math
import threading
from concurrent import futures
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import lapack

from . import rmt
from .errors import ConfigurationError, IngestionError, NumericalError, SingularMatrixError
from .rmt import FactorSignature

__all__ = [
    "PopulationModel",
    "FisherModel",
    "AutocovModel",
    "Spectrum",
    "FAMILIES",
    "at_size",
    "simulate_population",
    "simulate_fisher",
    "simulate_autocov",
    "simulate",
    "replicate",
    "ingest_spectrum",
]

# eigensolver noise below this (relative) size is clamped to zero
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class PopulationModel:
    """Spiked population covariance: diag(spikes, sigma2, ..., sigma2)."""

    p: int
    n: int
    spikes: tuple = ()
    sigma2: float = 1.0

    kind = "population"
    sizes = ("p", "n")
    default_tau = 0.5
    transformed_ridge = "c2"
    scale_power = 1
    sigma2_estimable = True

    def __post_init__(self):
        spikes = tuple(float(s) for s in self.spikes)
        object.__setattr__(self, "spikes", spikes)
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
        return rmt.pop_identifiable_count(self.spikes, c=self.p / self.n,
                                          sigma2=self.sigma2)

    def bulk_edge(self) -> float:
        return rmt.MpLaw(c=self.p / self.n).upper_edge


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
        law = rmt.FisherLaw(c=self.p / self.n, y=self.p / self.T, sigma2=self.sigma2)
        return rmt.fisher_identifiable_count(self.spikes, law)

    def bulk_edge(self) -> float:
        return rmt.FisherLaw(c=self.p / self.n, y=self.p / self.T).upper_edge

    @property
    def spikes(self) -> tuple:
        """Spiked eigenvalues of Sigma1 Sigma2^{-1} implied by the loadings."""
        if not self.alpha:
            return ()
        d1 = self.noise_diag[0]
        return tuple(sorted((self.sigma2 + a / d1 for a in self.alpha), reverse=True))

    def _sigma2_diag(self) -> np.ndarray:
        d = np.full(self.p, self.noise_diag[1], dtype=float)
        d[: self.p // 2] = self.noise_diag[0]
        return d

    def _loading(self) -> np.ndarray:
        a1, a2, a3 = self.alpha
        A = np.zeros((self.p, 3))
        A[0, 0] = math.sqrt(a1)
        A[1, 1] = math.sqrt(a2 / 2.0)
        A[2, 1] = math.sqrt(a2 / 2.0)
        A[1, 2] = math.sqrt(a3 / 2.0)
        A[2, 2] = -math.sqrt(a3 / 2.0)
        return A


@dataclass(frozen=True)
class AutocovModel:
    """Factor model y_t = A x_t + eps_t with diagonal VAR(1) factors.

    x_t = Theta x_{t-1} + e_t, e_t ~ N(0, Gamma), loading A = (I_q, O)',
    eps_t ~ N(0, sigma2 I_p).  theta holds the diagonal of Theta and
    gamma_diag the diagonal of Gamma (a scalar is broadcast).
    """

    p: int
    T: int
    theta: tuple = ()
    gamma_diag: tuple = ()
    sigma2: float = 1.0
    burn_in: int = 1000

    kind = "autocov"
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
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be nonnegative")
        if theta:
            # scipy.signal (the VAR(1) filter; it loads scipy.stats) is imported
            # only for factor models, and by the thread that builds the model: a
            # first import on a replication thread slowed the later draws
            import scipy.signal  # noqa: F401

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
            out.append(FactorSignature(gamma0=g0, gamma1=th * g0))
        return tuple(out)

    def true_order(self) -> int:
        law = rmt.AutocovLaw(y=self.p / self.T, sigma2=self.sigma2)
        return rmt.autocov_identifiable_count(self.signatures, law)

    def bulk_edge(self) -> float:
        return rmt.AutocovLaw(y=self.p / self.T).b1


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
    return cls(**sizes, **fields) if by_kind else replace(model_or_kind, **sizes, **fields)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Descending sample eigenvalues plus the metadata estimators need.

    ``scale_power`` is the power of sigma^2 that normalizes the values:
    1 for covariance and Fisher eigenvalues, 2 for the squared-auto-covariance
    eigenvalues (which live on the sigma^4 scale).
    """

    values: np.ndarray
    p: int
    n: int | None = None
    T: int | None = None
    scale_power: int = 1
    provenance: str = "simulated"

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


def _finish(values: np.ndarray, ref_scale: float) -> np.ndarray:
    """Sort descending and clamp eigensolver noise below zero."""
    values = np.sort(values)[::-1]
    floor = -_NEG_TOL * max(ref_scale, 1.0)
    values[(values < 0) & (values > floor)] = 0.0
    return np.maximum(values, 0.0)


def simulate_population(spec: PopulationModel, rng: np.random.Generator) -> Spectrum:
    """Spectrum of the uncentered sample covariance S = X X' / n."""
    p, n = spec.p, spec.n
    scale = np.full(p, math.sqrt(spec.sigma2))
    for i, s in enumerate(spec.spikes):
        scale[i] = math.sqrt(s)
    X = rng.standard_normal((p, n))
    X *= scale[:, None]
    if p > n:
        # S shares its nonzero eigenvalues with the n x n Gram matrix
        gram = X.T @ X / n
        w = np.linalg.eigvalsh(gram)
        w = np.concatenate([np.zeros(p - n), w])
    else:
        w = np.linalg.eigvalsh(X @ X.T / n)
    values = _finish(w, ref_scale=float(w[-1]) if w.size else 1.0)
    return Spectrum(values=values, p=p, n=n, scale_power=1)


def simulate_fisher(spec: FisherModel, rng: np.random.Generator) -> Spectrum:
    """Spectrum of S1 S2^{-1} via the symmetric-definite pencil (S1, S2).

    Draw order (fixed for reproducibility): signal factors u, signal noise,
    then the independent pure-noise sample behind S2.  The pencil is solved by
    the LAPACK chain inside ``scipy.linalg.eigh(S1, S2)``, bit for bit.  Its
    Cholesky factor guards S2: SingularMatrixError when it fails or when
    LAPACK's estimate of the reciprocal 1-norm condition is below 1e-12.
    """
    p, n, T = spec.p, spec.n, spec.T
    d = spec._sigma2_diag()
    u = rng.standard_normal((3, n)) if spec.alpha else None
    X = rng.standard_normal((p, n))
    X *= np.sqrt(spec.sigma2 * d)[:, None]
    if u is not None:
        X += spec._loading() @ u
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
    if info:
        raise NumericalError(f"pencil eigensolver did not converge (LAPACK info {info})")
    values = _finish(w, ref_scale=float(w[-1]))
    return Spectrum(values=values, p=p, n=n, T=T, scale_power=1)


def simulate_autocov(spec: AutocovModel, rng: np.random.Generator) -> Spectrum:
    """Spectrum of M = Sigma Sigma' with Sigma = sum_t y_t y_{t-1}' / T.

    T + 1 observations are kept after burn-in so that exactly T lag-1
    products enter Sigma.  Draw order: factor innovations, then noise.
    """
    p, T, q = spec.p, spec.T, spec.q
    keep = T + 1
    if q:
        e = rng.standard_normal((q, spec.burn_in + keep))
        e *= np.sqrt(np.asarray(spec.gamma_diag))[:, None]
        x = np.empty_like(e)
        for i, th in enumerate(spec.theta):
            x[i] = scipy.signal.lfilter([1.0], [1.0, -th], e[i])
        x = x[:, -keep:]
    Y = rng.standard_normal((p, keep))
    Y *= math.sqrt(spec.sigma2)
    if q:
        Y[:q] += x
    Sig = Y[:, 1:] @ Y[:, :-1].T / T
    M = Sig @ Sig.T
    w = np.linalg.eigvalsh(M)
    values = _finish(w, ref_scale=float(w[-1]))
    return Spectrum(values=values, p=p, n=T, T=T, scale_power=2)


_SIMULATORS = {PopulationModel: simulate_population, FisherModel: simulate_fisher,
               AutocovModel: simulate_autocov}


def simulate(spec, rng: np.random.Generator) -> Spectrum:
    """Draw one spectrum from the generator of the model's family."""
    generate = _SIMULATORS.get(type(spec))
    if generate is None:
        raise ConfigurationError(f"unknown model spec {type(spec).__name__}")
    return generate(spec, rng)


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
    serial path.
    """
    streams = (np.random.Generator(np.random.Philox(child))
               for child in np.random.SeedSequence(seed).spawn(reps))
    results = []
    pooled = futures.ThreadPoolExecutor(workers) if workers > 1 else nullcontext()
    with _one_blas_thread, pooled as pool:
        try:
            for value in (pool.map if pool else map)(draw, streams):
                results.append(value)
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            return results, exc
    return results, None


def ingest_spectrum(path, n=None, T=None, scale_power=1, p=None, column=None) -> Spectrum:
    """Read eigenvalues from a text or CSV file, in any order.

    Plain format: one decimal float per line, blank lines and ``#`` comments
    allowed.  With ``column``, the file is parsed as CSV with a header row
    and the named column is used.  Values are validated finite and
    nonnegative; negatives above -1e-12 are clamped to zero.
    """
    raw = []
    with open(path, newline="") as fh:
        if column is not None:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise IngestionError(f"column {column!r} not found in {path}")
            cells = ((lineno, row[column] or "") for lineno, row in enumerate(reader, start=2))
        else:
            cells = ((lineno, line.split("#", 1)[0]) for lineno, line in enumerate(fh, start=1))
        for lineno, cell in cells:
            cell = cell.strip()
            if not cell:
                continue
            try:
                raw.append(float(cell))
            except ValueError:
                raise IngestionError(
                    f"{path}:{lineno}: cannot parse {cell!r} as a float"
                ) from None

    if len(raw) < 3:
        raise IngestionError(f"{path}: need at least 3 eigenvalues, found {len(raw)}")
    values = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(values)):
        raise IngestionError(f"{path}: non-finite eigenvalues present")
    if np.any(values < -1e-12):
        raise IngestionError(f"{path}: negative eigenvalue {values.min()} beyond tolerance")
    values = np.sort(np.maximum(values, 0.0))[::-1]
    if p is not None and p != values.size:
        raise IngestionError(f"{path}: found {values.size} values, expected p = {p}")
    return Spectrum(values=values, p=values.size, n=n, T=T,
                    scale_power=scale_power, provenance="ingested")

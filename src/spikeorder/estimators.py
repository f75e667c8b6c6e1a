"""Order-determination criteria built on eigenvalue-difference ridge ratios.

The central objects are the ridge ratios

    r_i = (delta_{i+1} + c_n) / (delta_i + c_n),   delta_i = x_i - x_{i+1},

computed on the sigma-normalized spectrum x_i.  At the identifiable order q
the sequence dips toward zero (the valley) and jumps back to one for every
later index (the cliff): the estimate is the largest index with a ratio at
or below the threshold tau.  The transformed variant applies a piecewise
quadratic map first, which flattens the bulk below the edge and steepens
the spikes above it, sharpening the valley without touching the cliff.

Three baselines are included for comparison: a consecutive-gap threshold
rule (``py_estimator``), a consecutive-eigenvalue-ratio rule
(``lwy_estimator``) and a bulk-edge exceedance count (``wy_estimator``).
Every estimator takes its tuning (c_n, tau, the search bound L, the slopes
k1 and k2, the baselines' constants) as plain arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

# estimate_sigma2 is unused here; perfbench/tracing.py wraps it by this module's name
from .calibration import estimate_sigma2, loglog  # noqa: F401
from .errors import ConfigurationError, NumericalError
from .spectra import Spectrum

__all__ = [
    "RatioTrace",
    "PyEstimate",
    "LwyEstimate",
    "loglog",
    "loglog_rate",
    "fn_transform",
    "vacle",
    "tvacle",
    "py_estimator",
    "lwy_estimator",
    "wy_estimator",
]


def loglog_rate(p: int) -> float:
    """loglog(p) * p^(-2/3): the default transformation radius and edge shift."""
    return loglog(p) * p ** (-2.0 / 3.0)


@dataclass(frozen=True, eq=False)
class RatioTrace:
    """Normalized gaps, ridge ratios, and the selected order."""

    deltas: np.ndarray
    ratios: np.ndarray
    tau: float
    c_n: float
    q_hat: int

    def to_dict(self) -> dict:
        return {
            "deltas": [float(d) for d in self.deltas],
            "ratios": [float(r) for r in self.ratios],
            "tau": self.tau,
            "c_n": self.c_n,
            "q_hat": self.q_hat,
        }


@dataclass(frozen=True)
class PyEstimate:
    q_hat: int
    exhausted: bool
    d_n: float


@dataclass(frozen=True)
class LwyEstimate:
    q_hat: int
    exhausted: bool


def fn_transform(x, e: float, kappa_n: float, k1: float, k2: float):
    """C1 piecewise-quadratic map: identity on [e - kappa_n, e + kappa_n).

    Below the window the slope decays linearly to zero (flat left of
    e - kappa_n - 1/k1); above it the slope grows linearly with rate k2.
    k1 = 0 (resp. k2 = 0) selects the identity on that side; both zero is
    the identity everywhere.  Accepts scalars or arrays.
    """
    if not 0.0 < kappa_n < math.inf:
        raise ConfigurationError(f"kappa_n must be positive and finite, got {kappa_n}")
    if not (0.0 <= k1 < math.inf and 0.0 <= k2 < math.inf):
        raise ConfigurationError(f"k1 and k2 must be nonnegative and finite, got {k1}, {k2}")
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = xs.copy()
    left = e - kappa_n
    right = e + kappa_n
    if k1 > 0:
        knot = left - 1.0 / k1
        m = xs < knot
        out[m] = left - 0.5 / k1
        m = (xs >= knot) & (xs < left)
        v = xs[m]
        out[m] = 0.5 * k1 * v * v + (1.0 - k1 * left) * v + 0.5 * k1 * left * left
    if k2 > 0:
        m = xs >= right
        v = xs[m]
        out[m] = 0.5 * k2 * v * v + (1.0 - k2 * right) * v + 0.5 * k2 * right * right
    return float(out[0]) if scalar else out


def _select(ratios: np.ndarray, tau: float) -> int:
    hits = np.nonzero(ratios <= tau)[0]
    return int(hits[-1]) + 1 if hits.size else 0


def _trace(x: np.ndarray, c_n: float, tau: float) -> RatioTrace:
    deltas = x[:-1] - x[1:]
    ratios = (deltas[1:] + c_n) / (deltas[:-1] + c_n)
    return RatioTrace(deltas=deltas, ratios=ratios, tau=tau, c_n=c_n,
                      q_hat=_select(ratios, tau))


def _normalized(values: np.ndarray, sigma2: float, scale_power: int) -> np.ndarray:
    """values / sigma2^scale_power; NumericalError when that leaves the float range."""
    if not sigma2 > 0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2}")
    try:
        scale = sigma2 ** scale_power
    except OverflowError:
        scale = math.inf
    top = float(values[0]) if values.size else 0.0  # the largest: spectra descend
    if not (0.0 < scale < math.inf and top / scale < math.inf):
        raise NumericalError(f"sigma2 = {sigma2} puts the normalized spectrum out of float range")
    return values / scale


def _normalized_head(spec: Spectrum, sigma2: float, c_n: float, tau: float,
                     L: int) -> np.ndarray:
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")
    if L < 3:
        raise ConfigurationError(f"search bound L must be at least 3, got {L}")
    if not 0.0 < c_n < math.inf:
        raise ConfigurationError(f"ridge c_n must be positive and finite, got {c_n}")
    if spec.p < L:
        raise ConfigurationError(f"search bound L = {L} exceeds the spectrum length p = {spec.p}")
    return _normalized(spec.values[:L], sigma2, spec.scale_power)


def vacle(spec: Spectrum, sigma2: float, c_n: float, tau: float = 0.5, L: int = 20):
    """Valley-cliff estimate on the gaps of the spectrum normalized by ``sigma2``.

    Returns ``(q_hat, trace)``.  The trace holds delta_1 .. delta_{L-1} and
    r_1 .. r_{L-2}; q_hat is the thresholded valley index (0 when no ratio
    falls at or below tau).
    """
    trace = _trace(_normalized_head(spec, sigma2, c_n, tau, L), c_n, tau)
    return trace.q_hat, trace


def tvacle(spec: Spectrum, sigma2: float, c_n: float, e: float, tau: float = 0.5,
           L: int = 20, k1: float = 5.0, k2: float = 5.0):
    """Valley-cliff estimate on transformed gaps; returns ``(q_hat, trace)``.

    ``e`` is the bulk upper edge of the model family on the normalized scale;
    the transformation radius is loglog(p) * p^(-2/3).  With k1 = k2 = 0 this
    reproduces ``vacle`` exactly.
    """
    x = _normalized_head(spec, sigma2, c_n, tau, L)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported here
        fx = fn_transform(x, e, loglog_rate(spec.p), k1, k2)
    if not np.all(np.isfinite(fx)):
        raise NumericalError(f"the transformed spectrum leaves the float range (top {x[0]})")
    trace = _trace(fx, c_n, tau)
    return trace.q_hat, trace


def py_estimator(spec: Spectrum, sigma2: float, C: float, L: int = 20,
                 start_index: int = 0) -> PyEstimate:
    """Consecutive-gap threshold rule with d_n = C n^(-2/3) sqrt(2 loglog n).

    Scans i = start_index, ..., L and stops at the first i whose next two
    normalized gaps both fall below d_n.  The default start at i = 0 lets a
    pure-noise spectrum produce 0; ``start_index=1`` reproduces the variant
    whose smallest attainable value is 1.  When no index qualifies the
    result is L with the exhausted flag set.
    """
    if spec.n is None or spec.n < 3:
        raise ConfigurationError("py_estimator needs n >= 3")
    if start_index not in (0, 1):
        raise ConfigurationError("start_index must be 0 or 1")
    if not 0.0 < C < math.inf:
        raise ConfigurationError(f"py constant C must be positive and finite, got {C}")
    if L < 0:
        raise ConfigurationError(f"search bound L must be at least 0, got {L}")
    n = spec.n
    d_n = C * n ** (-2.0 / 3.0) * math.sqrt(2.0 * loglog(n))
    x = _normalized(spec.values, sigma2, spec.scale_power)
    deltas = x[:-1] - x[1:]
    for i in range(start_index, L + 1):
        if i + 1 >= deltas.size:
            break
        if deltas[i] < d_n and deltas[i + 1] < d_n:
            return PyEstimate(q_hat=i, exhausted=False, d_n=d_n)
    return PyEstimate(q_hat=L, exhausted=True, d_n=d_n)


def lwy_estimator(spec: Spectrum, d_T: float, L: int = 20) -> LwyEstimate:
    """Consecutive-eigenvalue-ratio rule; scale-free by construction.

    Stops at the first i >= 1 with lambda_{i+1}/lambda_i > 1 - d_T and
    lambda_{i+2}/lambda_{i+1} > 1 - d_T, and estimates i - 1.  Ratios of
    two zero eigenvalues count as 1 (the bulk-ratio limit).
    """
    if not 0.0 < d_T < 1.0:
        raise ConfigurationError(f"d_T must lie in (0, 1), got {d_T}")
    if spec.p < 3:
        raise ConfigurationError("need at least 3 eigenvalues")
    if L < 0:
        raise ConfigurationError(f"search bound L must be at least 0, got {L}")
    v = spec.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = v[1:] / v[:-1]
    ratios[np.isnan(ratios)] = 1.0  # 0/0 in the zero tail
    cut = 1.0 - d_T
    for i in range(1, L + 1):
        if i >= ratios.size:
            break
        if ratios[i - 1] > cut and ratios[i] > cut:
            return LwyEstimate(q_hat=i - 1, exhausted=False)
    return LwyEstimate(q_hat=L, exhausted=True)


def wy_estimator(spec: Spectrum, edge: float, d_n: float) -> int:
    """Count of eigenvalues at or above the bulk edge plus the shift d_n."""
    if d_n <= 0:
        raise ConfigurationError(f"d_n must be positive, got {d_n}")
    return int(np.sum(spec.values >= edge + d_n))

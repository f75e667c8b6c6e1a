"""Data-driven tuning: pure-noise ridge calibration and scale estimation.

The ridge c_n added to the difference ratios must dominate the bulk gap
fluctuations without swamping the signal gap.  Calibration draws the top of
R pure-noise spectra of the requested family and size, collects the top gap
lambda_1 - lambda_2, and turns its mean m and empirical quantiles q(alpha)
into the ridge family

    c1  = loglog(n) [q(.95) - q(.05)] - m        (plain valley-cliff)
    c2  = sqrt(loglog n) [q(.95) - q(.05)] - m   (transformed variant)
    c3a = sqrt(loglog p) [q(.95) - q(.05)] - m   (Fisher)
    c3b = sqrt(loglog p) [q(.80) - q(.05)] - m   (Fisher, heavy-tailed edge)

where n is the primary sample count (T for the auto-covariance family).
Results are keyed by the sizes the family uses, so an auto-covariance
calibration ignores n.
The same noise runs also calibrate the ratio tolerance d_T of the
consecutive-ratio baseline: the largest observed value of
max(1 - l2/l1, 1 - l3/l2) over the noise runs, i.e. the smallest tolerance
whose stopping rule fires at i = 1 in every pure-noise run.

Every family draws those tops through its model's ``noise_top``: the
population and Fisher families from their O(p) bidiagonal models, the
auto-covariance family from its dense spectra.
"""

import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .rmt import mp_quantile
# simulate is unused here; perfbench/tracing.py wraps it by this module's name
from .spectra import at_size, replicate, simulate  # noqa: F401

__all__ = [
    "DEFAULT_REPS",
    "DEFAULT_SEED",
    "RIDGES",
    "CalibrationResult",
    "aggregate_gaps",
    "calibrate_ridge",
    "check_noise_run",
    "check_ridge",
    "check_sigma2_size",
    "estimate_sigma2",
    "load_cached",
    "loglog",
    "py_constant",
]

QUANTILE_ALPHAS = (0.01, 0.05, 0.8, 0.95, 0.99)
RIDGES = ("c1", "c2", "c3a", "c3b")
RIDGE_FLOOR = 1e-8
# 2: population and Fisher noise runs drawn from the bidiagonal models
SCHEMA_VERSION = 2

# one default pure-noise run, so every entry point's default shares a cache entry
DEFAULT_REPS = 500
DEFAULT_SEED = 7

# calibration constants for the consecutive-gap baseline, keyed by c = p/n
_PY_TABLE = ((0.25, 5.5226), (1.0, 6.3424), (2.0, 7.6257))


def py_constant(c: float) -> float:
    """Threshold constant C for the consecutive-gap rule at aspect ratio c.

    Tabulated at c in {0.25, 1, 2}; elsewhere log-linear interpolation in c,
    held flat beyond the table.
    """
    if c <= 0:
        raise ConfigurationError(f"c must be positive, got {c}")
    xs = [math.log(ck) for ck, _ in _PY_TABLE]
    ys = [v for _, v in _PY_TABLE]
    return float(np.interp(math.log(c), xs, ys))


@lru_cache(maxsize=256)
def _mp_quantile_cached(alpha: float, c: float) -> float:
    return mp_quantile(alpha, c)


def check_sigma2_size(p: int) -> None:
    """Reject a spectrum length ``estimate_sigma2`` cannot read: p < 4."""
    if p < 4:
        raise ConfigurationError(f"need p >= 4 to estimate sigma2, got p = {p}")


def estimate_sigma2(spec) -> float:
    """One-step scale estimate from a bulk quantile of the spectrum.

    Matches the sample quantile lambda_{p - floor(p alpha)} with the
    corresponding unit-scale Marchenko-Pastur quantile, at
    alpha = 1 - (2 max(1, c))^{-1} so the matching point sits at the median
    of the positive eigenvalues.  Exactly scale-equivariant.
    """
    check_sigma2_size(spec.p)
    if spec.n is None:
        raise ConfigurationError("spectrum lacks n; cannot estimate sigma2")
    c = spec.p / spec.n
    alpha = 1.0 - 1.0 / (2.0 * max(1.0, c))
    idx = spec.p - math.floor(spec.p * alpha)
    idx = min(max(idx, 1), spec.p)
    xi_hat = float(spec.values[idx - 1])
    return xi_hat / _mp_quantile_cached(alpha, c)


@dataclass(frozen=True)
class CalibrationResult:
    """Pure-noise top-gap statistics and the ridges derived from them."""

    kind: str
    p: int
    n: int | None
    T: int | None
    reps: int
    seed: int
    m_pn: float
    quantiles: dict
    c1: float
    c2: float
    c3a: float
    c3b: float
    d_t_lwy: float
    clamped: tuple = ()
    schema: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.reps < 2:
            raise ConfigurationError(f"calibration needs R >= 2, got {self.reps}")
        vals = [self.quantiles[a] for a in sorted(self.quantiles)]
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ConfigurationError("quantiles must be nondecreasing in alpha")
        # the values the estimators accept, so a bad cache entry is a miss, not a failed run
        ridges = (self.c1, self.c2, self.c3a, self.c3b)
        if not all(0.0 < c < math.inf for c in ridges):
            raise ConfigurationError(f"ridges must be positive and finite, got {ridges}")
        if not 0.0 < self.d_t_lwy < 1.0:
            raise ConfigurationError(f"d_t_lwy must lie in (0, 1), got {self.d_t_lwy}")

    def ridge(self, name: str) -> float:
        return getattr(self, check_ridge(name))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["quantiles"] = {f"{a:g}": v for a, v in self.quantiles.items()}
        d["clamped"] = list(self.clamped)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationResult":
        d = dict(d)
        d["quantiles"] = {float(a): v for a, v in d["quantiles"].items()}
        d["clamped"] = tuple(d.get("clamped", ()))
        return cls(**d)


def loglog(x) -> float:
    if x <= math.e:
        raise ConfigurationError(f"log log undefined or nonpositive at {x}")
    return math.log(math.log(x))


def _rank_quantile(sorted_vals: np.ndarray, alpha: float) -> float:
    """Order statistic at rank ceil(R alpha); 1e-9 guards float fuzz."""
    r = len(sorted_vals)
    rank = math.ceil(r * alpha - 1e-9)
    rank = min(max(rank, 1), r)
    return float(sorted_vals[rank - 1])


def _cache_path(cache_dir, kind, p, n, T, reps, seed):
    name = f"calib_{kind}_p{p}_n{n if n is not None else 'x'}_T{T if T is not None else 'x'}_R{reps}_seed{seed}.json"
    return os.path.join(cache_dir, name)


def load_cached(cache_dir, kind, p, n=None, T=None, reps=DEFAULT_REPS, seed=DEFAULT_SEED):
    """Return the cached CalibrationResult, or None (with a warning if unreadable)."""
    path = _cache_path(cache_dir, kind, p, n, T, reps, seed)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("schema") == SCHEMA_VERSION:
            return CalibrationResult.from_dict(payload)
    except FileNotFoundError:
        pass
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ConfigurationError) as exc:
        warnings.warn(f"ignoring unreadable calibration cache file {path}: {exc!r}",
                      RuntimeWarning, stacklevel=2)
    return None


def _store(cache_dir, result: CalibrationResult):
    path = _cache_path(cache_dir, result.kind, result.p, result.n, result.T,
                       result.reps, result.seed)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(result.to_dict(), fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def check_ridge(name: str) -> str:
    """Return ``name`` if it is one of ``RIDGES``; raise ConfigurationError otherwise."""
    if name not in RIDGES:
        raise ConfigurationError(f"unknown ridge {name!r}; expected one of {'/'.join(RIDGES)}")
    return name


def check_noise_run(reps: int, seed: int) -> None:
    """Reject a noise run ``calibrate_ridge`` cannot draw: R < 2 or a negative seed."""
    if reps < 2:
        raise ConfigurationError(f"calibration needs R >= 2, got {reps}")
    if seed < 0:
        raise ConfigurationError(f"calibration seed must be nonnegative, got {seed}")


def calibrate_ridge(kind: str, p: int, n=None, T=None, reps: int = DEFAULT_REPS,
                    seed: int = DEFAULT_SEED, workers: int = 1, cache_dir=None,
                    force: bool = False) -> CalibrationResult:
    """Pure-noise calibration of the ridges (and the ratio tolerance d_T).

    The noise runs go through ``spectra.replicate``, so the result does not
    depend on the worker count; each reads the top three eigenvalues from the
    model's ``noise_top``.
    With ``cache_dir`` set, results are reused across runs keyed by
    (kind, p, n, T, reps, seed), where a size the family does not use is keyed
    as absent; the directory is created before the first draw.
    """
    check_noise_run(reps, seed)
    if p < 3:
        # the noise statistics read the top three eigenvalues
        raise ConfigurationError(f"calibration needs p >= 3, got p = {p}")
    model = at_size(kind, p, n, T)
    n, T = getattr(model, "n", None), getattr(model, "T", None)
    loglog(model.count)  # c1's and c2's rate: a count it cannot take fails before any draw
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)  # an unusable path fails before any draw
        cached = None if force else load_cached(cache_dir, kind, p, n, T, reps, seed)
        if cached is not None:
            return cached

    def one(rng):
        v = model.noise_top(rng)
        gap = float(v[0] - v[1])
        # same 0/0 -> 1 ratio convention as the consecutive-ratio estimator
        r1 = v[1] / v[0] if v[0] > 0 else 1.0
        r2 = v[2] / v[1] if v[1] > 0 else 1.0
        return gap, max(1.0 - r1, 1.0 - r2)

    draws, error = replicate(one, seed, reps, workers)
    if error is not None:
        raise error
    gaps, lwy_stats = np.array(draws).T
    result = aggregate_gaps(kind, p, n, T, seed, gaps, lwy_stats)
    if cache_dir is not None:
        _store(cache_dir, result)
    return result


def aggregate_gaps(kind: str, p: int, n, T, seed: int, gaps, lwy_stats) -> CalibrationResult:
    """Turn raw top-gap samples into a CalibrationResult.

    Split out from ``calibrate_ridge`` so degenerate inputs (e.g. identical
    gaps, which clamp every ridge to the floor) can be exercised directly.
    """
    gaps = np.asarray(gaps, dtype=float)
    lwy_stats = np.asarray(lwy_stats, dtype=float)
    reps = gaps.size
    gaps_sorted = np.sort(gaps)
    m = float(np.mean(gaps))
    quantiles = {a: _rank_quantile(gaps_sorted, a) for a in QUANTILE_ALPHAS}
    spread95 = quantiles[0.95] - quantiles[0.05]
    spread80 = quantiles[0.8] - quantiles[0.05]

    ll_n = loglog(at_size(kind, p, n, T).count)
    ll_p = loglog(p)
    raw = {
        "c1": ll_n * spread95 - m,
        "c2": math.sqrt(ll_n) * spread95 - m,
        "c3a": math.sqrt(ll_p) * spread95 - m,
        "c3b": math.sqrt(ll_p) * spread80 - m,
    }
    clamped = tuple(name for name, v in raw.items() if v <= 0.0)
    ridges = {name: (v if v > 0.0 else RIDGE_FLOOR) for name, v in raw.items()}
    d_t = float(np.max(lwy_stats))  # the largest pure-noise consecutive-ratio statistic

    return CalibrationResult(
        kind=kind, p=p, n=n, T=T, reps=reps, seed=seed,
        m_pn=m, quantiles=quantiles,
        c1=ridges["c1"], c2=ridges["c2"], c3a=ridges["c3a"], c3b=ridges["c3b"],
        d_t_lwy=d_t, clamped=clamped,
    )

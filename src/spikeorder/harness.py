"""Seeded Monte-Carlo experiment runner with paired estimator comparison.

For each grid point: calibrate the ridges once on pure noise (only when
some estimator reads them), then run R replications in which a single
simulated spectrum is fed to every estimator (paired comparison).  The true
order used for the error metrics is the *identifiable* order from the
random-matrix oracle, not the nominal spike count.  Replications run
through ``spectra.replicate``, so every metric is independent of the worker
count.
"""

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import calibration
from .calibration import calibrate_ridge, py_constant
from .errors import ConfigurationError
from .estimators import loglog_rate, lwy_estimator, py_estimator, tvacle, vacle, wy_estimator
from .spectra import at_size, replicate, simulate

__all__ = [
    "EstimatorSetting",
    "GridPoint",
    "ExperimentConfig",
    "SimulationReport",
    "ExperimentResult",
    "build_estimator",
    "run_experiment",
    "summarize",
    "ESTIMATOR_NAMES",
]

ESTIMATOR_NAMES = ("vacle", "tvacle", "py", "lwy", "wy")

# reported distributions always use buckets 0..19 plus a >=20 bucket
N_BUCKETS = 20

_METRICS = ("mean", "mse", "misest_rate")  # NaN when no replication completed


@dataclass(frozen=True)
class EstimatorSetting:
    """One estimator plus its tuning overrides.

    ``ridge`` picks the calibrated ridge for the valley-cliff methods
    (default c1 for the plain variant, the family's ``transformed_ridge``
    for the transformed one); ``c_n`` gives the ridge value outright.
    ``tau`` defaults to the family's ``default_tau``.  Every field that is
    set is range-checked here, whichever method reads it.
    """

    name: str
    ridge: str | None = None
    tau: float | None = None
    L: int = 20
    k1: float = 5.0
    k2: float = 5.0
    d_t: float | None = None
    py_C: float | None = None
    c_n: float | None = None
    py_start_index: int = 0
    label: str | None = None

    def __post_init__(self):
        if self.name not in ESTIMATOR_NAMES:
            raise ConfigurationError(
                f"unknown estimator {self.name!r}; expected one of {ESTIMATOR_NAMES}"
            )
        if self.ridge is not None:
            calibration.check_ridge(self.ridge)
        least = 3 if self.name in ("vacle", "tvacle") else 0
        if self.L < least:
            raise ConfigurationError(f"search bound L must be at least {least}, got {self.L}")
        for key, value, upper in (("tau", self.tau, 1), ("d_t", self.d_t, 1),
                                  ("c_n", self.c_n, math.inf), ("py_c", self.py_C, math.inf)):
            if value is not None and not 0 < value < upper:
                raise ConfigurationError(f"{key} must lie in (0, {upper}), got {value}")
        if not (0.0 <= self.k1 < math.inf and 0.0 <= self.k2 < math.inf):
            raise ConfigurationError(
                f"k1 and k2 must be nonnegative and finite, got {self.k1}, {self.k2}")
        if self.py_start_index not in (0, 1):
            raise ConfigurationError(f"py_start_index must be 0 or 1, got {self.py_start_index}")

    @property
    def column(self) -> str:
        return self.label or self.name

    @property
    def reads_calibration(self) -> bool:
        """Whether the estimator reads a pure-noise calibration: it lacks its own c_n or d_t."""
        if self.name in ("vacle", "tvacle"):
            return self.c_n is None
        return self.name == "lwy" and self.d_t is None


@dataclass(frozen=True)
class GridPoint:
    p: int
    n: int | None = None
    T: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """A model template, a size grid, and the estimators to compare."""

    model_id: str
    model: object
    grid: tuple
    estimators: tuple
    reps: int = 200
    seed: int = 0
    sigma2_mode: str = "known"
    calibration_reps: int = calibration.DEFAULT_REPS
    calibration_seed: int = calibration.DEFAULT_SEED

    def __post_init__(self):
        if self.reps < 1:
            raise ConfigurationError("reps must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        calibration.check_noise_run(self.calibration_reps, self.calibration_seed)
        if not self.grid:
            raise ConfigurationError("grid must be nonempty")
        if not self.estimators:
            raise ConfigurationError("estimator list must be nonempty")
        if self.sigma2_mode not in ("known", "estimated"):
            raise ConfigurationError("sigma2_mode must be 'known' or 'estimated'")
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        columns = [s.column for s in self.estimators]
        repeated = [c for c in columns if columns.count(c) > 1]
        if repeated:  # results are keyed by column, so one would overwrite the other
            raise ConfigurationError(f"estimator column {repeated[0]!r} appears more than once")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated metrics for one (model, size, estimator) cell."""

    model_id: str
    p: int
    n: int | None
    T: int | None
    estimator: str
    reps: int
    q_true: int
    mean: float
    mse: float
    misest_rate: float
    distribution: tuple
    seed: int
    runtime_s: float
    partial: bool = False
    error: str | None = None

    def __post_init__(self):
        if self.reps > 0:
            if abs(sum(self.distribution) - 1.0) > 1e-12:
                raise ConfigurationError("distribution must sum to 1")
            if not -1e-12 <= self.misest_rate <= 1.0 + 1e-12:
                raise ConfigurationError("misestimation rate must lie in [0, 1]")
            if self.mse < (self.mean - self.q_true) ** 2 - 1e-9:
                raise ConfigurationError("MSE below squared bias; metrics inconsistent")

    def to_dict(self) -> dict:
        """The fields, with None for a metric over no replications (NaN is not JSON)."""
        d = asdict(self)
        return {**d, **{k: None for k in _METRICS if math.isnan(d[k])}}

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationReport":
        return cls(**{**d, "distribution": tuple(d["distribution"]),
                      **{k: math.nan for k in _METRICS if d[k] is None}})


@dataclass
class ExperimentResult:
    reports: list
    details: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # not in the JSON; see run_experiment

    def to_json(self) -> str:
        return json.dumps({
            "reports": [r.to_dict() for r in self.reports],
            "details": self.details,
        })


def build_estimator(setting: EstimatorSetting, model, sigma2_mode: str):
    """Return a callable (spectrum, calibration) -> (q_hat, trace-or-None) for ``model``'s family.

    ``calibration`` is the pure-noise CalibrationResult at the model's size
    when ``setting.reads_calibration``, and None otherwise.
    ``sigma2_mode`` is "known" (``model.sigma2``) or "estimated"
    (``estimate_sigma2`` of each spectrum; population only).
    """
    estimated = sigma2_mode == "estimated"
    if estimated and not model.sigma2_estimable:
        raise ConfigurationError(
            "sigma2 estimation is only supported for population covariance spectra"
        )
    if estimated and setting.name != "lwy":  # lwy reads no scale
        calibration.check_sigma2_size(model.p)
    def scale(spec):  # looked up at call time, so a wrapped estimate_sigma2 sees every call
        return calibration.estimate_sigma2(spec) if estimated else model.sigma2
    tau = setting.tau if setting.tau is not None else model.default_tau
    name = setting.name

    if name in ("vacle", "tvacle"):
        if setting.L > model.p:
            raise ConfigurationError(
                f"search bound L = {setting.L} exceeds the spectrum length p = {model.p}"
            )
        ridge = setting.ridge or ("c1" if name == "vacle" else model.transformed_ridge)
        def c_n(calib):
            return setting.c_n if setting.c_n is not None else calib.ridge(ridge)
        if name == "vacle":
            return lambda spec, calib: vacle(spec, scale(spec), c_n(calib), tau, setting.L)
        e = model.bulk_edge()
        return lambda spec, calib: tvacle(spec, scale(spec), c_n(calib), e, tau, setting.L,
                                          setting.k1, setting.k2)

    if name == "py":
        C = setting.py_C if setting.py_C is not None else py_constant(model.p / model.count)
        return lambda spec, calib: (py_estimator(spec, scale(spec), C, L=setting.L,
                                                 start_index=setting.py_start_index).q_hat, None)

    if name == "lwy":
        def d_t(calib):
            return setting.d_t if setting.d_t is not None else calib.d_t_lwy
        return lambda spec, calib: (lwy_estimator(spec, d_t(calib), L=setting.L).q_hat, None)

    # wy: bulk-edge exceedance count, Fisher family only
    if model.kind != "fisher":
        raise ConfigurationError("the wy estimator applies to Fisher spectra only")
    edge = model.sigma2 * model.bulk_edge()
    d_n = loglog_rate(model.p)
    return lambda spec, calib: (min(wy_estimator(spec, edge, d_n), setting.L), None)


def _aggregate(model_id, model, setting, q_true, qs, seed, runtime_s,
               partial=False, error=None) -> SimulationReport:
    qs = np.asarray(qs, dtype=int)
    reps = qs.size
    if reps:
        mean = float(np.mean(qs))
        mse = float(np.mean((qs - q_true) ** 2))
        misest = float(np.mean(qs != q_true))
        buckets = np.bincount(np.minimum(qs, N_BUCKETS), minlength=N_BUCKETS + 1) / reps
    else:
        mean = mse = misest = float("nan")
        buckets = np.zeros(N_BUCKETS + 1)
    return SimulationReport(
        model_id=model_id, p=model.p, n=getattr(model, "n", None),
        T=getattr(model, "T", None), estimator=setting.column, reps=int(reps),
        q_true=int(q_true), mean=mean, mse=mse, misest_rate=misest,
        distribution=tuple(float(b) for b in buckets), seed=seed,
        runtime_s=runtime_s, partial=partial, error=error,
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1, cache_dir=None,
                   keep_traces: bool = False) -> ExperimentResult:
    """Run every grid point of the experiment; returns reports (and details).

    Every grid point's model and estimators are built before the first draw.
    A replication failure aborts its grid point: metrics over the completed
    replications are still reported, flagged partial, with the diagnostic in
    ``error``; if none completed, the exception also goes to ``failures``.
    Other grid points proceed.
    """
    points = []
    for point in cfg.grid:
        model = at_size(cfg.model, point.p, point.n, point.T)
        runners = [(s, build_estimator(s, model, cfg.sigma2_mode)) for s in cfg.estimators]
        points.append((point, model, runners))
    reads_calibration = any(s.reads_calibration for s in cfg.estimators)

    reports, details, failures = [], [], []
    for point, model, runners in points:
        t0 = time.perf_counter()
        calib = calibrate_ridge(
            model.kind, p=model.p, n=point.n, T=point.T, reps=cfg.calibration_reps,
            seed=cfg.calibration_seed, workers=workers, cache_dir=cache_dir,
        ) if reads_calibration else None
        q_true = model.true_order()

        def one(rng):
            spec = simulate(model, rng)
            out = {}
            traces = {}
            for setting, fn in runners:
                q, trace = fn(spec, calib)
                out[setting.column] = q
                if keep_traces and trace is not None:
                    traces[setting.column] = trace.to_dict()
            digest = hashlib.sha1(spec.values.tobytes()).hexdigest() if keep_traces else None
            return out, traces, digest

        completed, exc = replicate(one, cfg.seed, cfg.reps, workers)
        partial = exc is not None
        error = f"replication {len(completed)} failed: {exc!r}" if partial else None
        if partial and not completed:
            failures.append(exc)

        runtime_s = time.perf_counter() - t0
        point_detail = {
            "model_id": cfg.model_id, "p": model.p,
            "n": getattr(model, "n", None), "T": getattr(model, "T", None),
            "q_true": q_true, "calibration": calib.to_dict() if calib else None,
            "reps": [],
        }
        for setting, _ in runners:
            qs = [r[0][setting.column] for r in completed]
            reports.append(_aggregate(cfg.model_id, model, setting, q_true, qs,
                                      cfg.seed, runtime_s, partial, error))
        if keep_traces:
            for i, r in enumerate(completed):
                point_detail["reps"].append({
                    "rep": i, "spectrum_sha1": r[2],
                    "estimates": r[0], "traces": r[1],
                })
        details.append(point_detail)
    return ExperimentResult(reports=reports, details=details, failures=failures)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def summarize(reports) -> str:
    """Render reports as CSV text (header always present)."""
    header = (["model_id", "p", "n", "T", "estimator", "R", "mean", "mse",
               "misest_rate"]
              + [f"d{i}" for i in range(N_BUCKETS)] + [f"d_ge_{N_BUCKETS}"]
              + ["seed", "runtime_s"])
    lines = [",".join(header)]
    for r in reports:
        row = ([r.model_id, r.p, r.n, r.T, r.estimator, r.reps, r.mean, r.mse,
                r.misest_rate]
               + list(r.distribution) + [r.seed, r.runtime_s])
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"

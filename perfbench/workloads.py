"""The benchmark's workloads: inputs from the seed, one timed unit, gates.

A unit is one complete experiment as a user would run it: criterion 7 from
the library API on a cold calibration cache (``fisher-cold``), criterion 6
from the library API on a calibration cache filled during set-up
(``autocov-warm``), or ``spikeorder simulate`` through the click entry
point on a population config (``population-cli``).  A unit with the same
seed repeats the same inputs, so its CSV (less the wall-clock
``runtime_s`` column) must come out identical every time.

Importing this module imports the program; the caller puts its ``src``
directory on ``sys.path`` first.
"""

import csv
import hashlib
import io
import os
import shutil
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import spikeorder
import spikeorder.calibration
import spikeorder.cli
import spikeorder.estimators
import spikeorder.harness
import spikeorder.rmt
from spikeorder.harness import EstimatorSetting, ExperimentConfig, GridPoint
from spikeorder.spectra import AutocovModel, FisherModel

import tracing

MODULES = {m.__name__: m for m in (
    spikeorder.calibration, spikeorder.cli, spikeorder.estimators,
    spikeorder.harness, spikeorder.rmt,
)}

# acceptance-suite seeds; the workload seed is added to each, so seed 0
# reproduces the acceptance runs exactly
CALIBRATION_SEED = 7

# "full" is the benchmark; "tiny" keeps every code path for the smoke test
SIZES = {
    "full": {"reps": 200, "cal_reps": 500, "fisher": (250, 1250, 500),
             "autocov": (300, 600),
             "population_grid": "p:50 n:200; p:100 n:100; p:400 n:200"},
    "tiny": {"reps": 6, "cal_reps": 12, "fisher": (30, 150, 60),
             "autocov": (30, 60),
             "population_grid": "p:24 n:96; p:32 n:32; p:48 n:24"},
}


@dataclass(frozen=True)
class Bound:
    """One acceptance bound on 1 - misest_rate of one estimator."""

    model_id: str
    estimator: str
    limit: float
    at_least: bool = True

    def check(self, accuracy: float) -> tuple:
        """(label carrying the measured value, whether the bound holds)."""
        ok = accuracy >= self.limit if self.at_least else accuracy <= self.limit
        relation = ">=" if self.at_least else "<="
        return (f"{self.model_id} {self.estimator} accuracy {accuracy:.3f} "
                f"{relation} {self.limit}", ok)


@dataclass
class UnitResult:
    wall_s: float
    cpu_s: float
    spectra: int
    replications: int
    completed: int
    hits: int
    misses: int
    digest: str
    checks: dict = field(default_factory=dict)


def csv_digest(text: str) -> str:
    """SHA-256 of the result CSV without its wall-clock ``runtime_s`` column."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name != "runtime_s"]
    body = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(body.encode()).hexdigest()


class Workload:
    """Shared set-up and unit timing; subclasses define the experiment."""

    name = ""
    warm = False          # whether set-up fills the calibration cache

    def __init__(self, size: str, seed: int, workers: int, work_dir: str):
        self.size = SIZES[size]
        # The acceptance bounds are claims about the acceptance seeds; other
        # seeds and the toy size get every other gate.
        self.check_bounds = size == "full" and seed == 0
        self.seed = seed
        self.workers = workers
        self.work_dir = work_dir
        self.cache_dir = os.path.join(work_dir, "warm-cache") if self.warm else None

    def fill_cache(self) -> float:
        """Fill the calibration cache the timed units read; returns seconds."""
        return 0.0

    def _unit_cache(self) -> str:
        if self.warm:
            return self.cache_dir
        # cold units: a fresh empty cache every time, never a user's cache
        return tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)

    def run_unit(self, tracer=None) -> UnitResult:
        """Run one experiment, timed, with spans recorded when ``tracer`` is set."""
        counter = tracing.CacheCounter()
        cache = self._unit_cache()
        try:
            with tracing.patched(tracing.replacements(MODULES, counter, tracer)):
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                outcome = self._execute(cache)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
        finally:
            if not self.warm:
                shutil.rmtree(cache, ignore_errors=True)
        unit = self._result(outcome, wall, cpu, counter)
        points = self.grid_points()
        # warm: every grid point reads set-up's entry; cold: nothing to read
        expected = (points, 0) if self.warm else (0, points)
        unit.checks["cache hits/misses"] = (unit.hits, unit.misses) == expected
        return unit


class ApiWorkload(Workload):
    """Runs ``harness.run_experiment`` for each config of an acceptance criterion."""

    bounds = ()

    def __init__(self, *args):
        super().__init__(*args)
        self.cfgs = self.configs()

    def configs(self) -> list:
        raise NotImplementedError

    def grid_points(self) -> int:
        return sum(len(c.grid) for c in self.cfgs)

    def _execute(self, cache):
        # looked up at call time so the traced unit goes through the wrapper
        return [(cfg, spikeorder.harness.run_experiment(cfg, workers=self.workers,
                                                        cache_dir=cache))
                for cfg in self.cfgs]

    def _result(self, outcome, wall, cpu, counter) -> UnitResult:
        reports = [r for _, res in outcome for r in res.reports]
        completed = replications = 0
        for cfg, res in outcome:
            per_point = len(cfg.estimators)
            completed += sum(r.reps for r in res.reports[::per_point])
            replications += cfg.reps * len(cfg.grid)
        checks = {"complete": completed == replications
                  and not any(r.partial for r in reports)}
        if self.check_bounds:
            for b in self.bounds:
                r = next(r for r in reports
                         if r.model_id == b.model_id and r.estimator == b.estimator)
                label, ok = b.check(1.0 - r.misest_rate)
                checks[label] = ok
        cal_reps = self.cfgs[0].calibration_reps
        return UnitResult(
            wall_s=wall, cpu_s=cpu,
            spectra=completed + counter.misses * cal_reps,
            replications=replications, completed=completed,
            hits=counter.hits, misses=counter.misses,
            digest=csv_digest(spikeorder.harness.summarize(reports)), checks=checks)


class FisherCold(ApiWorkload):
    """Acceptance criterion 7 (Fisher, tvacle + wy), fresh cache every unit."""

    name = "fisher-cold"
    bounds = (Bound("m57", "tvacle", 0.88), Bound("m57", "wy", 0.88))

    def configs(self):
        p, n, T = self.size["fisher"]
        return [ExperimentConfig(
            model_id="m57",
            model=FisherModel(p=p, n=n, T=T, alpha=(10.0, 5.0, 5.0)),
            grid=(GridPoint(p=p, n=n, T=T),),
            estimators=(EstimatorSetting("tvacle"), EstimatorSetting("wy")),
            reps=self.size["reps"], seed=107 + self.seed,
            calibration_reps=self.size["cal_reps"],
            calibration_seed=CALIBRATION_SEED + self.seed,
        )]


class AutocovWarm(ApiWorkload):
    """Acceptance criterion 6 (autocov m55 and m56, tvacle + lwy), warm cache."""

    name = "autocov-warm"
    warm = True
    bounds = (Bound("m55", "tvacle", 0.90), Bound("m55", "lwy", 0.90),
              Bound("m56", "tvacle", 0.95), Bound("m56", "lwy", 0.75, at_least=False))

    def configs(self):
        p, T = self.size["autocov"]
        common = dict(grid=(GridPoint(p=p, T=T),),
                      estimators=(EstimatorSetting("tvacle"), EstimatorSetting("lwy")),
                      reps=self.size["reps"], calibration_reps=self.size["cal_reps"],
                      calibration_seed=CALIBRATION_SEED + self.seed)
        return [
            ExperimentConfig(model_id="m55",
                             model=AutocovModel(p=p, T=T, theta=(0.6, -0.5, 0.3),
                                                gamma_diag=(2.0,) * 3),
                             seed=106 + self.seed, **common),
            ExperimentConfig(model_id="m56",
                             model=AutocovModel(p=p, T=T, theta=(0.5,) * 6,
                                                gamma_diag=(2.0,) * 6),
                             seed=116 + self.seed, **common),
        ]

    def fill_cache(self) -> float:
        t0 = time.perf_counter()
        for cfg in self.cfgs:
            for point in cfg.grid:
                # the same call, hence the same cache key, as the harness makes
                spikeorder.calibration.calibrate_ridge(
                    cfg.model.kind, p=point.p, n=point.n, T=point.T,
                    reps=cfg.calibration_reps, seed=cfg.calibration_seed,
                    workers=self.workers, cache_dir=self.cache_dir)
        return time.perf_counter() - t0


class PopulationCli(Workload):
    """``spikeorder simulate`` on a population config, one worker, fresh cache."""

    name = "population-cli"
    estimators = ("py", "vacle", "tvacle", "lwy")

    def __init__(self, *args):
        super().__init__(*args)
        self.out_path = os.path.join(self.work_dir, "results.csv")
        self.config_path = os.path.join(self.work_dir, "population.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(
                "[model]\nkind = population\nspikes = 7, 6, 5, 4\n\n"
                f"[harness]\ngrid = {self.size['population_grid']}\n"
                f"reps = {self.size['reps']}\nseed = {self.seed}\n"
                f"estimators = {', '.join(self.estimators)}\n"
                "sigma2_mode = estimated\n\n"
                f"[calibration]\nreps = {self.size['cal_reps']}\n"
                f"seed = {CALIBRATION_SEED + self.seed}\n")

    def grid_points(self) -> int:
        return self.size["population_grid"].count(";") + 1

    def _execute(self, cache):
        args = ["simulate", "--config", self.config_path, "--workers", "1",
                "--cache-dir", cache, "--out", self.out_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                spikeorder.cli.main.main(args=args, prog_name="spikeorder",
                                         standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        return code, stderr.getvalue()

    def _result(self, outcome, wall, cpu, counter) -> UnitResult:
        code, stderr = outcome
        text = None
        if code == 0:
            with open(self.out_path) as fh:
                text = fh.read()
            os.unlink(self.out_path)
        reps = self.size["reps"]
        replications = reps * self.grid_points()
        checks = {"cli exit 0": code == 0, "no warnings": "warning" not in stderr}
        completed, digest = 0, ""
        if text is not None:
            rows = list(csv.DictReader(io.StringIO(text)))
            expected_rows = self.grid_points() * len(self.estimators)
            checks["csv rows"] = len(rows) == expected_rows
            completed = sum(int(r["R"]) for r in rows[::len(self.estimators)])
            digest = csv_digest(text)
        checks["complete"] = completed == replications
        return UnitResult(
            wall_s=wall, cpu_s=cpu,
            spectra=completed + counter.misses * self.size["cal_reps"],
            replications=replications, completed=completed,
            hits=counter.hits, misses=counter.misses, digest=digest, checks=checks)


WORKLOADS = {w.name: w for w in (FisherCold, AutocovWarm, PopulationCli)}

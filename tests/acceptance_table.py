"""The seeded Monte-Carlo acceptance criteria (1-4 and 6-8) as plain data.

``TABLE[criterion][name]`` pairs what runs (an ``ExperimentConfig`` or a
``SpectrumRun``) with the bounds it is held to.  The module holds no tests and
imports only the standard library and ``spikeorder``, so a tool can load it by
path and rerun an entry with its seeds shifted (``dataclasses.replace``).
"""

from dataclasses import dataclass

from spikeorder.harness import EstimatorSetting, ExperimentConfig, GridPoint
from spikeorder.spectra import AutocovModel, FisherModel, PopulationModel

REPS = 200
CALIBRATION_SEED = 7


@dataclass(frozen=True)
class Bound:
    """``lo <= statistic <= hi`` (None: open) per estimator; ``accuracy`` = 1 - misest_rate."""

    estimators: tuple
    statistic: str
    lo: float | None = None
    hi: float | None = None

    def holds(self, value) -> bool:
        return (self.lo is None or value >= self.lo) and (self.hi is None or value <= self.hi)


@dataclass(frozen=True)
class SpectrumRun:
    """``streams`` spectra of ``model``, stream i Philox(SeedSequence(seed).spawn(streams)[i])."""

    model: PopulationModel
    seed: int
    streams: int = REPS


def _experiment(model_id, model, estimators, seed, bounds=(), reps=REPS, **config):
    """An entry ``(config, bounds)``: one grid point at the model's own size."""
    return ExperimentConfig(
        model_id=model_id, model=model, reps=reps, seed=seed, calibration_seed=CALIBRATION_SEED,
        grid=(GridPoint(**{size: getattr(model, size) for size in model.sizes}),),
        estimators=tuple(e if isinstance(e, EstimatorSetting) else EstimatorSetting(e)
                         for e in estimators), **config), bounds


_PAIR = ("vacle", "tvacle")

TABLE = {
    1: {"m51": _experiment(
        "m51", PopulationModel(p=50, n=200, spikes=(259.72, 17.97, 11.04, 7.88, 4.82)),
        _PAIR, 101, (Bound(_PAIR, "misest_rate", hi=0.05), Bound(_PAIR, "mean", 4.9, 5.1)))},
    2: {"m53": _experiment("m53", PopulationModel(p=400, n=200, spikes=(5.0, 4.0, 3.0, 3.0)),
                           ("tvacle", "py"), 102, (Bound(("tvacle",), "mean", 2.2, 3.1),))},
    3: {"m54-tvacle": _experiment("m54", PopulationModel(p=200, n=200, spikes=(5.0,) * 6),
                                  ("tvacle",), 103, (Bound(("tvacle",), "accuracy", lo=0.97),)),
        "m54-py": _experiment("m54", PopulationModel(p=100, n=100, spikes=(5.0,) * 6),
                              ("py",), 103, (Bound(("py",), "accuracy", 0.45, 0.70),))},
    4: {"sigma2": (SpectrumRun(PopulationModel(p=200, n=800, spikes=(7.0, 6.0, 5.0, 4.0)), 104),
                   (Bound(("sigma2",), "mean", 1.005, 1.025),
                    Bound(("sigma2",), "mse", hi=0.001)))},
    6: {"m55": _experiment(
            "m55", AutocovModel(p=300, T=600, theta=(0.6, -0.5, 0.3), gamma_diag=(2.0,) * 3),
            ("tvacle", "lwy"), 106, (Bound(("tvacle", "lwy"), "accuracy", lo=0.90),)),
        "m56": _experiment(
            "m56", AutocovModel(p=300, T=600, theta=(0.5,) * 6, gamma_diag=(2.0,) * 6),
            ("tvacle", "lwy"), 116, (Bound(("tvacle",), "accuracy", lo=0.95),
                                     Bound(("lwy",), "accuracy", hi=0.75)))},
    7: {"m57": _experiment(
        "m57", FisherModel(p=250, n=1250, T=500, alpha=(10.0, 5.0, 5.0)),
        ("tvacle", "wy"), 107, (Bound(("tvacle", "wy"), "accuracy", lo=0.88),))},
    # pure noise, so misest_rate is the false-detection rate; tvacle(c2) is only reported
    8: {"noise": _experiment(
            "noise", PopulationModel(p=200, n=200),
            ("vacle", *(EstimatorSetting("tvacle", ridge=r, label=f"tvacle({r})")
                        for r in ("c1", "c2"))),
            108, (Bound(("vacle", "tvacle(c1)"), "misest_rate", hi=0.05),), calibration_reps=500),
        "threads": _experiment("thr", PopulationModel(p=50, n=200, spikes=(7.0, 6.0, 5.0, 4.0)),
                               _PAIR, 109, reps=12, calibration_reps=60)},
}

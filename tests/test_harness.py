import hashlib
import json
import math

import numpy as np
import population_reference
import pytest

import spikeorder.calibration as calibration_mod
import spikeorder.harness as harness_mod
from spikeorder.errors import ConfigurationError
from spikeorder.harness import (
    ESTIMATOR_NAMES,
    EstimatorSetting,
    ExperimentConfig,
    GridPoint,
    SimulationReport,
    run_experiment,
    summarize,
)
from spikeorder.spectra import AutocovModel, FisherModel, PopulationModel


def small_config(**kw):
    defaults = dict(
        model_id="toy",
        model=PopulationModel(p=50, n=200, spikes=(7.0, 6.0, 5.0, 4.0)),
        grid=(GridPoint(p=50, n=200),),
        estimators=(EstimatorSetting("vacle"), EstimatorSetting("py")),
        reps=8,
        seed=5,
        calibration_reps=40,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# per family: a small model, its grid point and estimators that apply to it
FAMILY_RUNS = {
    "population": (PopulationModel(p=50, n=200, spikes=(7.0, 6.0, 5.0, 4.0)),
                   GridPoint(p=50, n=200), ("vacle", "tvacle", "py", "lwy")),
    "fisher": (FisherModel(p=40, n=200, T=80, alpha=(10.0, 5.0, 5.0)),
               GridPoint(p=40, n=200, T=80), ("vacle", "tvacle", "lwy", "wy")),
    "autocov": (AutocovModel(p=40, T=80, theta=(0.6,), gamma_diag=(2.0,)),
                GridPoint(p=40, T=80), ("vacle", "tvacle", "py", "lwy")),
}


def family_config(family, **kw):
    model, point, names = FAMILY_RUNS[family]
    return small_config(model_id=family, model=model, grid=(point,),
                        estimators=tuple(EstimatorSetting(n) for n in names),
                        calibration_reps=30, **kw)


def csv_digest(reports):
    """SHA-256 of the CSV without its wall-clock runtime_s column."""
    rows = summarize(reports).splitlines()
    return hashlib.sha256("\n".join(r.rsplit(",", 1)[0] for r in rows).encode()).hexdigest()


def metrics(report):
    d = report.to_dict()
    d.pop("runtime_s")
    return d


class TestConfigValidation:
    def test_bad_settings(self):
        with pytest.raises(ConfigurationError):
            EstimatorSetting("nope")
        with pytest.raises(ConfigurationError):
            EstimatorSetting("vacle", ridge="c9")
        with pytest.raises(ConfigurationError):
            small_config(reps=0)
        with pytest.raises(ConfigurationError):
            small_config(grid=())
        with pytest.raises(ConfigurationError):
            small_config(estimators=())
        with pytest.raises(ConfigurationError):
            small_config(sigma2_mode="maybe")

    @pytest.mark.parametrize("run, message", [
        ({"calibration_reps": 1}, "calibration needs R >= 2, got 1"),
        ({"calibration_seed": -1}, "calibration seed must be nonnegative, got -1"),
    ])
    def test_bad_noise_run_rejected(self, run, message):
        # checked whether or not an estimator reads the calibration
        with pytest.raises(ConfigurationError, match=message):
            small_config(estimators=(EstimatorSetting("py"),), **run)

    def test_duplicate_column_rejected(self):
        # results are keyed by column, so two settings with one column would
        # silently report one of them twice
        with pytest.raises(ConfigurationError, match="'tvacle'"):
            small_config(estimators=(EstimatorSetting("tvacle", "c3a"),
                                     EstimatorSetting("tvacle", "c3b")))
        small_config(estimators=(EstimatorSetting("tvacle", "c3a"),
                                 EstimatorSetting("tvacle", "c3b", label="tvacle_c3b")))


class TestDeterminism:
    def test_single_rep_bitwise(self, cache_dir):
        cfg = small_config(reps=1)
        a = run_experiment(cfg, cache_dir=cache_dir).reports
        b = run_experiment(cfg, cache_dir=cache_dir).reports
        assert [metrics(r) for r in a] == [metrics(r) for r in b]

    @pytest.mark.parametrize("family", sorted(FAMILY_RUNS))
    def test_thread_count_independence(self, cache_dir, family):
        cfg = family_config(family, reps=12)
        a = run_experiment(cfg, workers=1, cache_dir=cache_dir).reports
        b = run_experiment(cfg, workers=3, cache_dir=cache_dir).reports
        assert [metrics(r) for r in a] == [metrics(r) for r in b]

    @pytest.mark.parametrize("family, digest", [
        ("autocov", "efd20afec8d4752acb4250de7e2facb0105b1356a0f821fd0d5c1352bae9fa2d"),
        ("fisher", "e5793c2df4f10ffb5e9d076c536e736d39e6e9e2ddc2357da89a7eb8920ddab1"),
        ("population", "f1d35567cc83007e4f2843f318ab5560e58a77084bcacf314f604878754b39a1"),
    ])
    def test_csv_digest_pinned(self, tmp_path, family, digest):
        # the determinism contract, pinned: calibration and replications at
        # one and two workers (fresh caches) give these exact CSV rows
        cfg = family_config(family, reps=8)
        for workers in (1, 2):
            reports = run_experiment(cfg, workers=workers,
                                     cache_dir=str(tmp_path / f"w{workers}")).reports
            assert csv_digest(reports) == digest

    def test_dense_reference_digest(self, tmp_path, monkeypatch):
        # the harness path alone, pinned: with the dense reference generator in
        # place of the banded one, the population rows are those pinned before
        # the banded model replaced it
        monkeypatch.setattr(harness_mod, "simulate", population_reference.simulate_population)
        cfg = family_config("population", reps=8)
        for workers in (1, 2):
            reports = run_experiment(cfg, workers=workers,
                                     cache_dir=str(tmp_path / f"w{workers}")).reports
            assert csv_digest(reports) == (
                "5d1fe2a73f5e9a2edcb7d56b15a844d0eb92b007404e7bd89807eb27c755f288")

    def test_paired_spectra(self, cache_dir):
        # adding an estimator must not change the spectra fed to the others
        lone = run_experiment(small_config(estimators=(EstimatorSetting("vacle"),)),
                              cache_dir=cache_dir).reports
        both = run_experiment(small_config(), cache_dir=cache_dir).reports
        vacle_lone = [r for r in lone if r.estimator == "vacle"][0]
        vacle_both = [r for r in both if r.estimator == "vacle"][0]
        assert metrics(vacle_lone) == metrics(vacle_both)

    def test_trace_hashes_stable(self, cache_dir):
        cfg = small_config(reps=3)
        a = run_experiment(cfg, cache_dir=cache_dir, keep_traces=True).details
        b = run_experiment(cfg, cache_dir=cache_dir, keep_traces=True).details
        ha = [r["spectrum_sha1"] for r in a[0]["reps"]]
        hb = [r["spectrum_sha1"] for r in b[0]["reps"]]
        assert ha == hb
        assert len(set(ha)) == len(ha)  # replications use distinct spectra


class TestMetrics:
    def test_distribution_consistency(self, cache_dir):
        cfg = small_config(reps=25)
        for rep in run_experiment(cfg, cache_dir=cache_dir).reports:
            dist = np.asarray(rep.distribution)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            support = np.arange(dist.size)
            mean = float(np.sum(support * dist))
            mse = float(np.sum((support - rep.q_true) ** 2 * dist))
            assert mean == pytest.approx(rep.mean, abs=1e-10)
            assert mse == pytest.approx(rep.mse, abs=1e-10)

    def test_q_true_is_identifiable_order(self, cache_dir):
        # at c = 2 the threshold 1 + sqrt(2) leaves all four spikes above it
        cfg = small_config(
            model=PopulationModel(p=50, n=25, spikes=(5.0, 4.0, 3.0, 3.0)),
            grid=(GridPoint(p=50, n=25),), reps=2)
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert all(r.q_true == 4 for r in reports)
        # a spike below the threshold drops out of q_true
        cfg = small_config(
            model=PopulationModel(p=50, n=25, spikes=(5.0, 2.0)),
            grid=(GridPoint(p=50, n=25),), reps=2)
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert all(r.q_true == 1 for r in reports)

    def test_report_invariants_enforced(self):
        with pytest.raises(ConfigurationError):
            SimulationReport(model_id="x", p=5, n=5, T=None, estimator="vacle",
                             reps=4, q_true=1, mean=1.0, mse=0.0,
                             misest_rate=0.0,
                             distribution=tuple([0.5] + [0.0] * 20), seed=0,
                             runtime_s=0.0)


class TestFamilies:
    def test_autocov_wiring(self, cache_dir):
        cfg = ExperimentConfig(
            model_id="auto",
            model=AutocovModel(p=60, T=120, theta=(0.6,), gamma_diag=(2.0,)),
            grid=(GridPoint(p=60, T=120),),
            estimators=(EstimatorSetting("lwy"), EstimatorSetting("tvacle")),
            reps=4, seed=2, calibration_reps=30,
        )
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert {r.estimator for r in reports} == {"lwy", "tvacle"}
        assert all(r.q_true == 1 for r in reports)

    def test_fisher_wiring_and_wy_gate(self, cache_dir):
        cfg = ExperimentConfig(
            model_id="fish",
            model=FisherModel(p=40, n=200, T=80, alpha=(10.0, 5.0, 5.0)),
            grid=(GridPoint(p=40, n=200, T=80),),
            estimators=(EstimatorSetting("wy"), EstimatorSetting("tvacle")),
            reps=4, seed=3, calibration_reps=30,
        )
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert all(r.q_true == 3 for r in reports)
        # wy outside the fisher family is a configuration error
        bad = small_config(estimators=(EstimatorSetting("wy"),), reps=2)
        with pytest.raises(ConfigurationError):
            run_experiment(bad, cache_dir=cache_dir)

    @pytest.mark.parametrize("method", ["vacle", "tvacle"])
    def test_search_bound_above_p(self, monkeypatch, method):
        # raised while the estimators are built: no calibration or
        # replication draw runs first
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the configuration was checked")

        monkeypatch.setattr(harness_mod, "calibrate_ridge", no_draw)
        monkeypatch.setattr(harness_mod, "simulate", no_draw)
        cfg = small_config(grid=(GridPoint(p=10, n=40),),
                           estimators=(EstimatorSetting(method),))
        with pytest.raises(ConfigurationError, match=r"L = 20 .* p = 10"):
            run_experiment(cfg)

    # EstimatorSetting keywords; the last cases set an option the method does not read
    @pytest.mark.parametrize("setting, message", [
        ({"name": "lwy", "d_t": 1.5}, r"d_t .* \(0, 1\)"),
        ({"name": "lwy", "d_t": 0.0}, r"d_t .* \(0, 1\)"),
        ({"name": "py", "py_start_index": 4}, "py_start_index .* 0 or 1"),
        ({"name": "py", "c_n": -3.0}, r"c_n .* \(0, inf\)"),
        ({"name": "py", "k1": -1.0}, "k1 and k2 .* nonnegative"),
        ({"name": "vacle", "py_C": math.nan}, r"py_c .* \(0, inf\)"),
        ({"name": "vacle", "d_t": 7.0}, r"d_t .* \(0, 1\)"),
        ({"name": "lwy", "tau": math.nan}, r"tau .* \(0, 1\)"),
        ({"name": "wy", "k2": math.inf}, "k1 and k2 .* finite"),
    ])
    def test_bad_tuning_checked_before_any_draw(self, monkeypatch, setting, message):
        # the estimator would reject these on every spectrum, or never read
        # them; they are rejected before the calibration or replication 0 runs
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the configuration was checked")

        monkeypatch.setattr(harness_mod, "calibrate_ridge", no_draw)
        monkeypatch.setattr(harness_mod, "simulate", no_draw)
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(small_config(estimators=(EstimatorSetting(**setting),)))

    def test_later_grid_point_checked_before_any_draw(self, monkeypatch, tmp_path):
        # the bad setting sits at the second point; the first point's
        # calibration and replications must not run and be thrown away
        calls = []

        def counting(module):
            real = module.simulate
            def simulate(model, rng):
                calls.append(module.__name__)
                return real(model, rng)
            return simulate

        for module in (harness_mod, calibration_mod):
            monkeypatch.setattr(module, "simulate", counting(module))
        cfg = small_config(grid=(GridPoint(p=50, n=200), GridPoint(p=10, n=40)),
                           estimators=(EstimatorSetting("vacle"),), reps=3)
        with pytest.raises(ConfigurationError, match=r"L = 20 .* p = 10"):
            run_experiment(cfg, cache_dir=tmp_path)
        assert calls == []

    def test_calibrates_each_point_once_before_its_draws(self, monkeypatch, tmp_path):
        events = []
        for module, name in ((harness_mod, "calibrate_ridge"), (harness_mod, "simulate")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name, **k:
                                events.append(_name) or _real(*a, **k))
        names = ("vacle", "tvacle", "lwy")
        cfg = small_config(grid=(GridPoint(p=50, n=200), GridPoint(p=40, n=100)),
                           estimators=tuple(EstimatorSetting(n) for n in names), reps=3)
        run_experiment(cfg, workers=2, cache_dir=tmp_path)
        assert events == (["calibrate_ridge"] + ["simulate"] * 3) * 2

    @pytest.mark.parametrize("method", ["py", "lwy"])
    def test_baselines_run_below_search_bound(self, cache_dir, method):
        cfg = small_config(grid=(GridPoint(p=10, n=40),),
                           estimators=(EstimatorSetting(method),), reps=3)
        (report,) = run_experiment(cfg, cache_dir=cache_dir).reports
        assert report.reps == 3 and not report.partial

    def test_ridge_override_c3b(self, cache_dir):
        # per-estimator ridge selection routes through the calibration result
        cfg = ExperimentConfig(
            model_id="fish8",
            model=FisherModel(p=40, n=80, T=200, alpha=(10.0, 2.0, 2.0)),
            grid=(GridPoint(p=40, n=80, T=200),),
            estimators=(EstimatorSetting("tvacle", ridge="c3b", label="tvacle_b"),
                        EstimatorSetting("tvacle", ridge="c3a")),
            reps=4, seed=6, calibration_reps=30,
        )
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert {r.estimator for r in reports} == {"tvacle_b", "tvacle"}

    def test_wy_capped_at_bound(self, cache_dir):
        # a tiny shift makes the exceedance count run far past the true order;
        # the harness caps the reported value at L
        cfg = ExperimentConfig(
            model_id="cap",
            model=FisherModel(p=40, n=200, T=80, alpha=(10.0, 5.0, 5.0)),
            grid=(GridPoint(p=40, n=200, T=80),),
            estimators=(EstimatorSetting("wy", L=5),),
            reps=3, seed=4, calibration_reps=30,
        )
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert all(r.mean <= 5 for r in reports)

    def test_autocov_py(self, cache_dir):
        # the py constant is keyed by p over the primary count, T for autocov
        cfg = ExperimentConfig(
            model_id="auto_py",
            model=AutocovModel(p=40, T=80, theta=(0.6,), gamma_diag=(2.0,)),
            grid=(GridPoint(p=40, T=80),),
            estimators=(EstimatorSetting("py"), EstimatorSetting("lwy")),
            reps=3, seed=2, calibration_reps=30,
        )
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert not any(r.partial for r in reports)
        assert all(np.isfinite(r.mean) for r in reports)

    @pytest.mark.parametrize("family, name", [
        ("fisher", name) for name in ESTIMATOR_NAMES
    ] + [("autocov", name) for name in ("vacle", "tvacle", "py", "lwy")])
    def test_estimated_sigma2_population_only(self, cache_dir, family, name):
        model, grid = {
            "fisher": (FisherModel(p=40, n=200, T=80, alpha=(10.0, 5.0, 5.0)),
                       GridPoint(p=40, n=200, T=80)),
            "autocov": (AutocovModel(p=40, T=80, theta=(0.6,)), GridPoint(p=40, T=80)),
        }[family]
        cfg = ExperimentConfig(model_id="est", model=model, grid=(grid,),
                               estimators=(EstimatorSetting(name),), reps=2,
                               seed=1, sigma2_mode="estimated", calibration_reps=30)
        with pytest.raises(ConfigurationError, match="population"):
            run_experiment(cfg, cache_dir=cache_dir)

    def test_estimated_sigma2_mode(self, cache_dir):
        cfg = small_config(sigma2_mode="estimated", reps=4,
                           estimators=(EstimatorSetting("vacle"),
                                       EstimatorSetting("tvacle")))
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert all(np.isfinite(r.mean) for r in reports)


class TestPartial:
    def test_partial_flag_on_failure(self, cache_dir, monkeypatch):
        real = harness_mod.simulate
        calls = {"k": 0}

        def flaky(model, rng):
            calls["k"] += 1
            if calls["k"] == 4:
                raise RuntimeError("synthetic failure")
            return real(model, rng)

        monkeypatch.setattr(harness_mod, "simulate", flaky)
        cfg = small_config(reps=6, estimators=(EstimatorSetting("vacle"),))
        reports = run_experiment(cfg, cache_dir=cache_dir).reports
        assert len(reports) == 1
        r = reports[0]
        assert r.partial
        assert "synthetic failure" in r.error
        assert r.reps == 3


class TestSummarize:
    def test_header_only_when_empty(self):
        text = summarize([])
        lines = text.strip().split("\n")
        assert len(lines) == 1
        cols = lines[0].split(",")
        assert cols[:9] == ["model_id", "p", "n", "T", "estimator", "R", "mean",
                            "mse", "misest_rate"]
        assert cols[9] == "d0" and cols[29] == "d_ge_20"
        assert cols[-2:] == ["seed", "runtime_s"]

    def test_rows_and_pairing(self, cache_dir):
        reports = run_experiment(small_config(reps=5), cache_dir=cache_dir).reports
        text = summarize(reports)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "toy" and first[1] == "50"
        # paired estimators share (model, size) on adjacent rows
        second = lines[2].split(",")
        assert first[:4] == second[:4]
        dist = [float(x) for x in first[9:30]]
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_via_json(self, cache_dir):
        result = run_experiment(small_config(reps=3), cache_dir=cache_dir)
        payload = json.loads(result.to_json())
        rebuilt = [SimulationReport(**{**r, "distribution": tuple(r["distribution"])})
                   for r in payload["reports"]]
        assert summarize(rebuilt) == summarize(result.reports)

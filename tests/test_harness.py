import hashlib
import json
import math

import autocov_reference
import numpy as np
import population_reference
import pytest

import spikeorder.calibration as calibration_mod
import spikeorder.harness as harness_mod
from spikeorder.errors import ConfigurationError, NumericalError
from spikeorder.harness import (
    ESTIMATOR_NAMES,
    EstimatorSetting,
    ExperimentConfig,
    GridPoint,
    SimulationReport,
    build_estimator,
    run_experiment,
    summarize,
)
from spikeorder.estimators import lwy_estimator, py_estimator, vacle, wy_estimator
from spikeorder.spectra import AutocovModel, FisherModel, PopulationModel, Spectrum


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

    # one bad input per case, at the spectrum's sizes (p, n): the estimator
    # function and EstimatorSetting/build_estimator reject it with one message
    @pytest.mark.parametrize("estimate, setting, sizes, message", [
        (lambda spec: lwy_estimator(spec, d_T=1.5), {"name": "lwy", "d_t": 1.5}, (20, 40),
         "d_t must lie in (0, 1), got 1.5"),
        (lambda spec: vacle(spec, 1.0, c_n=-1), {"name": "vacle", "c_n": -1}, (20, 40),
         "c_n must lie in (0, inf), got -1"),
        (lambda spec: py_estimator(spec, 1.0, C=-1), {"name": "py", "py_C": -1}, (20, 40),
         "py_c must lie in (0, inf), got -1"),
        (lambda spec: py_estimator(spec, 1.0, C=6.3, start_index=4),
         {"name": "py", "py_start_index": 4}, (20, 40), "py_start_index must be 0 or 1, got 4"),
        (lambda spec: py_estimator(spec, 1.0, C=6.3), {"name": "py"}, (10, 2),
         "py needs n >= 3, got n = 2"),
        (lambda spec: lwy_estimator(spec, d_T=0.5), {"name": "lwy", "d_t": 0.5}, (2, 50),
         "lwy needs at least 3 eigenvalues, got p = 2"),
        (lambda spec: wy_estimator(spec, edge=1.0, d_n=0.1, L=-1), {"name": "wy", "L": -1},
         (20, 40), "search bound L must be at least 0, got -1"),
    ], ids=["lwy-d_t", "vacle-c_n", "py-C", "py-start_index", "py-n2", "lwy-p2", "wy-L"])
    def test_library_and_harness_reject_alike(self, estimate, setting, sizes, message):
        p, n = sizes
        spec = Spectrum(values=np.linspace(3.0, 1.0, p), p=p, n=n, scale_power=1)
        with pytest.raises(ConfigurationError) as library:
            estimate(spec)
        with pytest.raises(ConfigurationError) as harness:
            build_estimator(EstimatorSetting(**setting), PopulationModel(p=p, n=n), "known")
        assert str(library.value) == str(harness.value) == message

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
        ("autocov", "3cc73a8cd0a0638048d397355c60df5daf21a900cf75e313677c0fd3eb407497"),
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

    @pytest.mark.parametrize("family, digest", [
        ("autocov", "b1cba2e6a0c847b636077919fe0ab687ae9e4cfa673966f3adc3af8e98209eff"),
        ("fisher", "649fc3de7488c5c691179fc6d81c6a48f5f416e397c8ea5251e960d1218476ac"),
        ("population", "a4d9cf010cadcd19aa4c5050137ee6bce0f77be184dc4b761ce939febe9ba7c1"),
    ])
    def test_json_mirror_digest_pinned(self, tmp_path, family, digest):
        # likewise for the JSON mirror: each replication's estimates, ratio
        # traces and spectrum digest, at one and two workers
        cfg = family_config(family, reps=8)
        for workers in (1, 2):
            details = run_experiment(cfg, workers=workers, keep_traces=True,
                                     cache_dir=str(tmp_path / f"w{workers}")).details
            text = json.dumps(details, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("family", sorted(FAMILY_RUNS))
    def test_detail_states_the_point_its_reports_state(self, cache_dir, family):
        # keep_traces drops only the replication records: the point's identity,
        # true order and calibration are in every detail, as in its reports
        cfg = family_config(family, reps=8)
        bare = run_experiment(cfg, cache_dir=cache_dir)
        kept = run_experiment(cfg, cache_dir=cache_dir, keep_traces=True)
        assert len(bare.details) == len(kept.details) == len(cfg.grid)
        for i, (plain, full) in enumerate(zip(bare.details, kept.details)):
            assert plain["reps"] == []
            assert plain == {**full, "reps": []}
            for report in bare.reports[i * len(cfg.estimators):(i + 1) * len(cfg.estimators)]:
                for key in ("model_id", "p", "n", "T", "q_true"):
                    assert getattr(report, key) == plain[key], key

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

    def test_autocov_reference_digest(self, tmp_path, monkeypatch):
        # likewise for autocov: with the burn-in reference generator in place of
        # the stationary start, the rows are those pinned before it replaced it
        monkeypatch.setattr(harness_mod, "simulate", autocov_reference.simulate_autocov)
        cfg = family_config("autocov", reps=8)
        for workers in (1, 2):
            reports = run_experiment(cfg, workers=workers,
                                     cache_dir=str(tmp_path / f"w{workers}")).reports
            assert csv_digest(reports) == (
                "efd20afec8d4752acb4250de7e2facb0105b1356a0f821fd0d5c1352bae9fa2d")

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

    @pytest.fixture
    def simulate_calls(self, monkeypatch):
        """The modules' ``simulate`` calls, in order, by module name."""
        calls = []

        def counting(module):
            real = module.simulate
            def simulate(model, rng):
                calls.append(module.__name__)
                return real(model, rng)
            return simulate

        for module in (harness_mod, calibration_mod):
            monkeypatch.setattr(module, "simulate", counting(module))
        return calls

    def test_later_grid_point_checked_before_any_draw(self, simulate_calls, tmp_path):
        # the bad setting sits at the second point; the first point's
        # calibration and replications must not run and be thrown away
        cfg = small_config(grid=(GridPoint(p=50, n=200), GridPoint(p=10, n=40)),
                           estimators=(EstimatorSetting("vacle"),), reps=3)
        with pytest.raises(ConfigurationError, match=r"L = 20 .* p = 10"):
            run_experiment(cfg, cache_dir=tmp_path)
        assert simulate_calls == []

    @pytest.fixture
    def work_calls(self, monkeypatch):
        """The harness's calibration and draw calls, in order."""
        calls = []
        for name in ("calibrate_ridge", "simulate"):
            real = getattr(harness_mod, name)
            monkeypatch.setattr(harness_mod, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        return calls

    # the factor's T1 = 2 y sigma2^2 / (A + sqrt(disc)) underflows to 0 at
    # sigma2 = 1e-150 and y = p / T = 3e-24, so the point at T = 1e25 has no
    # true order (NumericalError); the point at T = 60 has one
    UNDERFLOWING = dict(model=AutocovModel(p=30, T=60, theta=(0.5,), sigma2=1e-150),
                        estimators=(EstimatorSetting("tvacle"),), reps=3)

    def test_true_orders_found_before_any_draw(self, work_calls, tmp_path):
        # the failing true order sits at the second point; the first point's
        # calibration and replications must not run and be thrown away
        cfg = small_config(grid=(GridPoint(p=30, T=60), GridPoint(p=30, T=10**25)),
                           **self.UNDERFLOWING)
        with pytest.raises(NumericalError):
            run_experiment(cfg, cache_dir=tmp_path)
        assert work_calls == []

    def test_configuration_error_wins_over_true_order(self, work_calls, tmp_path):
        # a bad setting at a later point is bad input (exit 2), whatever the
        # true order of an earlier point would have raised
        cfg = small_config(grid=(GridPoint(p=30, T=10**25), GridPoint(p=10, T=60)),
                           **self.UNDERFLOWING)
        with pytest.raises(ConfigurationError, match=r"L = 20 .* p = 10"):
            run_experiment(cfg, cache_dir=tmp_path)
        assert work_calls == []

    @pytest.mark.parametrize("point, setting, message", [
        (GridPoint(p=10, n=2), EstimatorSetting("py"), "py needs n >= 3, got n = 2"),
        (GridPoint(p=2, n=50), EstimatorSetting("lwy", d_t=0.5),
         "lwy needs at least 3 eigenvalues, got p = 2"),
    ], ids=["py-n2", "lwy-p2"])
    def test_too_small_for_estimator_checked_before_any_draw(self, simulate_calls, tmp_path,
                                                             point, setting, message):
        # the estimator rejects every spectrum of this size: reject the
        # size itself, not each replication once all are drawn
        cfg = small_config(model=PopulationModel(p=point.p, n=point.n), grid=(point,),
                           estimators=(setting,), reps=3)
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(cfg, cache_dir=tmp_path)
        assert simulate_calls == []

    def test_calibrates_each_point_once_before_its_draws(self, work_calls, tmp_path):
        names = ("vacle", "tvacle", "lwy")
        cfg = small_config(grid=(GridPoint(p=50, n=200), GridPoint(p=40, n=100)),
                           estimators=tuple(EstimatorSetting(n) for n in names), reps=3)
        run_experiment(cfg, workers=2, cache_dir=tmp_path)
        assert work_calls == (["calibrate_ridge"] + ["simulate"] * 3) * 2

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

    def test_wy_edge_overflow_is_numerical(self):
        # sigma2 times the bulk edge leaves the float range from finite inputs
        model = FisherModel(p=40, n=150, T=80, sigma2=1e308)
        with pytest.raises(NumericalError, match=r"sigma2 = 1e\+308 .* wy bulk edge"):
            build_estimator(EstimatorSetting("wy"), model, "known")

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

    def test_partial_point_keeps_completed_records(self, cache_dir, monkeypatch):
        # the replications before the failure keep their estimate and trace
        real = harness_mod.simulate
        calls = {"k": 0}

        def flaky(model, rng):
            calls["k"] += 1
            if calls["k"] == 4:
                raise RuntimeError("synthetic failure")
            return real(model, rng)

        monkeypatch.setattr(harness_mod, "simulate", flaky)
        cfg = small_config(reps=6, estimators=(EstimatorSetting("vacle"),))
        (detail,) = run_experiment(cfg, cache_dir=cache_dir, keep_traces=True).details
        assert [r["rep"] for r in detail["reps"]] == [0, 1, 2]
        for record in detail["reps"]:
            assert set(record["estimates"]) == set(record["traces"]) == {"vacle"}
            assert record["estimates"]["vacle"] == record["traces"]["vacle"]["q_hat"]


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

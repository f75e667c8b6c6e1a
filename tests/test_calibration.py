import hashlib
import json
import math

import numpy as np
import pytest

import spikeorder.calibration as calibration_mod
from spikeorder.calibration import (
    CalibrationResult,
    aggregate_gaps,
    calibrate_ridge,
    estimate_sigma2,
    SCHEMA_VERSION,
    load_cached,
    py_constant,
)
from spikeorder.errors import ConfigurationError
from spikeorder.rmt import mp_quantile
from spikeorder.spectra import FAMILIES, PopulationModel, Spectrum, simulate


def make_spec(values, n=200):
    values = np.asarray(values, dtype=float)
    return Spectrum(values=values, p=values.size, n=n)


class TestEstimateSigma2:
    def test_quantile_grid_reconstruction(self):
        # a spectrum of exact scaled quantiles recovers sigma2 to ~1%
        p, c, sigma2 = 100, 0.25, 3.0
        qs = [mp_quantile(1.0 - (k + 0.5) / p, c) for k in range(p)]
        spec = make_spec(sigma2 * np.asarray(qs), n=int(p / c))
        assert estimate_sigma2(spec) == pytest.approx(sigma2, rel=0.01)

    def test_exact_equivariance_power_of_two(self):
        g = np.random.default_rng(2)
        vals = np.sort(g.uniform(0.2, 3.0, 60))[::-1]
        spec = make_spec(vals, n=120)
        s = 8.0
        spec_s = make_spec(vals * s, n=120)
        assert estimate_sigma2(spec_s) == s * estimate_sigma2(spec)

    def test_generic_scale(self):
        g = np.random.default_rng(4)
        vals = np.sort(g.uniform(0.2, 3.0, 60))[::-1]
        spec = make_spec(vals, n=120)
        assert estimate_sigma2(make_spec(vals * 1.7, n=120)) == pytest.approx(
            1.7 * estimate_sigma2(spec), rel=1e-14)

    def test_index_rule_c_above_one(self):
        # c = 2: alpha = 0.75, sample index p - floor(0.75 p)
        p = 40
        vals = np.sort(np.linspace(1.0, 4.0, p))[::-1]
        spec = make_spec(vals, n=p // 2)
        expected = vals[p - math.floor(p * 0.75) - 1] / mp_quantile(0.75, 2.0)
        assert estimate_sigma2(spec) == pytest.approx(expected, abs=1e-12)

    def test_needs_four_values(self):
        with pytest.raises(ConfigurationError):
            estimate_sigma2(make_spec([3.0, 2.0, 1.0]))


class TestPyConstant:
    def test_table_exact(self):
        assert py_constant(0.25) == 5.5226
        assert py_constant(1.0) == 6.3424
        assert py_constant(2.0) == 7.6257

    def test_interpolated(self):
        assert 5.5226 < py_constant(0.5) < 6.3424

    def test_flat_extrapolation(self):
        assert py_constant(0.01) == 5.5226
        assert py_constant(10.0) == 7.6257

    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            py_constant(0.0)


class TestAggregateGaps:
    def test_degenerate_spread_clamps(self):
        g = 0.37
        res = aggregate_gaps("population", p=50, n=50, T=None, seed=0,
                             gaps=[g, g], lwy_stats=[0.01, 0.02])
        assert all(res.quantiles[a] == g for a in res.quantiles)
        assert set(res.clamped) == {"c1", "c2", "c3a", "c3b"}
        assert res.c1 == 1e-8 and res.c2 == 1e-8

    def test_c1_geq_c2_when_loglog_geq_one(self):
        # they share the spread term, so c1 - c2 = (ll - sqrt(ll)) spread >= 0
        res = aggregate_gaps("population", p=100, n=100, T=None, seed=0,
                             gaps=np.linspace(0.1, 0.5, 100),
                             lwy_stats=np.full(100, 0.05))
        assert res.c1 >= res.c2 > 0

    def test_rank_quantile_convention(self):
        gaps = np.arange(1.0, 101.0)  # 1..100
        res = aggregate_gaps("population", p=100, n=100, T=None, seed=0,
                             gaps=gaps, lwy_stats=np.full(100, 0.05))
        assert res.quantiles[0.05] == 5.0   # rank ceil(100 * 0.05) = 5
        assert res.quantiles[0.95] == 95.0
        assert res.quantiles[0.8] == 80.0

    def test_lwy_fire_level(self):
        stats = np.linspace(0.01, 0.2, 50)
        res = aggregate_gaps("population", p=100, n=100, T=None, seed=0,
                             gaps=np.linspace(0.1, 0.5, 50), lwy_stats=stats)
        assert res.d_t_lwy == stats.max()


class TestCalibrateRidge:
    def test_population_magnitudes(self, cache_dir):
        res = calibrate_ridge("population", p=200, n=200, reps=500, seed=7,
                              cache_dir=cache_dir)
        assert res.c1 > res.c2 > 0
        scale = 200 ** (-2.0 / 3.0) * math.log(math.log(200))
        assert scale / 10 < res.c1 < scale * 10

    @pytest.mark.parametrize("kind", ["population", "fisher", "autocov"])
    def test_determinism_and_worker_independence(self, kind):
        sizes = {"population": dict(n=80), "fisher": dict(n=120, T=90),
                 "autocov": dict(T=90)}[kind]
        a = calibrate_ridge(kind, p=60, reps=40, seed=3, **sizes)
        b = calibrate_ridge(kind, p=60, reps=40, seed=3, **sizes)
        c = calibrate_ridge(kind, p=60, reps=40, seed=3, workers=3, **sizes)
        assert a == b == c

    def test_cache_round_trip(self, tmp_path):
        d = str(tmp_path)
        res = calibrate_ridge("autocov", p=40, T=60, reps=30, seed=5, cache_dir=d)
        cached = load_cached(d, "autocov", p=40, T=60, reps=30, seed=5)
        assert cached == res
        again = calibrate_ridge("autocov", p=40, T=60, reps=30, seed=5, cache_dir=d)
        assert again == res

    def test_corrupt_cache_is_a_miss(self, tmp_path):
        d = str(tmp_path)
        res = calibrate_ridge("population", p=30, n=40, reps=20, seed=1, cache_dir=d)
        (path,) = tmp_path.glob("calib_*.json")
        good = path.read_bytes()
        path.write_text("{bad")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert load_cached(d, "population", p=30, n=40, reps=20, seed=1) is None
        with pytest.warns(RuntimeWarning):
            again = calibrate_ridge("population", p=30, n=40, reps=20, seed=1, cache_dir=d)
        assert again == res
        assert path.read_bytes() == good  # recomputed and replaced
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        path.write_text(json.dumps({"schema": SCHEMA_VERSION, "kind": "population"}))
        with pytest.warns(RuntimeWarning):
            assert load_cached(d, "population", p=30, n=40, reps=20, seed=1) is None

    def test_older_schema_is_a_silent_miss(self, tmp_path, recwarn):
        d = str(tmp_path)
        res = calibrate_ridge("population", p=30, n=40, reps=20, seed=1, cache_dir=d)
        assert res.schema == SCHEMA_VERSION == 2
        (path,) = tmp_path.glob("calib_*.json")
        current = path.read_bytes()
        older = {**res.to_dict(), "schema": 1, "c1": 123.0}  # a complete schema-1 entry
        path.write_text(json.dumps(older))
        assert load_cached(d, "population", p=30, n=40, reps=20, seed=1) is None
        again = calibrate_ridge("population", p=30, n=40, reps=20, seed=1, cache_dir=d)
        assert again == res
        assert path.read_bytes() == current  # recomputed and replaced
        assert not recwarn.list

    def test_cache_dir_made_before_any_draw(self, tmp_path, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before making the cache directory")

        monkeypatch.setattr(calibration_mod, "replicate", no_draws)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            calibrate_ridge("population", p=30, n=40, reps=20, seed=1,
                            cache_dir=str(blocker / "cache"))

    @pytest.mark.parametrize("kind, sizes, dense", [
        ("population", dict(n=40), False),
        ("fisher", dict(n=40, T=50), False),
        ("autocov", dict(T=50), True),
    ])
    def test_noise_draws(self, monkeypatch, kind, sizes, dense):
        # every family calibrates through noise_top: population and Fisher read
        # their bidiagonal models, autocov its dense draw
        calls = []
        draw = FAMILIES[kind].draw
        monkeypatch.setattr(FAMILIES[kind], "draw", lambda *a: calls.append(1) or draw(*a))
        calibrate_ridge(kind, p=30, reps=20, seed=1, **sizes)
        assert len(calls) == (20 if dense else 0)

    def test_needs_three_eigenvalues(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before validating p")

        monkeypatch.setattr(calibration_mod, "simulate", no_draws)
        with pytest.raises(ConfigurationError, match="p >= 3"):
            calibrate_ridge("population", p=2, n=50, reps=10, seed=0)

    def test_kind_requirements(self):
        with pytest.raises(ConfigurationError):
            calibrate_ridge("population", p=50, reps=10, seed=0)  # no n
        with pytest.raises(ConfigurationError):
            calibrate_ridge("fisher", p=50, n=100, reps=10, seed=0)  # no T
        with pytest.raises(ConfigurationError):
            calibrate_ridge("autocov", p=50, n=100, reps=10, seed=0)  # no T
        with pytest.raises(ConfigurationError):
            calibrate_ridge("nope", p=50, n=100, T=100, reps=10, seed=0)

    def test_reps_floor(self):
        with pytest.raises(ConfigurationError):
            calibrate_ridge("population", p=50, n=50, reps=1, seed=0)

    # SHA-256 of the cache files, taken when every noise_top bisection went
    # through scipy.linalg.eigvalsh_tridiagonal: a solver change that keeps
    # them keeps schema-2 entries valid; the autocov file's, when its noise
    # runs were dense spectra from simulate, filtered by scipy.signal.lfilter
    @pytest.mark.parametrize("kind, sizes, digest", [
        ("fisher", dict(p=40, n=100, T=80),
         "2e56dc038fb16daa222281647c06148f965307f9abb470a3835495f51a302e8b"),
        ("population", dict(p=30, n=40),
         "6f5f6df247deb3ad4d6f8880dd8a5584303e7f22f4c4a8e53c2d77cb0c627adf"),
        ("population", dict(p=60, n=40),
         "b60a6aa6ad59525c047867fee1e4cd1b3906a83d33be6243675d1fffe766df36"),
        ("autocov", dict(p=30, T=60),
         "cff5cae1ed30de48df110352e70179a3c0968d5efc3951ad01c4a5b1ed1b2e8e"),
    ], ids=["fisher", "population-p<n", "population-p>n", "autocov"])
    def test_cache_bytes_pinned(self, tmp_path, kind, sizes, digest):
        calibrate_ridge(kind, reps=100, seed=7, workers=2, cache_dir=str(tmp_path), **sizes)
        (path,) = tmp_path.glob("calib_*.json")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_fisher_kind(self, cache_dir):
        res = calibrate_ridge("fisher", p=40, n=100, T=80, reps=50, seed=2,
                              cache_dir=cache_dir)
        assert res.c3a > 0 and res.c3b > 0
        assert res.quantiles[0.95] >= res.quantiles[0.8] >= res.quantiles[0.05]


class TestResultValidation:
    def test_quantiles_monotone_enforced(self):
        with pytest.raises(ConfigurationError):
            CalibrationResult(kind="population", p=10, n=10, T=None, reps=5,
                              seed=0, m_pn=0.1,
                              quantiles={0.05: 0.9, 0.95: 0.1},
                              c1=0.1, c2=0.1, c3a=0.1, c3b=0.1, d_t_lwy=0.1)

    def test_reps_floor(self):
        with pytest.raises(ConfigurationError):
            CalibrationResult(kind="population", p=10, n=10, T=None, reps=1,
                              seed=0, m_pn=0.1, quantiles={0.05: 0.1, 0.95: 0.2},
                              c1=0.1, c2=0.1, c3a=0.1, c3b=0.1, d_t_lwy=0.1)


class TestSigma2Trend:
    def test_error_shrinks_with_size(self):
        # mean absolute error decreases over three doubling sizes
        maes = []
        for p in (100, 200, 400):
            model = PopulationModel(p=p, n=p, spikes=(7.0, 6.0, 5.0, 4.0))
            errs = []
            for s in range(100):
                spec = simulate(model, np.random.default_rng(9000 + s))
                errs.append(abs(estimate_sigma2(spec) - 1.0))
            maes.append(float(np.mean(errs)))
        assert maes[0] > maes[1] > maes[2]

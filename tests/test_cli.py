import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spikeorder
import spikeorder.calibration as calibration_mod
import spikeorder.cli as cli_mod
import spikeorder.harness as harness_mod
from spikeorder.cli import FAMILIES, main
from spikeorder.calibration import RIDGES, calibrate_ridge
from spikeorder.errors import NumericalError
from spikeorder.estimators import lwy_estimator, tvacle
from spikeorder.harness import (
    EstimatorSetting,
    ExperimentConfig,
    GridPoint,
    SimulationReport,
    build_estimator,
    run_experiment,
    summarize,
)
from spikeorder.spectra import (
    AutocovModel,
    FisherModel,
    PopulationModel,
    ingest_spectrum,
    simulate,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def spectrum_file(tmp_path):
    model = PopulationModel(p=60, n=240, spikes=(7.0, 6.0, 5.0, 4.0))
    spec = simulate(model, np.random.default_rng(42))
    f = tmp_path / "spectrum.txt"
    f.write_text("\n".join(repr(float(v)) for v in spec.values) + "\n")
    return str(f)


def count_noise_draws(monkeypatch):
    """Record every population noise draw, as the calibration makes them."""
    calls = []
    real = PopulationModel.noise_top
    monkeypatch.setattr(PopulationModel, "noise_top", lambda *a: calls.append(None) or real(*a))
    return calls


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def write_config(tmp_path, **over):
    """Write the default config with ``over``'s keys set, or dropped where None."""
    cfg = {
        "model": {"kind": "population", "spikes": "7, 6, 5, 4", "sigma2": "1.0"},
        "harness": {"grid": "p:50 n:200", "reps": "6", "seed": "3",
                    "estimators": "py, vacle, tvacle"},
        "calibration": {"reps": "40", "seed": "7"},
        "io": {"out": str(tmp_path / "out.csv")},
    }
    for sec, kv in over.items():
        cfg.setdefault(sec, {}).update(kv)
    lines = []
    for sec, kv in cfg.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items() if v is not None)
        lines.append("")
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines))
    return str(path)


class TestLimits:
    def test_autocov_edge(self, runner):
        res = runner.invoke(main, ["limits", "--family", "autocov", "--y", "0.5",
                                   "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["b1"] == pytest.approx(2.773, abs=1e-3)
        # the exact one-sided limit T(b1+) = 2 / (1 + sqrt(1 + 8y))
        assert payload["t_edge_limit"] == 0.6180339887498948
        assert "t_edge_limit_eps1e5" not in payload

    def test_fisher_threshold(self, runner):
        res = runner.invoke(main, ["limits", "--family", "fisher", "--c", "0.2",
                                   "--y", "0.5", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["spike_threshold"] == pytest.approx(3.549, abs=1e-3)
        assert payload["upper_edge"] == pytest.approx(12.5968, abs=1e-3)

    def test_population_with_spikes(self, runner):
        res = runner.invoke(main, ["limits", "--family", "population", "--c", "1",
                                   "--spikes", "5,4,3,3", "--json"])
        payload = json.loads(res.output)
        assert payload["identifiable"] == 4
        assert payload["spike_limits"][0] == pytest.approx(6.25)

    def test_autocov_factor_limits(self, runner):
        res = runner.invoke(main, ["limits", "--family", "autocov", "--y", "0.5",
                                   "--theta", "0.6,-0.5,0.3", "--json"])
        payload = json.loads(res.output)
        assert payload["factor_limits"] == pytest.approx([7.726, 5.496, 3.613],
                                                         abs=1e-2)

    def test_fisher_with_spikes(self, runner):
        res = runner.invoke(main, ["limits", "--family", "fisher", "--c", "0.2",
                                   "--y", "0.5", "--spikes", "11,6,6", "--json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["spike_limits"] == pytest.approx([24.933, 15.6, 15.6], abs=1e-3)
        assert payload["identifiable"] == 3
        assert payload["atom_at_zero"] == 0.0

    def test_missing_param_exit_2(self, runner):
        for args, message in (
            (["--family", "population", "--y", "0.5"], "population limits need --c"),
            (["--family", "fisher", "--c", "0.2"], "fisher limits need --c and --y"),
            (["--family", "autocov", "--c", "0.2"], "autocov limits need --y"),
        ):
            res = runner.invoke(main, ["limits", *args])
            assert res.exit_code == 2
            assert f"error: {message}" in res.stderr

    @pytest.mark.parametrize("args, message", [
        (["population", "--c", "0.5", "--theta", "0.5"], "--theta does not apply to population"),
        (["autocov", "--y", "0.5", "--c", "3", "--spikes", "9"], "--c does not apply to autocov"),
        (["autocov", "--y", "0.5", "--spikes", "9"], "--spikes does not apply to autocov"),
        (["autocov", "--y", "0.5", "--gamma", "3"], "--gamma needs --theta"),
        (["population", "--c", "0.5", "--y", "0.5"], "--y does not apply to population"),
        (["fisher", "--c", "0.2", "--y", "0.5", "--gamma", "2"],
         "--gamma does not apply to fisher"),
    ], ids=["population-theta", "autocov-c", "autocov-spikes", "autocov-gamma-alone",
            "population-y", "fisher-gamma"])
    def test_option_the_family_does_not_read_exit_2(self, runner, args, message):
        res = runner.invoke(main, ["limits", "--family", *args])
        assert res.exit_code == 2, res.output
        assert f"error: {message}" in res.stderr

    def test_overflowing_spike_limit_exit_3(self, runner):
        # sigma2 is subnormal, so the normalized spike 5 / sigma2 overflows
        res = runner.invoke(main, ["limits", "--family", "population", "--c", "1",
                                   "--sigma2", "1e-320", "--spikes", "5", "--json"])
        assert res.exit_code == 3, res.output
        assert res.stdout == ""
        assert "overflows" in res.stderr

    @pytest.mark.parametrize("y", [1e-310, 1e-300, 1e-12, 1e-8, 1e-4, 1e4, 1e6, 1e30])
    def test_autocov_extreme_y(self, runner, y):
        res = runner.invoke(main, ["limits", "--family", "autocov", f"--y={y!r}", "--json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.stdout)
        edge = 2.0 / (1.0 + np.sqrt(1.0 + 8.0 * y))
        assert payload["t_edge_limit"] == pytest.approx(edge, rel=1e-15)

    def test_autocov_cutoff_at_huge_y(self, runner):
        # T1 = sigma2 / gamma0 = 1e-20 lies below the exact edge 7.07e-16, so
        # the factor is identifiable even where the bulk edge b1 is 1e60
        res = runner.invoke(main, ["limits", "--family", "autocov", "--y", "1e30",
                                   "--theta", "0", "--gamma", "1e20", "--json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.stdout)
        assert payload["t_edge_limit"] == pytest.approx(7.0710678118654e-16, rel=1e-12)
        assert payload["identifiable"] == 1
        assert payload["factor_limits"] == [pytest.approx(1.0000000001e60, rel=1e-12)]

    # numpy's overflow warnings would reach stderr; as errors they exit 1
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args", [
        ["--theta", "0.5", "--gamma", "1e308"],          # T1 overflows to NaN
        ["--theta", "0.9999999999", "--gamma", "1e300"],
        ["--theta", "0.5", "--sigma2", "1e-300"],        # T1 cancels to zero
        ["--theta", "0", "--sigma2", "1e-310"],          # beta = z(T1) overflows
    ], ids=["gamma-1e308", "theta-near-1", "sigma2-1e-300", "sigma2-1e-310"])
    def test_overflowing_factor_limit_exit_3(self, runner, args):
        res = runner.invoke(main, ["limits", "--family", "autocov", "--y", "0.5",
                                   "--json", *args])
        assert res.exit_code == 3, res.output
        assert res.stdout == ""
        assert "RuntimeWarning" not in res.stderr

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(FAMILIES), c=st.none() | st.floats(),
           y=st.none() | st.floats(), sigma2=st.floats(),
           spikes=st.lists(st.floats(), max_size=3))
    def test_any_numbers_keep_exit_contract(self, family, c, y, sigma2, spikes):
        args = ["limits", "--family", family, f"--sigma2={sigma2!r}", "--json"]
        # autocov reads no spikes, and exits 2 on them before its law is built
        args += [f"--spikes={','.join(map(repr, spikes))}"] if family != "autocov" else []
        args += [f"--{name}={val!r}" for name, val in (("c", c), ("y", y)) if val is not None]
        res = CliRunner().invoke(main, args)
        assert res.exit_code in (0, 2, 3), res.output
        if res.exit_code == 0:
            json.loads(res.stdout, parse_constant=reject_constant)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(y=st.floats(0.01, 100.0) | st.floats(), sigma2=st.floats(0.01, 100.0) | st.floats(),
           theta=st.lists(st.floats(-1.0, 1.0) | st.floats(), min_size=1, max_size=3),
           gamma=st.lists(st.floats(0.0, 1e3) | st.floats(), max_size=3))
    def test_any_factor_numbers_keep_exit_contract(self, y, sigma2, theta, gamma):
        args = ["limits", "--family", "autocov", f"--y={y!r}", f"--sigma2={sigma2!r}",
                "--json", f"--theta={','.join(map(repr, theta))}",
                f"--gamma={','.join(map(repr, gamma))}"]
        res = CliRunner().invoke(main, args)
        assert res.exit_code in (0, 2, 3), res.output
        if res.exit_code == 0:
            json.loads(res.stdout, parse_constant=reject_constant)


class TestCalibrate:
    def test_writes_cache_and_prints(self, runner, tmp_path):
        args = ["calibrate", "--kind", "population", "--p", "40", "--n", "60",
                "--reps", "30", "--seed", "7", "--cache-dir", str(tmp_path),
                "--json"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["c1"] > payload["c2"] > 0
        files = list(tmp_path.glob("calib_*.json"))
        assert len(files) == 1
        # second invocation hits the cache (file untouched)
        mtime = files[0].stat().st_mtime_ns
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert files[0].stat().st_mtime_ns == mtime

    def test_corrupt_cache_recomputed(self, runner, tmp_path):
        args = ["calibrate", "--kind", "population", "--p", "40", "--n", "60",
                "--reps", "30", "--cache-dir", str(tmp_path), "--json"]
        assert runner.invoke(main, args).exit_code == 0
        (path,) = tmp_path.glob("calib_*.json")
        good = path.read_bytes()
        path.write_text("{bad")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert path.read_bytes() == good

    def test_p_below_three_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["calibrate", "--kind", "population", "--p", "2",
                                   "--n", "50", "--cache-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert "p >= 3" in res.output + (res.stderr or "")

    def test_default_run_shared_with_estimate(self, runner, tmp_path):
        # default calibrate and default estimate read one cache entry
        res = runner.invoke(main, ["calibrate", "--kind", "population", "--p", "40",
                                   "--n", "60", "--cache-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        (path,) = tmp_path.glob("calib_*.json")
        mtime = path.stat().st_mtime_ns
        spec = simulate(PopulationModel(p=40, n=60, spikes=(9.0, 7.0)),
                                   np.random.default_rng(3))
        write_spectrum(tmp_path / "eigs.txt", spec)
        res = runner.invoke(main, ["estimate", str(tmp_path / "eigs.txt"), "--method",
                                   "vacle", "--family", "population", "--n", "60",
                                   "--cache-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert list(tmp_path.glob("calib_*.json")) == [path]
        assert path.stat().st_mtime_ns == mtime

    def test_reports_the_sizes_the_result_is_keyed_by(self, runner, tmp_path):
        # a population calibration is keyed by (p, n): --t is not one of its sizes
        args = ["calibrate", "--kind", "population", "--p", "20", "--n", "30", "--reps", "20",
                "--cache-dir", str(tmp_path), "--json"]
        res = runner.invoke(main, [*args, "--t", "99"])
        assert res.exit_code == 2, res.output
        assert "error: --t does not apply to population models" in res.stderr
        assert list(tmp_path.glob("calib_*.json")) == []
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        (path,) = tmp_path.glob("calib_*.json")
        cached = json.loads(path.read_text())
        assert (payload["n"], payload["T"]) == (30, None) == (cached["n"], cached["T"])

    def test_count_below_rate_domain_exit_2_before_any_draw(self, runner, tmp_path,
                                                            monkeypatch):
        # c1's loglog(n) rate is undefined at n = 2; that is known before the noise runs
        calls = count_noise_draws(monkeypatch)
        res = runner.invoke(main, ["calibrate", "--kind", "population", "--p", "5",
                                   "--n", "2", "--reps", "200",
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "log log undefined or nonpositive at 2" in res.stderr
        assert calls == []
        assert not (tmp_path / "cache").exists()

    def test_reps_floor_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["calibrate", "--kind", "population", "--p", "40",
                                   "--n", "60", "--reps", "1",
                                   "--cache-dir", str(tmp_path)])
        assert res.exit_code == 2

    def test_numerical_failure_exit_3(self, runner, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise NumericalError("synthetic")
        monkeypatch.setattr(cli_mod, "calibrate_ridge", boom)
        res = runner.invoke(main, ["calibrate", "--kind", "population", "--p", "40",
                                   "--n", "60", "--reps", "30",
                                   "--cache-dir", str(tmp_path)])
        assert res.exit_code == 3


class TestEstimate:
    def test_vacle_explicit_ridge(self, runner, spectrum_file):
        res = runner.invoke(main, ["estimate", spectrum_file, "--method", "vacle",
                                   "--family", "population", "--n", "240",
                                   "--c-n", "0.2", "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["q_hat"] == 4

    def test_tvacle_with_trace_and_plot(self, runner, spectrum_file, tmp_path):
        trace = tmp_path / "trace.json"
        plot = tmp_path / "plot.csv"
        res = runner.invoke(main, ["estimate", spectrum_file, "--method", "tvacle",
                                   "--family", "population", "--n", "240",
                                   "--c-n", "0.15", "--trace", str(trace),
                                   "--plot-data", str(plot)])
        assert res.exit_code == 0
        assert "q_hat = 4" in res.output
        payload = json.loads(trace.read_text())
        assert payload["q_hat"] == 4
        rows = plot.read_text().strip().split("\n")
        assert rows[0] == "i,ratio,tau"
        assert len(rows) == 1 + len(payload["ratios"])

    def test_py_lwy_wy(self, runner, spectrum_file, tmp_path):
        res = runner.invoke(main, ["estimate", spectrum_file, "--method", "py",
                                   "--family", "population", "--n", "240", "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["q_hat"] == 4
        res = runner.invoke(main, ["estimate", spectrum_file, "--method", "lwy",
                                   "--family", "population", "--n", "240",
                                   "--d-t", "0.1", "--json"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("option", ["--trace", "--plot-data"])
    @pytest.mark.parametrize("method", [
        ["py", "--family", "population"],
        ["lwy", "--family", "population", "--cal-reps", "20"],  # calibrates d_T
        ["wy", "--family", "fisher", "--t", "120"],
    ], ids=["py", "lwy", "wy"])
    def test_trace_of_a_method_without_one_exit_2(self, runner, spectrum_file, tmp_path,
                                                  monkeypatch, method, option):
        calls = []
        for name in ("ingest_spectrum", "calibrate_ridge"):
            real = getattr(cli_mod, name)
            monkeypatch.setattr(cli_mod, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        out = tmp_path / "out"
        res = runner.invoke(main, ["estimate", spectrum_file, "--n", "240", "--method", *method,
                                   option, str(out), "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert f"error: {option} writes a ratio trace" in res.stderr
        assert calls == []
        assert not out.exists()

    def test_short_spectrum_exit_2(self, runner, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("3\n2\n1\n")
        res = runner.invoke(main, ["estimate", str(f), "--method", "tvacle",
                                   "--family", "population", "--n", "100",
                                   "--c-n", "0.1"])
        assert res.exit_code == 2
        assert "L" in res.output or "L" in (res.stderr or "")

    def test_bad_file_exit_2(self, runner, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\nnot-a-number\n1\n")
        res = runner.invoke(main, ["estimate", str(f), "--method", "vacle",
                                   "--family", "population", "--n", "100",
                                   "--c-n", "0.1"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("family, sizes", [("population", ["--n", "240"]),
                                               ("fisher", ["--n", "240", "--t", "120"])])
    @pytest.mark.parametrize("sigma2, message", [
        ("nan", "--sigma2 must be positive and finite, got nan"),
        ("inf", "--sigma2 must be positive and finite, got inf"),
        ("0", "--sigma2 must be positive and finite, got 0"),
        ("-1", "--sigma2 must be positive and finite, got -1"),
        ("x", "--sigma2 'x' is not a float or 'estimated'"),
    ])
    def test_bad_sigma2_named(self, runner, spectrum_file, family, sizes, sigma2, message):
        # the message names the option, not the model fields it would set
        res = runner.invoke(main, ["estimate", spectrum_file, "--method", "vacle",
                                   "--family", family, *sizes, "--c-n", "0.2",
                                   f"--sigma2={sigma2}"])
        assert res.exit_code == 2, res.output
        assert f"error: {message}\n" == res.stderr

    def test_wy_family_gate(self, runner, spectrum_file):
        res = runner.invoke(main, ["estimate", spectrum_file, "--method", "wy",
                                   "--family", "population", "--n", "240"])
        assert res.exit_code == 2

    def test_estimated_sigma2(self, runner, tmp_path):
        # spectrum scaled by an unknown factor: the quantile-matching scale
        # estimate restores the normalization before thresholding
        model = PopulationModel(p=100, n=400, spikes=(25.0, 20.0, 15.0, 10.0),
                                sigma2=2.5)
        spec = simulate(model, np.random.default_rng(12))
        f = tmp_path / "scaled.txt"
        f.write_text("\n".join(repr(float(v)) for v in spec.values) + "\n")
        res = runner.invoke(main, ["estimate", str(f), "--method", "vacle",
                                   "--family", "population", "--n", "400",
                                   "--sigma2", "estimated", "--c-n", "0.2",
                                   "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["q_hat"] == 4

    def test_autocov_workflow(self, runner, tmp_path):
        # factor-count estimation from an ingested squared-auto-covariance
        # spectrum, the intended real-data workflow: the CLI reads the file
        # and gives the library estimators' answer on that spectrum. How
        # often that answer is right is acceptance criterion 6's question
        model = AutocovModel(p=60, T=120, theta=(0.6, -0.5), gamma_diag=(2.0, 2.0))
        spec = simulate(model, np.random.default_rng(8))
        f = tmp_path / "auto_eigs.txt"
        f.write_text("\n".join(repr(float(v)) for v in spec.values) + "\n")
        assert np.array_equal(ingest_spectrum(str(f)).values, spec.values)
        expected = {"tvacle": tvacle(spec, 1.0, 0.2, model.bulk_edge()).q_hat,
                    "lwy": lwy_estimator(spec, 0.15).q_hat}
        for method, option in (("tvacle", ["--c-n", "0.2"]), ("lwy", ["--d-t", "0.15"])):
            res = runner.invoke(main, ["estimate", str(f), "--method", method,
                                       "--family", "autocov", "--t", "120", *option, "--json"])
            assert res.exit_code == 0, res.output
            assert json.loads(res.output)["q_hat"] == expected[method]


def write_spectrum(path, spec):
    path.write_text("\n".join(repr(float(v)) for v in spec.values) + "\n")
    return str(path)


class TestEstimateFamilyRules:
    @pytest.mark.parametrize("family, sizes, method", [
        ("fisher", ["--n", "150", "--t", "60"], "wy"),
        ("fisher", ["--n", "150", "--t", "60"], "py"),
        ("fisher", ["--n", "150", "--t", "60"], "vacle"),
        ("autocov", ["--t", "60"], "lwy"),
        ("autocov", ["--t", "60"], "py"),
    ])
    def test_estimated_sigma2_population_only(self, runner, tmp_path, family,
                                              sizes, method):
        spec = simulate(FisherModel(p=30, n=150, T=60, alpha=(10.0, 5.0, 5.0)),
                        np.random.default_rng(0))
        f = write_spectrum(tmp_path / "eigs.txt", spec)
        res = runner.invoke(main, ["estimate", f, "--method", method, "--family",
                                   family, *sizes, "--sigma2", "estimated",
                                   "--c-n", "0.2", "--d-t", "0.1"])
        assert res.exit_code == 2
        assert "population" in res.output

    @pytest.mark.parametrize("ridge", RIDGES)
    def test_ridge_traces_calibrated_value(self, runner, tmp_path, ridge):
        # each ridge is the value calibrate reports under its name, whichever the family's default
        sizes = ["--n", "150", "--t", "60"]
        res = runner.invoke(main, ["calibrate", "--kind", "fisher", "--p", "30", *sizes,
                                   "--reps", "20", "--seed", "7", "--json",
                                   "--cache-dir", str(tmp_path / "calibrate-cache")])
        assert res.exit_code == 0, res.output
        spec = simulate(FisherModel(p=30, n=150, T=60, alpha=(10.0, 5.0, 5.0)),
                        np.random.default_rng(0))
        f = write_spectrum(tmp_path / "eigs.txt", spec)
        trace = tmp_path / "trace.json"
        res2 = runner.invoke(main, ["estimate", f, "--method", "tvacle", "--family", "fisher",
                                    *sizes, "--ridge", ridge, "--cal-reps", "20",
                                    "--cal-seed", "7", "--trace", str(trace),
                                    "--cache-dir", str(tmp_path / "estimate-cache")])
        assert res2.exit_code == 0, res2.output
        assert json.loads(trace.read_text())["c_n"] == json.loads(res.output)[ridge]

    def test_autocov_calibration_key_ignores_n(self, runner, tmp_path):
        cache = tmp_path / "cache"
        cfg = ExperimentConfig(
            model_id="auto", model=AutocovModel(p=30, T=60, theta=(0.6,)),
            grid=(GridPoint(p=30, T=60),), estimators=(EstimatorSetting("lwy"),),
            reps=1, calibration_reps=20, calibration_seed=7)
        run_experiment(cfg, cache_dir=str(cache))
        before = sorted(cache.iterdir())
        spec = simulate(AutocovModel(p=30, T=60, theta=(0.6,)), np.random.default_rng(1))
        f = write_spectrum(tmp_path / "eigs.txt", spec)
        res = runner.invoke(main, ["estimate", f, "--method", "tvacle", "--family",
                                   "autocov", "--t", "60", "--cal-reps", "20",
                                   "--cal-seed", "7", "--cache-dir", str(cache)])
        assert res.exit_code == 0, res.output
        assert sorted(cache.iterdir()) == before


AGREEMENT_MODELS = {
    "population": (PopulationModel(p=40, n=160, spikes=(7.0, 6.0, 5.0, 4.0)),
                   ["--n", "160"]),
    "fisher": (FisherModel(p=30, n=150, T=60, alpha=(10.0, 5.0, 5.0)),
               ["--n", "150", "--t", "60"]),
    "autocov": (AutocovModel(p=30, T=60, theta=(0.6, -0.5, 0.3)), ["--t", "60"]),
}
AGREEMENT_CASES = (
    [(family, method, "known") for family in AGREEMENT_MODELS
     for method in ("vacle", "tvacle", "py", "lwy")]
    + [("fisher", "wy", "known")]
    + [("population", method, "estimated") for method in ("vacle", "tvacle", "py", "lwy")]
)


class TestCliHarnessAgreement:
    @pytest.mark.parametrize("family, method, sigma2_mode", AGREEMENT_CASES)
    def test_same_q_hat(self, runner, tmp_path, family, method, sigma2_mode):
        model, sizes = AGREEMENT_MODELS[family]
        spec = simulate(model, np.random.default_rng(5))
        f = write_spectrum(tmp_path / "eigs.txt", spec)
        cache = str(tmp_path / "cache")
        calib = calibrate_ridge(family, p=model.p, n=getattr(model, "n", None),
                                T=getattr(model, "T", None), reps=20, seed=7,
                                cache_dir=cache)
        run = build_estimator(EstimatorSetting(method), model, sigma2_mode)
        q_harness = run(spec, calib).q_hat
        sigma2 = "estimated" if sigma2_mode == "estimated" else "1.0"
        res = runner.invoke(main, ["estimate", f, "--method", method, "--family",
                                   family, *sizes, "--sigma2", sigma2,
                                   "--cal-reps", "20", "--cal-seed", "7",
                                   "--cache-dir", cache, "--json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["q_hat"] == q_harness


class TestSimulate:
    def test_deterministic_csv(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        first = out.read_text()
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0
        second = out.read_text()

        def strip_runtime(text):
            rows = [r.split(",") for r in text.strip().split("\n")]
            return [r[:-1] for r in rows]

        assert strip_runtime(first) == strip_runtime(second)
        header = first.split("\n")[0].split(",")
        assert header[-1] == "runtime_s"

    def test_trace_mirror(self, runner, tmp_path):
        cfg = write_config(tmp_path, io={"trace": "true"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        mirror = tmp_path / "out.json"
        payload = json.loads(mirror.read_text())
        assert payload["reports"]
        assert payload["details"][0]["reps"][0]["spectrum_sha1"]
        assert "traces" in payload["details"][0]["reps"][0]

    def test_cache_value_no_estimator_accepts_recomputed(self, runner, tmp_path):
        # a d_T of 1.5 would fail every lwy replication after the draws
        cfg = write_config(tmp_path, harness={"grid": "p:30 n:60", "reps": "4",
                                              "estimators": "lwy"})
        args = ["simulate", "--config", cfg, "--cache-dir", str(tmp_path / "cache")]
        assert runner.invoke(main, args).exit_code == 0
        first = (tmp_path / "out.csv").read_text()
        (path,) = (tmp_path / "cache").glob("calib_*.json")
        good = path.read_bytes()
        path.write_text(json.dumps({**json.loads(good), "d_t_lwy": 1.5}))
        with pytest.warns(RuntimeWarning, match="d_t_lwy must lie in"):
            res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert path.read_bytes() == good  # recomputed and replaced
        again = (tmp_path / "out.csv").read_text()
        assert ([row.rsplit(",", 1)[0] for row in again.splitlines()]
                == [row.rsplit(",", 1)[0] for row in first.splitlines()])

    def test_seed_override(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        runner.invoke(main, ["simulate", "--config", cfg, "--seed", "3",
                             "--cache-dir", str(tmp_path / "cache")])
        base = out.read_text()
        runner.invoke(main, ["simulate", "--config", cfg, "--seed", "99",
                             "--cache-dir", str(tmp_path / "cache")])
        assert out.read_text() != base

    @pytest.mark.parametrize("section, keys, name", [
        ("harness", {"wormhole": "1"}, "harness.wormhole"),
        # no model's field since the factors start stationary
        ("model", {"kind": "autocov", "spikes": None, "theta": "0.5", "burn_in": "1000"},
         "model.burn_in"),
    ], ids=["harness-wormhole", "autocov-burn_in"])
    def test_unknown_key_named(self, runner, tmp_path, section, keys, name):
        cfg = write_config(tmp_path, **{section: keys})
        res = runner.invoke(main, ["simulate", "--config", cfg])
        assert res.exit_code == 2
        assert name in res.output + (res.stderr or "")

    @pytest.mark.parametrize("section, key, value", [
        ("estimator", "tau", "abc"),
        ("model", "spikes", "7, x"),
        ("harness", "reps", "ten"),
        ("harness", "grid", "p:5x n:20"),
        ("io", "trace", "ture"),
        ("io", "trace", ""),
    ])
    def test_bad_value_named(self, runner, tmp_path, section, key, value):
        cfg = write_config(tmp_path, **{section: {key: value}})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert f"{section}.{key}" in res.output + (res.stderr or "")

    @pytest.mark.parametrize("value, mirrored", [("on", True), ("No", False)])
    def test_trace_takes_configparser_booleans(self, runner, tmp_path, value, mirrored):
        cfg = write_config(tmp_path, io={"trace": value},
                           harness={"grid": "p:10 n:20", "reps": "2", "estimators": "lwy"},
                           calibration={"reps": "20"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "out.json").exists() == mirrored

    def test_unknown_section_named(self, runner, tmp_path):
        cfg = write_config(tmp_path, alien={"x": "1"})
        res = runner.invoke(main, ["simulate", "--config", cfg])
        assert res.exit_code == 2
        assert "alien" in res.output + (res.stderr or "")

    @pytest.mark.parametrize("method", ["vacle", "tvacle"])
    def test_search_bound_above_p_exit_2(self, runner, tmp_path, method):
        # the default L = 20 exceeds p = 10: a configuration error, not a
        # partial grid point of failed replications
        cfg = write_config(tmp_path, model={"spikes": "7"},
                           harness={"grid": "p:10 n:40", "estimators": method})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "L = 20" in res.output and "p = 10" in res.output
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("method, key, value", [
        ("lwy", "d_t", "1.5"),
        ("py", "py_start_index", "4"),
        ("py", "l", "-5"),
        ("lwy", "l", "-1"),
        ("py", "py_c", "nan"),
        ("tvacle", "k1", "nan"),
        # an option that the method does not read is checked all the same
        ("vacle", "d_t", "7"),
        ("tvacle", "py_c", "nan"),
        ("tvacle", "ridge", "c9"),
        ("vacle", "c_n", "nan"),
    ])
    def test_bad_tuning_exit_2(self, runner, tmp_path, method, key, value):
        # rejected before the calibration, not as a partial all-NaN row
        cfg = write_config(tmp_path, harness={"estimators": method},
                           estimator={key: value})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert key in res.stderr and "unknown config key" not in res.stderr
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("spikes, sigma2", [("7, 6", "nan"), ("", "inf")])
    def test_non_finite_model_exit_2(self, runner, tmp_path, monkeypatch, spikes, sigma2):
        # rejected when the model is built, before any draw, not as an
        # all-NaN partial row after every replication failed its eigensolve
        calls = []
        for module in (harness_mod, calibration_mod):
            for name in ("simulate", "replicate"):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name:
                                    calls.append(_name) or _real(*a))
        cfg = write_config(tmp_path, model={"spikes": spikes, "sigma2": sigma2},
                           harness={"grid": "p:30 n:60"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "must be finite" in res.stderr
        assert calls == []
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("model, grid, code, reps", [
        ({"kind": "autocov", "spikes": None, "sigma2": "1e200"}, "p:30 T:60", 3, "0"),
        ({"spikes": "", "sigma2": "1e300"}, "p:30 n:60", 0, "6"),
    ], ids=["autocov", "population"])
    def test_huge_sigma2(self, runner, tmp_path, model, grid, code, reps):
        # autocov: M = Sigma Sigma' overflows, so every replication fails its
        # eigensolve; the CSV and the warning still come out, then exit 3.
        # The banded population draw squares sqrt(sigma2 / n)-scaled entries,
        # which stay finite at 1e300: every replication completes
        cfg = write_config(tmp_path, model=model,
                           harness={"grid": grid, "estimators": "lwy, tvacle"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == code, res.output
        rows = (tmp_path / "out.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2 and {row.split(",")[5] for row in rows} == {reps}
        assert ("warning: partial grid point p=30" in res.stderr) == (code == 3)
        assert ("error: " in res.stderr) == (code == 3)

    @pytest.mark.parametrize("alpha, sigma2", [("1.7e308, 1e308, 1e308", "1e300"),
                                               ("1.7e308, 1.7e308, 1.7e308", "1.0")],
                             ids=["inf-eigenvalue", "lapack-info"])
    def test_overflowing_draw_exit_3(self, runner, tmp_path, alpha, sigma2):
        # both overflow the pencil: its solve returns an infinite eigenvalue
        # with LAPACK info 0, or fails to converge; each is a numerical failure
        cfg = write_config(tmp_path, model={"kind": "fisher", "spikes": None, "alpha": alpha,
                                            "sigma2": sigma2},
                           harness={"grid": "p:10 n:20 T:40", "reps": "2", "seed": "0",
                                    "estimators": "wy"},
                           calibration={"reps": "20"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 3, res.output
        assert "NumericalError" in res.stderr

    def test_no_completed_replication_on_bad_input_exit_2(self, runner, tmp_path, monkeypatch):
        # a non-numerical error in every replication: the CSV and the warning
        # come out, then exit 2, not a partial grid point with exit 0. With
        # the sizes an estimator cannot read rejected before any draw, no
        # config reaches this (a hand-edited calibration cache does), so the
        # draw raises numpy's error for an array past its size limit
        def oversized(model, rng):
            raise ValueError("Maximum allowed dimension exceeded")

        monkeypatch.setattr(harness_mod, "simulate", oversized)
        cfg = write_config(tmp_path, model={"kind": "autocov", "spikes": None, "theta": "0.5"},
                           harness={"grid": "p:10 T:20", "estimators": "lwy"},
                           calibration={"reps": "20"})
        res = runner.invoke(main, ["simulate", "--config", cfg, "--reps", "2",
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "warning: partial grid point p=10" in res.stderr
        assert "error: no replication of a grid point completed" in res.stderr
        assert (tmp_path / "out.csv").exists()

    def test_partial_warning_once_per_grid_point(self, runner, tmp_path):
        cfg = write_config(tmp_path, model={"kind": "autocov", "spikes": None, "sigma2": "1e200"},
                           harness={"grid": "p:30 T:60", "estimators": "lwy, tvacle"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 3, res.output
        assert res.stderr.count("warning: partial grid point p=30") == 1

    def test_no_floating_point_warnings(self, tmp_path):
        # the overflow is reported by NumericalError and the partial-grid-point
        # warning; numpy's RuntimeWarnings from the replication threads are noise.
        # A subprocess, as pytest would record warnings instead of printing them
        cfg = write_config(tmp_path, model={"kind": "autocov", "spikes": None, "sigma2": "1e200"},
                           harness={"grid": "p:30 T:60", "estimators": "lwy, tvacle"})
        src = str(Path(spikeorder.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-m", "spikeorder.cli", "simulate", "--config", cfg,
                              "--cache-dir", str(tmp_path / "cache"), "--workers", "2"],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 3, out.stderr
        assert "warning: partial grid point p=30" in out.stderr
        assert "RuntimeWarning" not in out.stderr

    def test_duplicate_column_exit_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, harness={"estimators": "tvacle, vacle, vacle"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "'vacle'" in res.stderr
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("harness, estimator, calibrates", [
        ({"estimators": "py", "grid": "p:200 n:200; p:100 n:200"}, {}, False),
        ({"estimators": "vacle"}, {"c_n": "0.3"}, False),
        ({"estimators": "lwy, tvacle, py"}, {"c_n": "0.3", "d_t": "0.3"}, False),
        ({"estimators": "py, lwy"}, {}, True),
    ], ids=["py", "vacle-c_n", "own-c_n-and-d_t", "lwy"])
    def test_calibrates_only_when_read(self, runner, tmp_path, monkeypatch, harness,
                                       estimator, calibrates):
        calls = count_noise_draws(monkeypatch)
        cfg = write_config(tmp_path, harness=harness, estimator=estimator,
                           io={"trace": "true"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        assert bool(calls) == calibrates
        assert (tmp_path / "cache").exists() == calibrates
        details = json.loads((tmp_path / "out.json").read_text())["details"]
        assert [d["calibration"] is not None for d in details] == [calibrates] * len(details)

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_sigma2_size_checked_before_calibration(self, runner, tmp_path, monkeypatch,
                                                     command):
        # estimate_sigma2 needs p >= 4: a 3-eigenvalue spectrum fails every
        # replication, so it is rejected before the noise runs
        calls = count_noise_draws(monkeypatch)
        cache = str(tmp_path / "cache")
        spectrum = tmp_path / "eigs.txt"
        spectrum.write_text("5\n2\n1\n")
        args = {"simulate": ["simulate", "--config", write_config(
                    tmp_path, model={"spikes": "7"}, estimator={"l": "3"},
                    harness={"grid": "p:3 n:10", "estimators": "vacle",
                             "sigma2_mode": "estimated"})],
                "estimate": ["estimate", str(spectrum), "--method", "vacle", "--family",
                             "population", "--n", "10", "--sigma2", "estimated",
                             "--bound", "3", "--cal-reps", "20"]}[command]
        res = runner.invoke(main, [*args, "--cache-dir", cache])
        assert res.exit_code == 2, res.output
        assert "error: need p >= 4 to estimate sigma2, got p = 3" in res.stderr
        assert calls == []
        assert not (tmp_path / "cache").exists()

    def test_lwy_reads_no_scale(self, runner, tmp_path):
        # lwy ignores sigma2, so an estimated scale does not bind it to p >= 4
        spectrum = tmp_path / "eigs.txt"
        spectrum.write_text("5\n2\n1\n")
        res = runner.invoke(main, ["estimate", str(spectrum), "--method", "lwy", "--family",
                                   "population", "--n", "10", "--sigma2", "estimated",
                                   "--cal-reps", "20", "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_calibration_reps_checked_without_calibration(self, runner, tmp_path,
                                                          spectrum_file, command):
        # py reads no calibration; a noise run of R = 1 is still bad input
        args = {"simulate": ["simulate", "--config", write_config(
                    tmp_path, harness={"estimators": "py"}, calibration={"reps": "1"})],
                "estimate": ["estimate", spectrum_file, "--method", "py", "--family",
                             "population", "--n", "240", "--cal-reps", "1"]}[command]
        res = runner.invoke(main, [*args, "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "error: calibration needs R >= 2, got 1" in res.stderr
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("model, key", [
        ({"theta": "0.5"}, "theta"),
        ({"alpha": "1, 2, 3"}, "alpha"),
        ({"kind": "fisher", "spikes": None, "alpha": "10, 5", "theta": "0.5"}, "theta"),
        ({"kind": "autocov", "theta": "0.5"}, "spikes"),
        ({"kind": "autocov", "spikes": None, "theta": "0.5", "noise_diag": "1"}, "noise_diag"),
    ], ids=["population-theta", "population-alpha", "fisher-theta", "autocov-spikes",
            "autocov-noise_diag"])
    def test_other_family_model_key_named(self, runner, tmp_path, model, key):
        # a key the model's family has no field for would be dropped unread
        cfg = write_config(tmp_path, model=model,
                           harness={"grid": "p:30 n:60 T:60", "estimators": "py"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert f"error: config key model.{key} does not apply to " in res.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_default_section_named(self, runner, tmp_path):
        # its keys would otherwise be reported under every section the file wrote
        cfg = write_config(tmp_path, DEFAULT={"seed": "3"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "error: unknown config section [DEFAULT]" in res.stderr
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("grid, size", [
        ("p:30 n:60 p:40", "p"),
        ("p:30; p:30 n:60 n:70", "n"),
        ("p:30 n:60 T:5 t:6", "T"),
    ])
    def test_size_given_twice_named(self, runner, tmp_path, grid, size):
        # the last value would win silently
        cfg = write_config(tmp_path, harness={"grid": grid, "estimators": "py"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        assert "harness.grid" in res.stderr and f"gives {size} twice" in res.stderr

    def test_partial_with_completed_replications_exit_0(self, runner, tmp_path,
                                                         monkeypatch):
        # a grid point that completed some replications before a numerical
        # failure is reported partial, and the run still succeeds
        calls = []

        def fail_third(model, rng):
            calls.append(None)
            if len(calls) > 2:
                raise NumericalError("synthetic failure")
            return simulate(model, rng)

        monkeypatch.setattr(harness_mod, "simulate", fail_third)
        cfg = write_config(tmp_path)
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        assert "warning: partial grid point p=50" in res.stderr
        rows = (tmp_path / "out.csv").read_text().strip().split("\n")[1:]
        assert {row.split(",")[5] for row in rows} == {"2"}

    def test_model_validated_with_its_spikes(self, runner, tmp_path):
        cfg = write_config(tmp_path, model={"spikes": "6"},
                           harness={"grid": "p:0 n:20"})
        res = runner.invoke(main, ["simulate", "--config", cfg])
        assert res.exit_code == 2
        assert "too small for 1 spikes" in res.output


class TestSimulateFamilies:
    def test_autocov_config(self, runner, tmp_path):
        path = tmp_path / "auto.cfg"
        path.write_text(
            "[model]\nkind = autocov\ntheta = 0.6, -0.5\ngamma = 2, 2\n\n"
            "[harness]\ngrid = p:40 T:80\nreps = 3\nseed = 1\n"
            "estimators = lwy, tvacle\n\n"
            "[calibration]\nreps = 20\nseed = 7\n\n"
            f"[io]\nout = {tmp_path / 'auto.csv'}\n")
        res = runner.invoke(main, ["simulate", "--config", str(path),
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "auto.csv").read_text().strip().split("\n")
        assert len(rows) == 3

    def test_two_ridges_of_one_estimator(self, runner, tmp_path):
        # a name given twice gets one column per entry, labelled as written, and each
        # column holds what its entry gives alone
        def run(estimators, ridge=""):
            path = write_config(tmp_path, model={"kind": "fisher", "spikes": None,
                                                 "alpha": "10, 5, 5"},
                                harness={"grid": "p:30 n:150 T:60", "estimators": estimators},
                                calibration={"reps": "20"},
                                estimator={"ridge": ridge} if ridge else {})
            res = runner.invoke(main, ["simulate", "--config", path,
                                       "--cache-dir", str(tmp_path / "cache")])
            assert res.exit_code == 0, res.output
            rows = (tmp_path / "out.csv").read_text().strip().split("\n")[1:]
            return {row.split(",")[4]: row.split(",")[5:-1] for row in rows}

        both = run("wy, tvacle:c3a, tvacle:c3b")
        assert list(both) == ["wy", "tvacle:c3a", "tvacle:c3b"]
        assert both["tvacle:c3a"] == run("tvacle:c3a")["tvacle"]
        # the entry's ridge overrides the [estimator] ridge
        assert both["tvacle:c3b"] == run("tvacle:c3b", ridge="c1")["tvacle"]
        assert both["tvacle:c3b"] == run("tvacle", ridge="c3b")["tvacle"]

    def test_fisher_config_with_ridge_override(self, runner, tmp_path):
        path = tmp_path / "fish.cfg"
        path.write_text(
            "[model]\nkind = fisher\nalpha = 10, 5, 5\n\n"
            "[harness]\ngrid = p:30 n:150 T:60\nreps = 3\nseed = 1\n"
            "estimators = wy, tvacle:c3b\n\n"
            "[calibration]\nreps = 20\nseed = 7\n\n"
            f"[io]\nout = {tmp_path / 'fish.csv'}\n")
        res = runner.invoke(main, ["simulate", "--config", str(path),
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "fish.csv").read_text().strip().split("\n")
        assert len(rows) == 3


class TestReport:
    def test_csv_render(self, runner, tmp_path):
        cfg = write_config(tmp_path, io={"trace": "true"})
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 0, res.output
        mirror = str(tmp_path / "out.json")
        res = runner.invoke(main, ["report", "--in", mirror, "--format", "csv"])
        assert res.exit_code == 0
        assert res.output.startswith("model_id,")
        assert res.output.strip() == (tmp_path / "out.csv").read_text().strip()
        out = tmp_path / "again.csv"
        res = runner.invoke(main, ["report", "--in", mirror, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.output == f"wrote {out}\n"
        assert out.read_text() == (tmp_path / "out.csv").read_text()

    def test_no_completed_replications(self, runner, tmp_path, monkeypatch):
        # replication 0 fails, so the metrics are NaN: the mirror stays valid
        # JSON (null) and re-renders to the same CSV (nan)
        def boom(model, rng):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness_mod, "simulate", boom)
        cfg = ExperimentConfig(
            model_id="none", model=PopulationModel(p=30, n=60, spikes=(5.0,)),
            grid=(GridPoint(p=30, n=60),), estimators=(EstimatorSetting("py"),),
            reps=3, calibration_reps=20)
        result = run_experiment(cfg, cache_dir=str(tmp_path))
        assert result.reports[0].reps == 0 and result.reports[0].partial
        mirror = tmp_path / "mirror.json"
        mirror.write_text(result.to_json())

        payload = json.loads(mirror.read_text(), parse_constant=reject_constant)
        assert payload["reports"][0]["mean"] is None
        res = runner.invoke(main, ["report", "--in", str(mirror), "--format", "csv"])
        assert res.exit_code == 0, res.output
        assert res.output == summarize(result.reports)


def write_text(path, text):
    path.write_text(text)
    return str(path)


def bad_mirror(tmp_path):
    """A JSON mirror whose one report has a distribution summing to 10.5."""
    report = SimulationReport(model_id="m", p=10, n=40, T=None, estimator="py",
                              reps=1, q_true=1, mean=1.0, mse=0.0, misest_rate=0.0,
                              distribution=(0.0, 1.0) + (0.0,) * 19, seed=0,
                              runtime_s=0.1)
    payload = {"reports": [{**report.to_dict(), "distribution": [0.5] * 21}]}
    return write_text(tmp_path / "mirror.json", json.dumps(payload))


def blocked_dir(tmp_path):
    """A directory path that cannot be created: its parent is a regular file."""
    return str(Path(write_text(tmp_path / "file", "")) / "cache")


# bad input from outside the program: a malformed config file, a malformed
# number on the command line, an inconsistent report mirror, and a path that
# cannot be written or created
EXIT_2_CASES = {
    "config-without-section-header": lambda tmp, spec: [
        "simulate", "--config", write_text(tmp / "exp.cfg", "grid = p:50 n:200\n")],
    "config-with-duplicate-section": lambda tmp, spec: [
        "simulate", "--config", write_text(
            tmp / "exp.cfg", "[model]\nkind = population\n[model]\nkind = fisher\n")],
    "config-with-bad-interpolation": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp, harness={"grid": "p:50 n:200%"})],
    "simulate-unwritable-out": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp), "--out", str(tmp / "no" / "x.csv"),
        "--cache-dir", str(tmp / "cache")],
    # a JSON mirror with no file of its own: the CSV's name, or no CSV path at all
    "simulate-trace-out-json": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp), "--out", str(tmp / "r.json"), "--trace",
        "--cache-dir", str(tmp / "cache")],
    "simulate-trace-without-out": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp, io={"out": None}), "--trace",
        "--cache-dir", str(tmp / "cache")],
    "simulate-io-trace-without-out": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp, io={"out": None, "trace": "true"}),
        "--cache-dir", str(tmp / "cache")],
    "limits-bad-theta": lambda tmp, spec: [
        "limits", "--family", "autocov", "--y", "0.5", "--theta", "abc"],
    "limits-bad-spikes": lambda tmp, spec: [
        "limits", "--family", "population", "--c", "1", "--spikes", "4,x"],
    # numbers that parse but leave a law's domain or overflow its upper edge
    **{"limits-" + "-".join(a.lstrip("-") for a in args): lambda tmp, spec, args=args: [
        "limits", "--json", "--family", *args] for args in (
        ("autocov", "--y", "nan"), ("autocov", "--y", "inf"), ("autocov", "--y", "1e200"),
        ("population", "--c", "nan"), ("population", "--c", "inf"),
        ("population", "--c", "1", "--sigma2", "nan"),
        ("fisher", "--c", "nan", "--y", "0.5"), ("population", "--c", "1", "--spikes", "nan,3"),
        ("population", "--c", "1", "--spikes", "inf"),
        ("population", "--c", "1e308", "--sigma2", "1e308"))},
    # tuning that parses but leaves its range: a negative search bound, a
    # non-finite or nonpositive constant, a non-finite transformation slope
    **{"estimate-" + "-".join(a.lstrip("-") for a in args): lambda tmp, spec, args=args: [
        "estimate", spec, "--family", args[0], "--method", args[1], "--n", "240",
        *(["--t", "120"] if args[0] == "fisher" else []), *args[2:]] for args in (
        ("population", "py", "--bound", "-5"), ("population", "lwy", "--d-t", "0.3", "--bound", "-1"),
        ("fisher", "wy", "--bound", "-1"), ("population", "py", "--py-c", "nan"),
        ("population", "py", "--py-c", "-1"), ("population", "vacle", "--c-n", "nan"),
        ("population", "vacle", "--c-n", "inf"),
        ("population", "tvacle", "--c-n", "0.15", "--k1", "nan"),
        ("population", "tvacle", "--c-n", "0.15", "--k2", "inf"),
        # options of another method, which it does not read
        ("population", "py", "--c-n", "-3", "--k1", "-1"),
        ("population", "vacle", "--c-n", "0.2", "--py-c", "nan", "--d-t", "7"),
        ("population", "lwy", "--d-t", "0.3", "--tau", "nan"),
        # calibration options, checked though no calibration runs
        ("population", "vacle", "--c-n", "0.2", "--bound", "3", "--cal-seed", "-1",
         "--cal-reps", "1"),
        ("population", "lwy", "--d-t", "0.3", "--bound", "3", "--cal-reps", "1"))},
    # a negative seed, rejected before any draw
    "calibrate-negative-seed": lambda tmp, spec: [
        "calibrate", "--kind", "population", "--p", "20", "--n", "40", "--seed", "-1",
        "--cache-dir", str(tmp / "cache")],
    "estimate-negative-cal-seed": lambda tmp, spec: [
        "estimate", spec, "--method", "vacle", "--family", "population", "--n", "240",
        "--cal-seed", "-1", "--cache-dir", str(tmp / "cache")],
    "simulate-negative-calibration-seed": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp, calibration={"seed": "-1"}),
        "--cache-dir", str(tmp / "cache")],
    "simulate-negative-harness-seed": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp, harness={"seed": "-4"}),
        "--cache-dir", str(tmp / "cache")],
    # no estimator, written as an empty list or by leaving the key out
    "simulate-empty-estimator-list": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp, harness={"estimators": ","}),
        "--cache-dir", str(tmp / "cache")],
    "simulate-no-estimators-key": lambda tmp, spec: [
        "simulate", "--config", write_config(tmp, harness={"estimators": None}),
        "--cache-dir", str(tmp / "cache")],
    "report-bad-distribution": lambda tmp, spec: ["report", "--in", bad_mirror(tmp)],
    "estimate-unwritable-plot-data": lambda tmp, spec: [
        "estimate", spec, "--method", "tvacle", "--family", "population", "--n", "240",
        "--c-n", "0.15", "--plot-data", str(tmp / "no" / "p.csv")],
    "estimate-unwritable-trace": lambda tmp, spec: [
        "estimate", spec, "--method", "tvacle", "--family", "population", "--n", "240",
        "--c-n", "0.15", "--trace", str(tmp / "no" / "t.json")],
    "calibrate-uncreatable-cache-dir": lambda tmp, spec: [
        "calibrate", "--kind", "population", "--p", "40", "--n", "60", "--reps", "30",
        "--cache-dir", blocked_dir(tmp)],
    "config-not-utf8": lambda tmp, spec: [
        "simulate", "--config", write_bytes(tmp / "exp.cfg", b"\xff\xfe[model]\n")],
    "spectrum-not-utf8": lambda tmp, spec: [
        "estimate", write_bytes(tmp / "eig.txt", b"\xff\xfe3\n1\n2\n"), "--method", "vacle",
        "--family", "population", "--n", "40", "--c-n", "0.15"],
}


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


class TestExitCodes:
    @pytest.mark.filterwarnings("ignore:ignoring unreadable calibration cache")
    @pytest.mark.parametrize("case", EXIT_2_CASES)
    def test_bad_input_exit_2(self, runner, tmp_path, spectrum_file, case):
        res = runner.invoke(main, EXIT_2_CASES[case](tmp_path, spectrum_file))
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # exited, did not raise
        assert "error: " in res.stderr
        assert "Traceback" not in res.output

    def test_bad_number_named(self, runner):
        res = runner.invoke(main, ["limits", "--family", "population", "--c", "1",
                                   "--spikes", "4,x"])
        assert res.exit_code == 2
        assert "'4,x'" in res.stderr

    @pytest.mark.parametrize("command, target", [
        ("estimate", "build_estimator"),
        ("simulate", "run_experiment"),
    ])
    def test_numerical_failure_exit_3(self, runner, tmp_path, spectrum_file,
                                      monkeypatch, command, target):
        def boom(*a, **k):
            raise NumericalError("synthetic")
        monkeypatch.setattr(cli_mod, target, boom)
        args = {"estimate": ["estimate", spectrum_file, "--method", "vacle", "--family",
                             "population", "--n", "240", "--c-n", "0.2"],
                "simulate": ["simulate", "--config", write_config(tmp_path)]}[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 3, res.output
        assert "error: synthetic" in res.stderr

    @pytest.mark.parametrize("method", [
        ["py"], ["vacle", "--c-n", "1", "--bound", "3"], ["tvacle", "--c-n", "1", "--bound", "3"],
    ], ids=["py", "vacle", "tvacle"])
    def test_overflowing_scale_exit_3(self, runner, spectrum_file, method):
        # autocov spectra are normalized by sigma2^2, which overflows at 1e200
        res = runner.invoke(main, ["estimate", spectrum_file, "--family", "autocov", "--t", "4",
                                   "--sigma2", "1e200", "--method", *method])
        assert res.exit_code == 3, res.output
        assert "out of float range" in res.stderr

    def test_overflowing_wy_edge_exit_3(self, runner, spectrum_file):
        # sigma2 times the Fisher bulk edge (about 59 at these sizes) overflows
        res = runner.invoke(main, ["estimate", spectrum_file, "--method", "wy", "--family",
                                   "fisher", "--n", "150", "--t", "80", "--sigma2", "1e308"])
        assert res.exit_code == 3, res.output
        assert "error: sigma2 = 1e+308 puts the wy bulk edge out of float range" in res.stderr

    def test_overflowing_transform_exit_3(self, runner, tmp_path):
        # the transform squares the top value 8.48e153 past the float range
        spectrum = tmp_path / "huge.txt"
        spectrum.write_text("0\n0\n8.48e153\n")
        res = runner.invoke(main, ["estimate", str(spectrum), "--method", "tvacle",
                                   "--family", "population", "--n", "2", "--sigma2", "1.0",
                                   "--bound", "3", "--c-n", "1.0"])
        assert res.exit_code == 3, res.output
        assert "transformed spectrum" in res.stderr

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_oversized_count_exit_2(self, runner, tmp_path, spectrum_file, command):
        # a sample count beyond the float range cannot enter the estimators' rates
        huge = str(10 ** 330)
        args = {"estimate": ["estimate", spectrum_file, "--method", "py", "--family",
                             "population", "--n", huge, "--py-c", "1"],
                "simulate": ["simulate", "--config", write_config(
                    tmp_path, harness={"grid": f"p:50 n:{huge}", "estimators": "py"})]}[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "error: population sizes must not exceed the float range" in res.stderr

    # any order of magnitude, the float range's ends and beyond included
    MAGNITUDES = st.integers(-330, 330).map(lambda k: float(f"1e{k}"))
    COUNTS = st.integers(2, 10_000) | st.integers(0, 340).map(lambda k: 10 ** k) | st.integers()

    # every estimator option that needs no calibration draw: a ridge, a ratio
    # tolerance, a py constant, or none for wy; and each tuning option's range
    OWN_OPTION = {"vacle": "--c-n", "tvacle": "--c-n", "lwy": "--d-t", "py": "--py-c"}
    IN_RANGE = {"--c-n": lambda v: 0.0 < v < math.inf, "--py-c": lambda v: 0.0 < v < math.inf,
                "--d-t": lambda v: 0.0 < v < 1.0, "--tau": lambda v: 0.0 < v < 1.0,
                "--k1": lambda v: 0.0 <= v < math.inf, "--k2": lambda v: 0.0 <= v < math.inf}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(FAMILIES),
           method=st.sampled_from(["vacle", "tvacle", "lwy", "py", "wy"]),
           values=st.lists(st.floats(0.0, 1e3) | st.floats(0.0, allow_infinity=False),
                           min_size=3, max_size=40),
           n=COUNTS, t=COUNTS,
           sigma2=(st.floats(0.01, 100.0) | MAGNITUDES | st.floats()).map(repr)
           | st.just("estimated"),
           tune=st.floats(0.0, 1.0) | st.floats(),
           bound=st.none() | st.integers(3, 40) | st.integers(),
           tau=st.none() | st.floats(0.0, 1.0) | st.floats(),
           k1=st.none() | st.floats(), k2=st.none() | st.floats(),
           other=st.integers(0, 2), other_value=st.none() | st.floats(0.0, 1.0) | st.floats(),
           ridge=st.none() | st.sampled_from(RIDGES) | st.text())
    # replayed on every run: wy's noise-scaled Fisher edge overflows, and a
    # sigma2 the model would reject
    @example(family="fisher", method="wy", values=[float(v) for v in range(40, 0, -1)],
             n=150, t=80, sigma2="1e+308", tune=0.5, bound=None, tau=None, k1=None, k2=None,
             other=0, other_value=None, ridge=None)
    @example(family="population", method="vacle", values=[float(v) for v in range(40, 0, -1)],
             n=240, t=80, sigma2="nan", tune=0.2, bound=None, tau=None, k1=None, k2=None,
             other=0, other_value=None, ridge=None)
    def test_any_input_keeps_exit_contract(self, tmp_path_factory, family, method, values,
                                           n, t, sigma2, tune, bound, tau, k1, k2,
                                           other, other_value, ridge):
        spectrum = tmp_path_factory.getbasetemp() / "estimate-fuzz.txt"
        spectrum.write_text("".join(f"{v!r}\n" for v in values))
        own = self.OWN_OPTION.get(method)
        others = [o for o in ("--c-n", "--d-t", "--py-c") if o != own]  # another method's
        options = {own: tune, others[other % len(others)]: other_value,
                   "--tau": tau, "--k1": k1, "--k2": k2}
        options = {name: v for name, v in options.items() if name and v is not None}
        sizes = spikeorder.spectra.FAMILIES[family].sizes  # an unread size exits 2
        args = ["estimate", str(spectrum), "--method", method, "--family", family,
                *([f"--n={n}"] if "n" in sizes else []), *([f"--t={t}"] if "T" in sizes else []),
                f"--sigma2={sigma2}"]
        args += [f"--bound={bound}"] if bound is not None else []
        args += [f"--ridge={ridge}"] if ridge is not None else []
        args += [f"{name}={v!r}" for name, v in options.items()]
        res = CliRunner().invoke(main, args)
        assert res.exit_code in (0, 2, 3), res.output
        assert "Traceback" not in res.output
        assert "No such option" not in res.stderr  # every option drawn is one of estimate's
        if res.exit_code == 0:  # every option was in range, and so is the estimate
            assert all(self.IN_RANGE[name](v) for name, v in options.items()), options
            assert ridge is None or ridge in RIDGES, ridge
            assert 0 <= int(res.stdout.split("=")[-1]) <= (20 if bound is None else bound)

    @pytest.mark.parametrize("case", ["simulate-unwritable-out",
                                      "calibrate-uncreatable-cache-dir",
                                      "simulate-negative-harness-seed",
                                      "simulate-trace-out-json", "simulate-trace-without-out",
                                      "simulate-io-trace-without-out"])
    def test_unusable_output_fails_before_any_draw(self, runner, tmp_path, spectrum_file,
                                                    monkeypatch, case):
        calls = []
        for module, name in ((harness_mod, "simulate"), (calibration_mod, "simulate"),
                             (harness_mod, "replicate"), (calibration_mod, "replicate")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name:
                                calls.append(_name) or _real(*a))
        # every draw goes through replicate, including the bidiagonal noise models
        res = runner.invoke(main, EXIT_2_CASES[case](tmp_path, spectrum_file))
        assert res.exit_code == 2, res.output
        assert calls == []

    @pytest.fixture
    def draws(self, monkeypatch):
        """One entry per draw the harness or the calibration makes; each goes through replicate."""
        calls = []
        for module in (harness_mod, calibration_mod):
            def counting(draw, *args, _real=module.replicate, **kwargs):
                return _real(lambda rng: calls.append(None) or draw(rng), *args, **kwargs)
            monkeypatch.setattr(module, "replicate", counting)
        return calls

    # population models read no T, autocov models no n
    @pytest.mark.parametrize("family, option, size", [("population", "--t", "T"),
                                                      ("autocov", "--n", "n")])
    @pytest.mark.parametrize("command", ["estimate", "calibrate", "simulate"])
    def test_size_the_family_does_not_read_exit_2(self, runner, tmp_path, spectrum_file,
                                                  monkeypatch, draws, command, family,
                                                  option, size):
        ingested = []
        monkeypatch.setattr(cli_mod, "ingest_spectrum", lambda *a, **k: ingested.append(a))
        model = {"kind": "autocov", "spikes": None, "theta": "0.5"} if family == "autocov" else {}
        args = {
            "estimate": ["estimate", spectrum_file, "--method", "vacle", "--family", family,
                         "--n", "60", "--t", "40"],
            "calibrate": ["calibrate", "--kind", family, "--p", "30", "--n", "60", "--t", "40"],
            "simulate": ["simulate", "--config", write_config(
                tmp_path, model=model, harness={"grid": "p:30 n:60 T:40"})],
        }[command]
        res = runner.invoke(main, [*args, "--cache-dir", str(tmp_path / "cache")])
        assert res.exit_code == 2, res.output
        named = f"grid size {size} at p:30" if command == "simulate" else option
        assert f"error: {named} does not apply to {family} models" in res.stderr
        assert draws == [] and ingested == []

    @pytest.mark.parametrize("command, workers, warm", [
        ("calibrate", "-3", False), ("calibrate", "0", True), ("simulate", "0", False),
    ], ids=["calibrate", "calibrate-cache-hit", "simulate"])
    def test_workers_below_one_exit_2_before_any_draw(self, runner, tmp_path, draws,
                                                      command, workers, warm):
        cache = str(tmp_path / "cache")
        if warm:
            calibrate_ridge("population", p=30, n=60, reps=20, cache_dir=cache)
            draws.clear()
        args = {"calibrate": ["calibrate", "--kind", "population", "--p", "30", "--n", "60",
                              "--reps", "20"],
                # py reads no calibration: the spiked draws are the first to need workers
                "simulate": ["simulate", "--config",
                             write_config(tmp_path, harness={"estimators": "py"})]}[command]
        res = runner.invoke(main, [*args, "--workers", workers, "--cache-dir", cache])
        assert res.exit_code == 2, res.output
        assert f"error: workers must be at least 1, got {workers}" in res.stderr
        assert draws == []

    # sampled_from draws about uniformly, where integers() favours values near 0, which
    # are out of range here; so that some examples pass every check and calibrate
    SIZES = st.sampled_from(range(-3, 41))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(FAMILIES), p=SIZES, n=SIZES, t=SIZES, unread=st.booleans(),
           reps=st.sampled_from(range(-3, 26)), seed=st.sampled_from((-3, -1, 0, 7, 2**64)),
           workers=st.sampled_from(range(-2, 3)), force=st.booleans())
    def test_calibrate_keeps_exit_contract(self, tmp_path_factory, kind, p, n, t, unread, reps,
                                           seed, workers, force):
        # one cache directory for every example, so that some hit an earlier entry
        cache = tmp_path_factory.getbasetemp() / "calibrate-fuzz"
        sizes = spikeorder.spectra.FAMILIES[kind].sizes
        args = ["calibrate", "--kind", kind, f"--p={p}", f"--reps={reps}", f"--seed={seed}",
                f"--workers={workers}", f"--cache-dir={cache}"]
        args += [f"--n={n}"] * (unread or "n" in sizes) + [f"--t={t}"] * (unread or "T" in sizes)
        args += ["--force"] * force
        res = CliRunner().invoke(main, args)
        assert res.exit_code in (0, 2, 3), res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("case", ["config-not-utf8", "spectrum-not-utf8"])
    def test_not_utf8_names_path(self, runner, tmp_path, spectrum_file, case):
        res = runner.invoke(main, EXIT_2_CASES[case](tmp_path, spectrum_file))
        assert res.exit_code == 2
        assert ("exp.cfg" if case.startswith("config") else "eig.txt") in res.stderr

    def test_estimate_help_shows_defaults(self, runner):
        res = runner.invoke(main, ["estimate", "--help"])
        assert res.exit_code == 0
        text = " ".join(res.output.split())
        assert "--bound INTEGER search bound L [default: 20]" in text
        assert "--k1 FLOAT [default: 5.0]" in text
        assert "--k2 FLOAT [default: 5.0]" in text
        assert "--py-start-index INTEGER RANGE [default: 0; 0<=x<=1]" in text


def test_every_tuning_field_is_an_option_and_a_config_key():
    fields = {f.name for f in dataclasses.fields(EstimatorSetting)} - {"name", "label"}
    assert fields <= {param.name for param in cli_mod.estimate.params}
    assert {field for field, _ in cli_mod._ESTIMATOR_KEYS.values()} == fields
    assert set(cli_mod._CONFIG_KEYS["estimator"]) == {field.lower() for field in fields}


# even after an autocov factor draw: its filter is scipy.signal's C extension,
# loaded from its file, as scipy.signal pulls in scipy.stats, about half the
# CLI's import time; the oracles are closed form and need no scipy.integrate;
# LAPACK is bound without the scipy.linalg package, which imports numpy.f2py,
# and the MP quantile bisects without scipy.optimize, which imports
# scipy.special and scipy.fft
@pytest.mark.parametrize("module", ["scipy.signal", "scipy.stats", "scipy.integrate",
                                    "scipy.linalg", "scipy.optimize", "scipy.special",
                                    "scipy.fft", "numpy.f2py"])
def test_import_leaves_out(module):
    src = str(Path(spikeorder.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, numpy, spikeorder.cli, spikeorder.harness; "
            "from spikeorder.spectra import AutocovModel; "
            "AutocovModel(p=20, T=40, theta=(0.6,)).draw(numpy.random.default_rng(0)); "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"

import math

import numpy as np
import pytest

from spikeorder import rmt
from spikeorder.errors import ConfigurationError
from spikeorder.estimators import (
    fn_transform,
    loglog_rate,
    lwy_estimator,
    py_estimator,
    tvacle,
    vacle,
    wy_estimator,
)
from spikeorder.spectra import Spectrum


def make_spec(values, n=200, scale_power=1):
    values = np.asarray(values, dtype=float)
    return Spectrum(values=values, p=values.size, n=n, scale_power=scale_power)


class TestRidgeRatios:
    def test_hand_example(self):
        spec = make_spec([9.0, 5.0, 1.2, 1.1, 1.05, 1.0])
        trace = vacle(spec, 1.0, c_n=0.1, tau=0.5, L=6).trace
        expected = [3.9 / 4.1, 0.2 / 3.9, 0.15 / 0.2, 0.15 / 0.15]
        assert np.allclose(trace.ratios, expected, atol=1e-14)
        assert trace.q_hat == 2

    def test_all_equal(self):
        spec = make_spec([2.0] * 10)
        trace = vacle(spec, 1.0, c_n=0.3, L=10).trace
        assert np.all(trace.ratios == 1.0)
        assert trace.q_hat == 0

    def test_scale_cancellation_power_of_two(self):
        # joint scaling by a power of two is exact in IEEE arithmetic
        vals = np.array([9.0, 5.0, 1.2, 1.1, 1.07, 1.01, 0.95, 0.9])
        base = vacle(make_spec(vals), 1.0, c_n=0.07, L=8).trace
        scaled = vacle(make_spec(vals * 4.0), 4.0, c_n=0.07, L=8).trace
        assert np.array_equal(base.ratios, scaled.ratios)
        assert np.array_equal(base.deltas, scaled.deltas)
        assert base.q_hat == scaled.q_hat

    def test_length_contract(self):
        spec = make_spec([3.0, 2.0, 1.0])
        with pytest.raises(ConfigurationError, match="exceeds"):
            vacle(spec, 1.0, c_n=0.1, L=20)
        # p == L is the boundary case that still works (delta_{L-1} exists)
        trace = vacle(make_spec([4.0, 3.0, 2.0, 1.0]), 1.0, c_n=0.1, L=4).trace
        assert trace.ratios.size == 2
        with pytest.raises(ConfigurationError):
            vacle(make_spec([4.0, 3.0, 2.0, 1.0]), 1.0, c_n=0.1, L=5)

    def test_trace_serialization(self):
        import json
        spec = make_spec([9.0, 5.0, 1.2, 1.1, 1.05, 1.0])
        trace = vacle(spec, 1.0, c_n=0.1, L=6).trace
        d = json.loads(json.dumps(trace.to_dict()))
        assert set(d) == {"deltas", "ratios", "tau", "c_n", "q_hat"}
        assert d["q_hat"] == 2


class TestConfig:
    def test_validation(self):
        spec = make_spec([4.0, 3.0, 2.0, 1.0])
        with pytest.raises(ConfigurationError):
            vacle(spec, 1.0, c_n=0.0, L=4)
        with pytest.raises(ConfigurationError):
            vacle(spec, 1.0, c_n=0.1, tau=1.0, L=4)
        with pytest.raises(ConfigurationError):
            vacle(spec, 1.0, c_n=0.1, L=2)
        with pytest.raises(ConfigurationError):
            vacle(spec, 0.0, c_n=0.1, L=4)
        with pytest.raises(ConfigurationError):
            tvacle(spec, 1.0, c_n=0.1, e=4.0, L=4, k1=-1.0)

    @pytest.mark.parametrize("estimate", [
        lambda spec: vacle(spec, math.nan, c_n=0.1, L=4),
        lambda spec: tvacle(spec, math.nan, c_n=0.1, e=4.0, L=4),
        lambda spec: py_estimator(spec, math.nan, C=6.3424),
    ], ids=["vacle", "tvacle", "py"])
    def test_nan_sigma2_is_bad_input(self, estimate):
        # a NaN scale is bad input (exit 2), not a numerical failure (exit 3)
        with pytest.raises(ConfigurationError, match="sigma2 must be positive"):
            estimate(make_spec([4.0, 3.0, 2.0, 1.0]))


class TestFnTransform:
    E, KAPPA, K1, K2 = 4.0, 0.05, 5.0, 5.0

    def branches(self, x):
        # independent hand transcription of the four-branch definition
        e, k, k1, k2 = self.E, self.KAPPA, self.K1, self.K2
        Ln, Rn = e - k, e + k
        if x < Ln - 1.0 / k1:
            return Ln - 1.0 / (2.0 * k1)
        if x < Ln:
            return 0.5 * k1 * x * x + (1.0 - k1 * Ln) * x + 0.5 * k1 * Ln * Ln
        if x < Rn:
            return x
        return 0.5 * k2 * x * x + (1.0 - k2 * Rn) * x + 0.5 * k2 * Rn * Rn

    def test_identity_window(self):
        xs = np.linspace(self.E - self.KAPPA, self.E + self.KAPPA - 1e-9, 9)
        out = fn_transform(xs, self.E, self.KAPPA, self.K1, self.K2)
        assert np.array_equal(out, xs)

    def test_matches_branch_formulas(self):
        xs = np.linspace(self.E - 2.0, self.E + 2.0, 201)
        out = fn_transform(xs, self.E, self.KAPPA, self.K1, self.K2)
        expected = [self.branches(float(x)) for x in xs]
        assert np.allclose(out, expected, atol=1e-14)

    def test_flat_knot_value(self):
        # x = Ln - 1/k1 maps to Ln - 1/(2 k1)
        Ln = self.E - self.KAPPA
        knot = Ln - 1.0 / self.K1
        val = fn_transform(knot, self.E, self.KAPPA, self.K1, self.K2)
        assert val == pytest.approx(Ln - 0.5 / self.K1, abs=1e-14)

    def test_c1_continuity_at_knots(self):
        e, k, k1, k2 = self.E, self.KAPPA, self.K1, self.K2
        Ln, Rn = e - k, e + k
        knots = (Ln - 1.0 / k1, Ln, Rn)
        # branch values and derivatives on each side, written out by hand
        left_val = {
            knots[0]: Ln - 0.5 / k1,
            knots[1]: 0.5 * k1 * Ln * Ln + (1 - k1 * Ln) * Ln + 0.5 * k1 * Ln * Ln,
            knots[2]: Rn,
        }
        right_val = {
            knots[0]: 0.5 * k1 * knots[0] ** 2 + (1 - k1 * Ln) * knots[0] + 0.5 * k1 * Ln * Ln,
            knots[1]: Ln,
            knots[2]: 0.5 * k2 * Rn * Rn + (1 - k2 * Rn) * Rn + 0.5 * k2 * Rn * Rn,
        }
        left_der = {knots[0]: 0.0, knots[1]: k1 * Ln + 1 - k1 * Ln, knots[2]: 1.0}
        right_der = {knots[0]: k1 * knots[0] + 1 - k1 * Ln, knots[1]: 1.0,
                     knots[2]: k2 * Rn + 1 - k2 * Rn}
        for x in knots:
            assert abs(left_val[x] - right_val[x]) < 1e-12
            assert abs(left_der[x] - right_der[x]) < 1e-12
            assert fn_transform(x, e, k, k1, k2) == pytest.approx(right_val[x], abs=1e-12)

    def test_derivative_conditions(self):
        # nonnegative, nondecreasing, equal to one inside the window
        e, k, k1, k2 = self.E, self.KAPPA, self.K1, self.K2
        xs = np.linspace(e - 2.0, e + 2.0, 2001)
        h = 1e-7
        der = (np.array(fn_transform(xs + h, e, k, k1, k2))
               - np.array(fn_transform(xs - h, e, k, k1, k2))) / (2 * h)
        assert np.all(der >= -1e-9)
        assert np.all(np.diff(der) >= -1e-6)
        inside = (xs > e - k + 1e-3) & (xs < e + k - 1e-3)
        assert np.allclose(der[inside], 1.0, atol=1e-8)

    def test_zero_slopes_identity(self):
        xs = np.linspace(0.0, 10.0, 50)
        out = fn_transform(xs, self.E, self.KAPPA, 0.0, 0.0)
        assert np.array_equal(out, xs)
        out_left = fn_transform(xs, self.E, self.KAPPA, 0.0, 3.0)
        assert np.array_equal(out_left[xs < self.E + self.KAPPA],
                              xs[xs < self.E + self.KAPPA])

    @pytest.mark.parametrize("kappa, k1, k2", [
        (math.nan, 5.0, 5.0), (math.inf, 5.0, 5.0), (0.05, math.nan, 5.0),
        (0.05, math.inf, 5.0), (0.05, 5.0, math.nan), (0.05, 5.0, math.inf),
    ])
    def test_rejects_non_finite_radius_and_slopes(self, kappa, k1, k2):
        # a NaN radius or slope would silently drop a branch of the map
        with pytest.raises(ConfigurationError):
            fn_transform(1.0, self.E, kappa, k1, k2)

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_edge(self, e):
        # a NaN edge made the map the identity, so tvacle answered as vacle,
        # and an infinite one raised NumericalError, the class for exit 3
        with pytest.raises(ConfigurationError, match="bulk edge must be finite"):
            fn_transform(1.0, e, self.KAPPA, self.K1, self.K2)
        with pytest.raises(ConfigurationError, match="bulk edge must be finite"):
            tvacle(make_spec([4.0, 3.0, 2.0, 1.0]), 1.0, c_n=0.1, e=e, L=4)

    def test_scalar_round_trip(self):
        assert fn_transform(4.0, self.E, self.KAPPA, self.K1, self.K2) == 4.0
        assert isinstance(fn_transform(1.0, self.E, self.KAPPA, self.K1, self.K2), float)


class TestVacle:
    def test_selection_rule(self):
        spec = make_spec([9.0, 5.0, 1.2, 1.1, 1.05, 1.0])
        est = vacle(spec, 1.0, c_n=0.1, tau=0.5, L=6)
        assert est.q_hat == 2 and est.trace.q_hat == 2 and not est.exhausted

    def test_empty_set_gives_zero(self):
        spec = make_spec(np.linspace(5.0, 4.0, 10))
        assert vacle(spec, 1.0, c_n=5.0, tau=0.2, L=10).q_hat == 0


class TestTvacle:
    def test_degenerates_to_vacle_bitwise(self):
        g = np.random.default_rng(3)
        vals = np.sort(g.uniform(1.0, 9.0, 30))[::-1]
        spec = make_spec(vals)
        v = vacle(spec, 1.0, c_n=0.2, L=20)
        t = tvacle(spec, 1.0, c_n=0.2, L=20, e=4.0, k1=0.0, k2=0.0)
        assert v.q_hat == t.q_hat
        assert np.array_equal(v.trace.deltas, t.trace.deltas)
        assert np.array_equal(v.trace.ratios, t.trace.ratios)

    def test_sharpens_valley(self):
        # spike above the window, bulk inside the default radius
        # loglog_rate(6) ~ 0.18: the transformed ratio at q cannot exceed the
        # plain one (requirement on the q-th gap)
        e = 4.0
        vals = np.array([9.0, e + 0.02, e + 0.01, e - 0.002, e - 0.01, e - 0.02])
        spec = make_spec(vals)
        tr_plain = vacle(spec, 1.0, c_n=0.05, L=6).trace
        tr_tr = tvacle(spec, 1.0, c_n=0.05, L=6, e=e, k1=5.0, k2=5.0).trace
        assert tr_tr.ratios[0] <= tr_plain.ratios[0]

    def test_default_kappa(self):
        assert loglog_rate(200) == pytest.approx(
            np.log(np.log(200.0)) * 200.0 ** (-2.0 / 3.0), abs=1e-15)


class TestOracleValleyCliff:
    def test_exact_limits(self):
        # exact limiting spectrum: spike images above, all bulk at the edge
        c = 0.25
        spikes = (7.0, 6.0, 5.0, 4.0)
        law = rmt.MpLaw(c=c)
        images = [rmt.MpLaw(c=c).spike_map(s) for s in spikes]
        vals = np.array(images + [law.upper_edge] * 16)
        spec = make_spec(vals, n=200)
        c_n = 0.1
        est = vacle(spec, 1.0, c_n=c_n, tau=0.5, L=20)
        trace = est.trace
        assert est.q_hat == 4
        # the cliff is exactly one
        assert np.all(trace.ratios[4:] == 1.0)
        # the valley equals c_n / (d - e + c_n) exactly
        d_minus_e = images[-1] - law.upper_edge
        assert trace.ratios[3] == c_n / (d_minus_e + c_n)


class TestPy:
    def test_pure_noise_zero(self):
        vals = 4.0 - 0.001 * np.arange(30)
        est = py_estimator(make_spec(vals, n=200), 1.0, C=6.3424)
        assert est.q_hat == 0 and not est.exhausted

    def test_hand_gaps(self):
        # gaps 6, 3, 0.001, 0.0005, ...: C is chosen so that d_n = C n^(-2/3)
        # sqrt(2 loglog n) equals d_target, which stops at i = 2 below the gap
        # of 3, at i = 1 just above it and at i = 0 just above the gap of 6
        gaps = [6.0, 3.0] + [0.001, 0.0005] + [0.0002] * 20
        vals = 12.0 - np.concatenate([[0.0], np.cumsum(gaps)])
        n = 200
        for d_target, q in ((0.01, 2), (3.0 * (1 - 1e-12), 2), (3.0 * (1 + 1e-12), 1),
                            (6.0 * (1 + 1e-12), 0)):
            C = d_target / (n ** (-2 / 3) * np.sqrt(2 * np.log(np.log(n))))
            est = py_estimator(make_spec(vals, n=n), 1.0, C=C)
            assert (est.q_hat, est.exhausted) == (q, False), d_target

    def test_exhausted(self):
        vals = np.linspace(100.0, 10.0, 30)  # all gaps large
        est = py_estimator(make_spec(vals, n=200), 1.0, C=0.1, L=20)
        assert est.q_hat == 20 and est.exhausted

    def test_start_index_switch(self):
        vals = 4.0 - 0.001 * np.arange(30)
        est = py_estimator(make_spec(vals, n=200), 1.0, C=6.3424, start_index=1)
        assert est.q_hat == 1

    def test_needs_n(self):
        with pytest.raises(ConfigurationError):
            py_estimator(make_spec([3.0, 2.0, 1.0], n=None), 1.0, C=1.0)


class TestLwy:
    def test_all_equal_zero(self):
        est = lwy_estimator(make_spec([2.0] * 10), d_T=0.05)
        assert est.q_hat == 0

    def test_hand_example(self):
        est = lwy_estimator(make_spec([10.0, 5.0, 1.0, 0.99, 0.98]), d_T=0.05, L=3)
        assert est.q_hat == 2 and not est.exhausted

    def test_geometric_exhausts(self):
        d = 0.05
        vals = (1.0 - 2.0 * d) ** np.arange(30)
        est = lwy_estimator(make_spec(vals), d_T=d, L=20)
        assert est.q_hat == 20 and est.exhausted

    def test_zero_tail_ratio_convention(self):
        vals = np.array([4.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        est = lwy_estimator(make_spec(vals), d_T=0.05)
        assert est.q_hat == 2

    def test_scale_free(self):
        g = np.random.default_rng(5)
        vals = np.sort(g.uniform(0.5, 9.0, 25))[::-1]
        a = lwy_estimator(make_spec(vals), d_T=0.07)
        b = lwy_estimator(make_spec(vals * 13.7), d_T=0.07)
        assert a.q_hat == b.q_hat

    def test_d_range(self):
        with pytest.raises(ConfigurationError):
            lwy_estimator(make_spec([3.0, 2.0, 1.0]), d_T=1.5)


class TestWy:
    def test_all_below(self):
        assert wy_estimator(make_spec([3.0, 2.0, 1.0]), edge=5.0, d_n=0.1).q_hat == 0

    def test_direct_count(self):
        edge, d = 10.0, 0.2
        vals = np.array([30.0, 20.0, edge + 2 * d, edge - d, edge - 2 * d])
        assert wy_estimator(make_spec(vals), edge=edge, d_n=d).q_hat == 3

    def test_boundary_inclusive(self):
        vals = np.array([10.2, 5.0, 1.0])
        assert wy_estimator(make_spec(vals), edge=10.0, d_n=0.2).q_hat == 1

    @pytest.mark.parametrize("L, q, exhausted", [(5, 4, False), (4, 4, False), (3, 3, True)])
    def test_caps_at_L(self, L, q, exhausted):
        # four eigenvalues above the edge: a bound below the count caps it
        est = wy_estimator(make_spec([9.0, 8.0, 7.0, 6.0, 1.0]), edge=5.0, d_n=0.1, L=L)
        assert (est.q_hat, est.exhausted) == (q, exhausted)

    @pytest.mark.parametrize("edge, d_n", [
        (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -0.1),
        (math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
    ])
    def test_rejects_non_finite_edge_and_shift(self, edge, d_n):
        # a NaN edge or shift counted no eigenvalue, an edge of -inf every one
        with pytest.raises(ConfigurationError):
            wy_estimator(make_spec([3.0, 2.0, 1.0]), edge=edge, d_n=d_n)

    def test_scale_equivariance(self):
        # scaling spectrum, edge and shift jointly by a power of two is exact
        vals = np.array([30.0, 20.0, 10.4, 9.8, 9.0])
        base = wy_estimator(make_spec(vals), edge=10.0, d_n=0.2)
        scaled = wy_estimator(make_spec(vals * 8.0), edge=80.0, d_n=1.6)
        assert base == scaled


class TestScaleInvariance:
    def test_vacle_tvacle_py(self):
        g = np.random.default_rng(11)
        bulk = np.sort(g.uniform(1.0, 4.0, 26))[::-1]
        vals = np.concatenate([[9.5, 7.0], bulk])
        spec = make_spec(vals, n=150)
        s = 4.0  # power of two: exact in floating point
        spec_s = make_spec(vals * s, n=150)
        assert vacle(spec, 1.0, c_n=0.15, L=20).q_hat == vacle(spec_s, s, c_n=0.15, L=20).q_hat
        assert (tvacle(spec, 1.0, c_n=0.15, L=20, e=4.0).q_hat
                == tvacle(spec_s, s, c_n=0.15, L=20, e=4.0).q_hat)
        assert (py_estimator(spec, 1.0, C=6.3).q_hat
                == py_estimator(spec_s, s, C=6.3).q_hat)

    def test_autocov_scale_power(self):
        # auto-covariance spectra live on the sigma^4 scale
        g = np.random.default_rng(13)
        vals = np.sort(g.uniform(0.5, 3.0, 25))[::-1]
        s = 2.0
        spec = make_spec(vals, n=100, scale_power=2)
        spec_s = make_spec(vals * s ** 2, n=100, scale_power=2)
        a = vacle(spec, 1.0, c_n=0.1, L=20)
        b = vacle(spec_s, s, c_n=0.1, L=20)
        assert a.q_hat == b.q_hat
        assert np.array_equal(a.trace.ratios, b.trace.ratios)

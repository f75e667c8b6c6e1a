import numpy as np
import pytest

from spikeorder.errors import ConfigurationError
from spikeorder.rmt import (
    MpLaw,
    mp_cdf,
    mp_quantile,
    spike_identifiable_count,
)

from conftest import gauss_legendre_mass
from quadrature_reference import integrate_density
from rmt_reference import mp_density, mp_quantile_brentq


class TestMpLaw:
    def test_edges(self):
        law = MpLaw(c=0.25)
        assert law.lower_edge == pytest.approx(0.25)
        assert law.upper_edge == pytest.approx(2.25)
        assert law.atom_at_zero == 0.0

    def test_atom_above_one(self):
        law = MpLaw(c=2.0)
        assert law.atom_at_zero == pytest.approx(0.5)
        assert law.continuous_mass == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            MpLaw(c=-1.0)
        with pytest.raises(ConfigurationError):
            MpLaw(c=1.0, sigma2=0.0)


class TestDensity:
    def test_outside_support(self):
        law = MpLaw(c=0.5, sigma2=1.0)
        assert mp_density(law.lower_edge - 0.1, law) == 0.0
        assert mp_density(law.upper_edge, law) == 0.0
        assert mp_density(law.upper_edge + 3.0, law) == 0.0

    def test_positive_inside(self):
        law = MpLaw(c=0.5)
        xs = np.linspace(law.lower_edge + 1e-6, law.upper_edge - 1e-6, 50)
        assert all(mp_density(x, law) > 0 for x in xs)

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_mass_is_min_one_inverse_c(self, c):
        # independent Gauss-Legendre oracle, then the package CDF
        law = MpLaw(c=c)
        mass = gauss_legendre_mass(lambda x: mp_density(x, law),
                                   law.lower_edge, law.upper_edge)
        assert mass == pytest.approx(min(1.0, 1.0 / c), abs=1e-6)
        assert mp_cdf(law.upper_edge, law) == pytest.approx(1.0, abs=1e-6)

    def test_mean_is_sigma2(self):
        # trace identity: the continuous part integrates x to sigma2 for all c
        for c, sigma2 in ((0.5, 1.0), (2.0, 3.0)):
            law = MpLaw(c=c, sigma2=sigma2)
            mean = gauss_legendre_mass(lambda x: mp_density(x, law),
                                       law.lower_edge, law.upper_edge,
                                       weight=lambda x: x)
            assert mean == pytest.approx(sigma2, abs=1e-6)


class TestCdf:
    @pytest.mark.parametrize("sigma2", [1.0, 2.5])
    @pytest.mark.parametrize("c", [0.05, 0.25, 1.0, 2.0, 4.0])
    def test_closed_form_against_quadrature(self, c, sigma2):
        # the antiderivative against adaptive quadrature of the density, with
        # points within 1e-9 relative of both edges, where asin would lose digits
        law = MpLaw(c=c, sigma2=sigma2)
        a, b = law.lower_edge, law.upper_edge
        xs = [a * (1 + 1e-9), a + 1e-9 * (b - a), *np.linspace(a, b, 41)[1:-1],
              b - 1e-9 * (b - a), b * (1 - 1e-9)]
        for x in (x for x in xs if a < x < b):
            expected = law.atom_at_zero + integrate_density(
                lambda t: mp_density(t, law), a, b, upto=x)
            assert mp_cdf(x, law) == pytest.approx(expected, abs=1e-9)

    def test_outside_support(self):
        for c in (0.25, 1.0, 2.0):
            law = MpLaw(c=c, sigma2=2.5)
            assert mp_cdf(-1.0, law) == 0.0
            assert mp_cdf(law.lower_edge, law) == law.atom_at_zero
            assert mp_cdf(law.upper_edge, law) == law.atom_at_zero + law.continuous_mass


class TestQuantile:
    def test_frozen_values(self):
        # cross-checked against an independent quadrature + bisection oracle
        assert mp_quantile(0.5, 0.25) == pytest.approx(0.9160040706866094, abs=1e-9)
        assert mp_quantile(0.75, 2.0) == pytest.approx(1.6609317631627445, abs=1e-9)
        assert mp_quantile(0.5, 1.0) == pytest.approx(0.6527759416335707, abs=1e-9)

    def test_approaches_upper_edge(self):
        q = mp_quantile(0.9999, 1.0)
        assert q < 4.0
        assert 4.0 - q < 0.05

    def test_round_trip(self):
        for c in (0.25, 0.5, 1.0, 2.0):
            law = MpLaw(c=c)
            lo = law.atom_at_zero
            for alpha in np.linspace(lo + 0.05, 0.95, 5):
                q = mp_quantile(float(alpha), c)
                assert mp_cdf(q, law) == pytest.approx(alpha, abs=1e-8)

    def test_monotone_in_alpha(self):
        qs = [mp_quantile(a, 0.25) for a in (0.2, 0.4, 0.6, 0.8)]
        assert all(qs[i] < qs[i + 1] for i in range(3))
        assert all(0.25 < q < 2.25 for q in qs)

    # mp_quantile bisects the CDF to adjacent floats; brentq on the same
    # bracket is the reference, over six decades of aspect ratios
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9, 0.9999])
    def test_against_brentq(self, alpha):
        checked = 0
        for c in np.geomspace(1e-3, 1e3, 301):
            if alpha <= MpLaw(c=float(c)).atom_at_zero + 1e-15:
                continue
            assert mp_quantile(alpha, float(c)) == pytest.approx(
                mp_quantile_brentq(alpha, float(c)), rel=1e-12)
            checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("c", [1.01, 1.5, 2.0, 10.0, 1e3])
    def test_just_above_atom(self, c):
        # the CDF is flat at the lower edge, so the quantile is ill-conditioned
        # there: it meets brentq's loosely, and alpha to the CDF's own rounding
        law = MpLaw(c=c)
        for gap in (1e-12, 1e-9, 1e-6):
            alpha = law.atom_at_zero + gap
            q = mp_quantile(alpha, c)
            assert law.lower_edge < q == pytest.approx(mp_quantile_brentq(alpha, c), rel=1e-9)
            assert abs(mp_cdf(q, law) - alpha) <= 4 * np.finfo(float).eps

    def test_atom_error(self):
        with pytest.raises(ConfigurationError):
            mp_quantile(0.3, 2.0)
        # the sigma2-estimator alpha sits strictly above the atom
        assert mp_quantile(0.75, 2.0) > 0

    def test_alpha_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigurationError):
                mp_quantile(bad, 0.5)


class TestSpikeMap:
    def test_hand_value(self):
        # phi(5) = 5 + 1*5/(5-1)
        assert MpLaw(c=1.0, sigma2=1.0).spike_map(5.0) == pytest.approx(6.25, abs=1e-12)

    def test_model_level_spike(self):
        lam = 259.72
        expected = lam + 0.25 * lam / (lam - 1.0)
        got = MpLaw(c=0.25, sigma2=1.0).spike_map(lam)
        assert got == pytest.approx(expected, abs=1e-10)
        assert got > MpLaw(c=0.25).upper_edge

    @pytest.mark.parametrize("c", [0.25, 1.0, 2.0])
    def test_continuity_at_threshold(self, c):
        b = MpLaw(c=c).upper_edge
        for eps in (1e-4, 1e-6):
            lam = MpLaw(c=c).spike_threshold * (1.0 + eps)
            assert abs(MpLaw(c=c).spike_map(lam) - b) < 1e-3

    def test_subcritical(self):
        with pytest.raises(ConfigurationError):
            MpLaw(c=1.0, sigma2=1.0).spike_map(2.0)
        with pytest.raises(ConfigurationError):
            MpLaw(c=1.0, sigma2=1.0).spike_map(1.9)

    def test_strictly_increasing(self):
        for c in (0.25, 1.0, 2.0):
            xs = MpLaw(c=c).spike_threshold * (1.0 + np.linspace(1e-3, 5.0, 60))
            ys = [MpLaw(c=c).spike_map(x) for x in xs]
            assert all(ys[i] < ys[i + 1] for i in range(len(ys) - 1))

    def test_scale(self):
        # sigma2 phi(lam / sigma2) with sigma2 = 4
        assert MpLaw(c=1.0, sigma2=4.0).spike_map(20.0) == pytest.approx(
            4.0 * MpLaw(c=1.0, sigma2=1.0).spike_map(5.0))


class TestIdentifiableCount:
    def test_examples(self):
        assert spike_identifiable_count((5.0, 4.0, 3.0, 3.0), MpLaw(c=1.0)) == 4
        assert spike_identifiable_count((1.5,), MpLaw(c=1.0)) == 0
        assert spike_identifiable_count((7.0, 6.0, 5.0, 4.0), MpLaw(c=0.25)) == 4

    def test_threshold_strict(self):
        assert spike_identifiable_count((2.0,), MpLaw(c=1.0)) == 0  # exactly at 1 + sqrt(c)

    def test_descending_required(self):
        with pytest.raises(ConfigurationError):
            spike_identifiable_count((3.0, 4.0), MpLaw(c=1.0))

import functools
import math

import numpy as np
import pytest

from spikeorder.errors import ConfigurationError
from spikeorder.rmt import (
    AutocovLaw,
    FactorSignature,
    autocov_factor_limit,
    autocov_identifiable_count,
    autocov_t1,
    autocov_t_edge_limit,
)
from spikeorder.rmt import _z_of_t
from spikeorder.spectra import AutocovModel

from conftest import gauss_legendre_mass
from rmt_reference import autocov_lsd_density, autocov_support_lo


def ar1_signature(theta, innovation_var=2.0):
    g0 = innovation_var / (1.0 - theta * theta)
    return FactorSignature(gamma0=g0, gamma1=theta * g0)


def t_companion_oracle(z, law):
    """Algebraic route: the cubic's physical real branch on (b1, inf).

    The branch is tracked by continuation from z0 = 1000 b1 (where the
    Stieltjes transform is close to -1/z) down to the target z; converting
    it with T = -(1 + z S)/y shares no code with the quadrature route.
    """
    def roots_at(zz):
        return np.roots([zz * zz, -2.0 * zz * (law.y - 1.0),
                         (law.y - 1.0) ** 2 - zz, -1.0])

    path = np.geomspace(1000.0 * law.b1, z, 60)
    s = -1.0 / path[0]
    for zz in path:
        rr = roots_at(zz)
        rr = rr[np.abs(rr.imag) < 1e-8].real
        s = rr[np.argmin(np.abs(rr - s))]
    return -(1.0 + z * s) / law.y


class TestLaw:
    def test_edges_frozen(self):
        law = AutocovLaw(y=0.5)
        assert law.b1 == pytest.approx(2.7725424859373686, abs=1e-14)
        assert law.a1 == pytest.approx(-0.022542485937368628, abs=1e-14)
        assert autocov_support_lo(law) == 0.0
        law2 = AutocovLaw(y=2.0)
        assert law2.b1 == pytest.approx(17.63659945443753, abs=1e-12)
        assert law2.a1 == pytest.approx(0.11340054556247203, abs=1e-14)
        assert autocov_support_lo(law2) == law2.a1

    def test_edges_against_reported_values(self):
        assert abs(AutocovLaw(y=0.5).b1 - 2.773) < 1e-3
        assert abs(AutocovLaw(y=2.0).b1 - 17.637) < 1e-3

    def test_invariants(self):
        for y in (0.1, 0.5, 1.0, 2.0, 5.0):
            law = AutocovLaw(y=y)
            assert law.b1 > 0
            assert law.b1 > law.a1

    def test_atom(self):
        assert AutocovLaw(y=0.5).atom_at_zero == 0.0
        assert AutocovLaw(y=2.0).atom_at_zero == pytest.approx(0.5)


class TestDensity:
    def test_outside_support(self):
        law = AutocovLaw(y=0.5)
        assert autocov_lsd_density(law.b1 + 0.1, law) == 0.0
        assert autocov_lsd_density(-0.5, law) == 0.0
        law2 = AutocovLaw(y=2.0)
        assert autocov_lsd_density(law2.a1 - 0.01, law2) == 0.0

    def test_near_edge_small(self):
        law = AutocovLaw(y=0.5)
        val = autocov_lsd_density(2.7725, law)
        assert 0.0 <= val < 0.05

    def test_positive_root_inside_support(self):
        for y in (0.5, 2.0):
            law = AutocovLaw(y=y)
            lo, hi = autocov_support_lo(law), law.b1
            for x in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 25):
                assert autocov_lsd_density(float(x), law) > 0

    # y = 1 sits on the atom/no-atom boundary where the zero edge hardens to
    # an x^(-2/3) singularity, slowing the fixed-node oracle's convergence
    @pytest.mark.parametrize("y,tol", [(0.5, 1e-4), (1.0, 2e-3), (2.0, 1e-4)])
    def test_mass(self, y, tol):
        law = AutocovLaw(y=y)
        mass = gauss_legendre_mass(lambda x: autocov_lsd_density(x, law),
                                   autocov_support_lo(law), law.b1, nodes=2000)
        assert mass == pytest.approx(min(1.0, 1.0 / y), abs=tol)

    def test_mean(self):
        # first moment of the full LSD equals y (the atom contributes zero)
        law = AutocovLaw(y=0.5)
        mean = gauss_legendre_mass(lambda x: autocov_lsd_density(x, law),
                                   autocov_support_lo(law), law.b1, nodes=2000,
                                   weight=lambda x: x)
        assert mean == pytest.approx(0.5, abs=1e-5)


def t_by_quadrature(z, law):
    """T(z) = int t/(z-t) dmu(t) from the LSD's own density, fixed-node quadrature."""
    density = functools.cache(lambda x: autocov_lsd_density(x, law))
    return gauss_legendre_mass(density, autocov_support_lo(law), law.b1, nodes=2000,
                               weight=lambda t: t / (z - t))


class TestTTransform:
    """The closed-form inverse z(t) of the T-transform on (0, T(b1+))."""

    def test_domain(self):
        # z(t) maps (0, T(b1+)) onto (b1, inf) and rises again past the edge
        law = AutocovLaw(y=0.5)
        edge = autocov_t_edge_limit(law)
        for t in edge * np.array([1e-6, 0.1, 0.5, 0.999, 1.001, 2.0]):
            assert _z_of_t(float(t), law.y) > law.b1

    def test_vanishes_at_infinity(self):
        # T(z) -> 0 as z -> inf: z(t) grows like y / t near zero
        law = AutocovLaw(y=0.5)
        assert _z_of_t(1e-6, law.y) > 1e5
        assert _z_of_t(1e-300, law.y) == pytest.approx(0.5e300, rel=1e-12)

    def test_strictly_decreasing_positive(self):
        law = AutocovLaw(y=0.5)
        ts = autocov_t_edge_limit(law) * np.geomspace(1e-6, 0.999, 20)
        zs = [_z_of_t(float(t), law.y) for t in ts]
        assert all(z > law.b1 for z in zs)
        assert all(zs[i] > zs[i + 1] for i in range(len(zs) - 1))

    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_against_companion_root_oracle(self, y):
        law = AutocovLaw(y=y)
        for frac in (0.1, 0.4, 0.7):
            t = frac * autocov_t_edge_limit(law)
            assert t_companion_oracle(_z_of_t(t, y), law) == pytest.approx(t, abs=1e-6)

    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_against_density_quadrature(self, y):
        # the LSD's own density under independent fixed-node quadrature
        law = AutocovLaw(y=y)
        for frac in (0.1, 0.3, 0.6, 0.9):
            t = frac * autocov_t_edge_limit(law)
            assert t_by_quadrature(_z_of_t(t, y), law) == pytest.approx(t, rel=1e-7)

    @pytest.mark.parametrize("y", [0.05, 0.3, 0.5, 2.0, 5.0])
    def test_edge_limit_rises_toward_exact_edge(self, y):
        # as z falls to b1, T(z) rises to the edge, where z(t) has its minimum b1
        law = AutocovLaw(y=y)
        edge = autocov_t_edge_limit(law)
        assert edge == 2.0 / (1.0 + np.sqrt(1.0 + 8.0 * y))
        zs = [_z_of_t(float(t), y) for t in edge * (1.0 - np.geomspace(0.1, 1e-6, 6))]
        assert all(zs[i] > zs[i + 1] > law.b1 for i in range(len(zs) - 1))
        assert _z_of_t(edge, y) == pytest.approx(law.b1, rel=1e-14)

    def test_edge_limit_frozen(self):
        assert autocov_t_edge_limit(AutocovLaw(y=0.5)) == 0.6180339887498948
        assert autocov_t_edge_limit(AutocovLaw(y=2.0)) == pytest.approx(
            2.0 / (1.0 + math.sqrt(17.0)), rel=1e-15)


class TestT1:
    def test_frozen_values(self):
        law = AutocovLaw(y=0.5)
        assert autocov_t1(ar1_signature(0.6), law) == pytest.approx(0.07816964386949848, abs=1e-12)
        assert autocov_t1(ar1_signature(-0.5), law) == pytest.approx(0.12133302122353917, abs=1e-12)
        assert autocov_t1(ar1_signature(0.3), law) == pytest.approx(0.23670981481913228, abs=1e-12)

    def test_even_in_gamma1(self):
        # two factor signatures differing only in the sign of the lag-1
        # auto-covariance share the same critical value and limit
        law = AutocovLaw(y=0.5)
        assert autocov_t1(ar1_signature(0.5), law) == autocov_t1(ar1_signature(-0.5), law)

    def test_zero_gamma1_reduction(self):
        # with gamma1 = 0 the discriminant vanishes and T1 = sigma2 / gamma0
        law = AutocovLaw(y=0.7, sigma2=1.0)
        sig = FactorSignature(gamma0=3.0, gamma1=0.0)
        assert autocov_t1(sig, law) == pytest.approx(1.0 / 3.0, abs=1e-14)
        law2 = AutocovLaw(y=0.7, sigma2=2.0)
        assert autocov_t1(sig, law2) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_small_y_without_cancellation(self):
        # A and sqrt(disc) both tend to gamma1^2 as y -> 0; their difference
        # cancels to 0 at y = 1e-10, where T1 ~ y sigma^4 / gamma1^2
        sig = ar1_signature(0.5)
        assert autocov_t1(sig, AutocovLaw(y=1e-10)) == pytest.approx(5.6249999983e-11, rel=1e-10)

    def test_degenerate(self):
        # at gamma1^2 = gamma0^2 the first form is 0 / 0; the computed one
        # gives y sigma^4 / A, A = 2 y sigma^2 gamma0 + gamma0^2 = 6
        law = AutocovLaw(y=0.5)
        assert autocov_t1(FactorSignature(gamma0=2.0, gamma1=2.0), law) == pytest.approx(
            0.5 / 6.0, rel=1e-15)

    def test_signature_validation(self):
        with pytest.raises(ConfigurationError):
            FactorSignature(gamma0=-1.0, gamma1=0.0)
        with pytest.raises(ConfigurationError):
            FactorSignature(gamma0=1.0, gamma1=1.5)


class TestFactorLimit:
    def test_reported_limits_y_half(self):
        law = AutocovLaw(y=0.5)
        expected = {0.6: 7.726, -0.5: 5.496, 0.3: 3.613}
        for theta, beta in expected.items():
            fl = autocov_factor_limit(ar1_signature(theta), law)
            assert fl.identifiable
            assert fl.value == pytest.approx(beta, abs=1e-2)

    def test_reported_limits_y_two(self):
        law = AutocovLaw(y=2.0)
        expected = {0.6: 23.744, -0.5: 20.464, 0.3: 17.970}
        for theta, beta in expected.items():
            fl = autocov_factor_limit(ar1_signature(theta), law)
            assert fl.identifiable
            assert fl.value == pytest.approx(beta, abs=1e-2)

    def test_t_consistency(self):
        law = AutocovLaw(y=0.5)
        for theta in (0.6, 0.3):
            sig = ar1_signature(theta)
            fl = autocov_factor_limit(sig, law)
            assert t_by_quadrature(fl.value, law) == pytest.approx(
                autocov_t1(sig, law), abs=1e-6)

    def test_subcritical_sticks_to_edge(self):
        law = AutocovLaw(y=2.0)
        sig = ar1_signature(0.1)  # T1 above the edge limit
        assert autocov_t1(sig, law) >= autocov_t_edge_limit(law)
        fl = autocov_factor_limit(sig, law)
        assert not fl.identifiable
        assert fl.value == law.b1


class TestOraclePath:
    def test_oracle_reads_no_density(self, monkeypatch):
        # the cutoff and the factor limits are closed form, not quadrature of
        # the density, which needs a root of the Stieltjes cubic at every node
        def no_density(*args):
            raise AssertionError("the oracle path evaluated the density")
        monkeypatch.setattr(np, "roots", no_density)
        law = AutocovLaw(y=0.5)
        sigs = [ar1_signature(t) for t in (0.6, -0.5, 0.3)]
        assert autocov_identifiable_count(sigs, law) == 3
        assert autocov_factor_limit(sigs[0], law).value == pytest.approx(7.726, abs=1e-2)
        model = AutocovModel(p=300, T=600, theta=(0.6, -0.5, 0.3))
        assert model.true_order() == 3


class TestIdentifiableCount:
    def test_model_signatures(self):
        three = [ar1_signature(t) for t in (0.6, -0.5, 0.3)]
        six = [ar1_signature(0.5) for _ in range(6)]
        for y in (0.5, 2.0):
            law = AutocovLaw(y=y)
            assert autocov_identifiable_count(three, law) == 3
            assert autocov_identifiable_count(six, law) == 6

    def test_mixed(self):
        law = AutocovLaw(y=2.0)
        sigs = [ar1_signature(0.6), ar1_signature(0.1)]
        assert autocov_identifiable_count(sigs, law) == 1

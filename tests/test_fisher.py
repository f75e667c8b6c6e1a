import numpy as np
import pytest

from spikeorder.errors import ConfigurationError, SubcriticalSpikeError
from spikeorder.rmt import FisherLaw, spike_identifiable_count

from conftest import gauss_legendre_mass
from rmt_reference import fisher_lsd_density


class TestFisherLaw:
    def test_strong_spike_setting(self):
        # c = 0.2, y = 0.5: gamma = 2, h = sqrt(0.6)
        law = FisherLaw(c=0.2, y=0.5)
        assert law.gamma == pytest.approx(2.0)
        assert law.spike_threshold == pytest.approx(3.549193338482967, abs=1e-12)
        assert round(law.spike_threshold, 2) == 3.55
        assert law.upper_edge == pytest.approx(12.596773353931868, abs=1e-9)
        assert law.lower_edge == pytest.approx(0.20322664606813293, abs=1e-9)

    def test_weak_spike_setting(self):
        law = FisherLaw(c=0.5, y=0.2)
        assert law.spike_threshold == pytest.approx(2.2182458365518543, abs=1e-12)
        assert round(law.spike_threshold, 2) == 2.22
        # ((1 + sqrt(0.6)) / 0.8)^2
        assert law.upper_edge == pytest.approx(((1 + np.sqrt(0.6)) / 0.8) ** 2, abs=1e-12)

    def test_invariants(self):
        for c, y in ((0.2, 0.5), (0.5, 0.2), (1.5, 0.9)):
            law = FisherLaw(c=c, y=y)
            assert law.lower_edge < law.upper_edge
            assert law.gamma > 1.0
            # the spike threshold sits below the eigenvalue-scale upper edge
            assert law.spike_threshold < law.upper_edge
            # and above the pole of the spike map
            assert law.spike_threshold > law.gamma

    def test_y_range(self):
        with pytest.raises(ConfigurationError):
            FisherLaw(c=0.5, y=1.0)
        with pytest.raises(ConfigurationError):
            FisherLaw(c=0.5, y=0.0)


class TestDensity:
    @pytest.mark.parametrize("c,y", [(0.2, 0.5), (0.5, 0.2)])
    def test_mass_one(self, c, y):
        law = FisherLaw(c=c, y=y)
        mass = gauss_legendre_mass(lambda x: fisher_lsd_density(x, law),
                                   law.lower_edge, law.upper_edge)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_mass_scaled(self):
        law = FisherLaw(c=0.2, y=0.5, sigma2=2.5)
        mass = gauss_legendre_mass(lambda x: fisher_lsd_density(x, law),
                                   law.lower_edge, law.upper_edge)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_outside_support(self):
        law = FisherLaw(c=0.2, y=0.5)
        assert fisher_lsd_density(law.lower_edge - 0.05, law) == 0.0
        assert fisher_lsd_density(law.upper_edge + 0.05, law) == 0.0


class TestSpikeMap:
    def test_hand_values(self):
        law = FisherLaw(c=0.2, y=0.5)
        # psi(11) = 2 * 11 * 10.2 / 9, psi(6) = 2 * 6 * 5.2 / 4
        assert law.spike_map(11.0) == pytest.approx(2 * 11 * 10.2 / 9, abs=1e-12)
        assert law.spike_map(6.0) == pytest.approx(15.6, abs=1e-12)

    def test_continuity_at_threshold(self):
        law = FisherLaw(c=0.2, y=0.5)
        diffs = []
        for eps in (1e-2, 1e-4, 1e-6):
            lam = law.spike_threshold * (1.0 + eps)
            diffs.append(abs(law.spike_map(lam) - law.upper_edge))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-3

    def test_subcritical(self):
        law = FisherLaw(c=0.2, y=0.5)
        with pytest.raises(SubcriticalSpikeError):
            law.spike_map(law.spike_threshold)
        with pytest.raises(SubcriticalSpikeError):
            law.spike_map(2.0)

    def test_strictly_increasing(self):
        law = FisherLaw(c=0.5, y=0.2)
        xs = law.spike_threshold * (1.0 + np.linspace(1e-3, 4.0, 50))
        ys = [law.spike_map(x) for x in xs]
        assert all(ys[i] < ys[i + 1] for i in range(len(ys) - 1))

    def test_scale(self):
        base = FisherLaw(c=0.2, y=0.5, sigma2=1.0)
        scaled = FisherLaw(c=0.2, y=0.5, sigma2=3.0)
        assert scaled.spike_map(33.0) == pytest.approx(3.0 * base.spike_map(11.0))


class TestIdentifiableCount:
    def test_examples(self):
        assert spike_identifiable_count((11.0, 6.0, 6.0), FisherLaw(c=0.2, y=0.5)) == 3
        assert spike_identifiable_count((11.0, 3.0, 3.0), FisherLaw(c=0.5, y=0.2)) == 3
        assert spike_identifiable_count((2.0,), FisherLaw(c=0.2, y=0.5)) == 0

    def test_descending_required(self):
        with pytest.raises(ConfigurationError):
            spike_identifiable_count((3.0, 11.0), FisherLaw(c=0.2, y=0.5))

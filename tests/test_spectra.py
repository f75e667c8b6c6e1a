import ast
import ctypes
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import autocov_reference
import fisher_reference
import numpy as np
import population_reference
import pytest
from quadrature_reference import integrate_density
from rmt_reference import autocov_lsd_density, autocov_support_lo, fisher_lsd_density
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from spikeorder import rmt
from spikeorder import spectra as spectra_module
from spikeorder.errors import ConfigurationError, IngestionError, NumericalError
from spikeorder.rmt import AutocovLaw, FisherLaw, MpLaw, mp_cdf
from spikeorder.spectra import (
    AutocovModel,
    FisherModel,
    PopulationModel,
    Spectrum,
    _band_eigvals,
    _bidiagonal_top,
    _eigvals,
    _finish,
    at_size,
    ingest_spectrum,
    replicate,
    simulate,
)


def rng(seed):
    return np.random.default_rng(seed)


def ks_statistic(values, cdf):
    """Exact one-sample Kolmogorov-Smirnov distance."""
    v = np.sort(np.asarray(values))
    m = v.size
    stats = []
    for i, x in enumerate(v):
        f = cdf(float(x))
        stats.append(abs((i + 1) / m - f))
        stats.append(abs(i / m - f))
    return max(stats)


class TestSpectrumType:
    def test_validation(self):
        Spectrum(values=np.array([3.0, 2.0, 1.0]), p=3)
        with pytest.raises(ConfigurationError):
            Spectrum(values=np.array([1.0, 2.0]), p=2)  # ascending
        with pytest.raises(ConfigurationError):
            Spectrum(values=np.array([3.0, 1.0]), p=3)  # wrong length
        with pytest.raises(ConfigurationError):
            Spectrum(values=np.array([3.0, np.nan]), p=2)
        with pytest.raises(ConfigurationError):
            Spectrum(values=np.array([1.0, -0.5]), p=2)
        with pytest.raises(ConfigurationError):
            Spectrum(values=np.array([2.0, 1.0]), p=2, scale_power=3)

    def test_values_read_only(self):
        spec = Spectrum(values=np.array([3.0, 2.0, 1.0]), p=3)
        with pytest.raises(ValueError):
            spec.values[0] = 9.0


class TestPopulation:
    def test_determinism(self):
        model = PopulationModel(p=40, n=60, spikes=(8.0, 5.0))
        a = simulate(model, rng(123)).values
        b = simulate(model, rng(123)).values
        assert np.array_equal(a, b)

    def test_pure_noise_edge(self):
        spec = simulate(PopulationModel(p=400, n=400), rng(0))
        assert spec.values[0] == pytest.approx(4.0, rel=0.10)

    def test_spike_against_oracle(self):
        # single draws fluctuate ~10% at p = 50; compare the replication mean
        model = PopulationModel(p=50, n=200,
                                spikes=(259.72, 17.97, 11.04, 7.88, 4.82))
        tops = [simulate(model, rng(100 + s)).values[0] for s in range(50)]
        expected = rmt.MpLaw(c=0.25, sigma2=1.0).spike_map(259.72)
        assert np.mean(tops) == pytest.approx(expected, rel=0.05)

    def test_tall_case_zero_padding(self):
        spec = simulate(PopulationModel(p=30, n=10), rng(3))
        assert spec.p == 30
        assert np.sum(spec.values == 0.0) >= 20
        assert np.sum(spec.values > 0) <= 10

    @pytest.mark.parametrize("model", [
        PopulationModel(p=20, n=60, spikes=(9.0, 6.0, 4.0)),
        PopulationModel(p=30, n=30, spikes=(7.0, 6.0, 5.0, 4.0)),
        PopulationModel(p=40, n=15, spikes=(8.0, 5.0)),
        PopulationModel(p=12, n=3, spikes=(9.0, 7.0, 5.0, 3.0)),
        PopulationModel(p=20, n=30),
        PopulationModel(p=15, n=40, spikes=(9.0, 5.0), sigma2=2.0),
    ], ids=["p<n", "p=n", "p>n", "n<q", "pure", "sigma2"])
    def test_documented_draw_order(self, model):
        # B rebuilt densely in the documented draw order (diagonal chis, r-th
        # subdiagonal chis, normals column by column, those below row p - 1
        # dropped), its rows scaled; a dense solve of B'B / n agrees to rounding
        p, n, q = model.p, model.n, len(model.spikes)
        r, m = max(q, 1), min(p, n)
        g = rng(17)
        B = np.zeros((m + r, m))
        B[np.arange(m), np.arange(m)] = np.sqrt(g.chisquare(n - np.arange(m)))
        k = min(m, p - r)
        B[np.arange(k) + r, np.arange(k)] = np.sqrt(g.chisquare(p - r - np.arange(k)))
        cols, offsets = np.divmod(np.arange(m * (r - 1)), r - 1)
        B[cols + offsets + 1, cols] = g.standard_normal(cols.size)
        B = B[:p] * np.sqrt([*model.spikes] + [model.sigma2] * (p - q))[:min(p, m + r), None]
        w = np.linalg.eigvalsh(B.T @ B / n)
        expected = _finish(w, p)
        got = simulate(model, rng(17)).values
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12 * expected[0])

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            PopulationModel(p=10, n=1)
        with pytest.raises(ConfigurationError):
            PopulationModel(p=3, n=10, spikes=(5.0, 4.0))
        with pytest.raises(ConfigurationError):
            PopulationModel(p=10, n=10, spikes=(0.5,))  # below sigma2
        with pytest.raises(ConfigurationError):
            PopulationModel(p=10, n=10, spikes=(4.0, 5.0))  # ascending

    def test_bulk_law_ks(self):
        spec = simulate(PopulationModel(p=400, n=800), rng(11))
        law = MpLaw(c=0.5)
        ks = ks_statistic(spec.values[5:], lambda x: mp_cdf(x, law))
        assert ks <= 0.05


class TestFisher:
    def test_determinism(self):
        model = FisherModel(p=30, n=60, T=80, alpha=(10.0, 5.0, 5.0))
        a = simulate(model, rng(5)).values
        b = simulate(model, rng(5)).values
        assert np.array_equal(a, b)

    def test_all_positive(self):
        spec = simulate(FisherModel(p=40, n=90, T=90), rng(2))
        assert np.all(spec.values > 0)

    def test_pure_noise_edge(self):
        spec = simulate(FisherModel(p=200, n=400, T=1000), rng(4))
        law = FisherLaw(c=0.5, y=0.2)
        assert spec.values[0] == pytest.approx(law.upper_edge, rel=0.10)

    # Finite-size reference at (p, n, T) = (50, 250, 100), alpha (10, 5, 5):
    # (mean, standard deviation) of l1 and of the equal pair's mean
    # (l2 + l3) / 2 over 8,000 dense-generator replications
    # (``replicate(..., seed=20191031, reps=8000)``).  At this size l1 sits
    # 8% above its limit psi(11) = 24.93 and the pair 7% below psi(6) = 15.6,
    # so the limits are no reference for a 40-replication mean.
    FINITE_SIZE = {"l1": (26.998, 5.524), "pair": (14.498, 1.866)}
    FINITE_SIZE_REPS = 8000
    # The same at (250, 1250, 500), same seed and count: there the means sit
    # within 2% of the limits, which a 10-replication mean (sd 0.76 for l1)
    # cannot show at a fixed 5% tolerance.
    FINITE_SIZE_BIG = {"l1": (25.340, 2.401), "pair": (15.417, 0.937)}

    def check_means(self, model, reps, reference):
        # the equal pair splits into order statistics, so compare its mean.
        # The replication mean must sit within 3.5 standard errors of the
        # finite-size reference: the spread of both means sets the tolerance
        tops = np.array([simulate(model, rng(300 + s)).values[:3]
                         for s in range(reps)]).mean(axis=0)
        for name, got in (("l1", tops[0]), ("pair", 0.5 * (tops[1] + tops[2]))):
            mean, sd = reference[name]
            tol = 3.5 * sd * np.sqrt(1.0 / reps + 1.0 / self.FINITE_SIZE_REPS)
            assert abs(got - mean) <= tol, f"{name}: {got:.3f} vs {mean} +- {tol:.3f}"

    def test_spikes_against_oracle(self):
        model = FisherModel(p=50, n=250, T=100, alpha=(10.0, 5.0, 5.0))
        assert model.spikes == (11.0, 6.0, 6.0)
        self.check_means(model, 40, self.FINITE_SIZE)
        # at full size the limits hold
        law = FisherLaw(c=0.2, y=0.5)
        psi_11 = law.spike_map(11.0)
        psi_6 = law.spike_map(6.0)
        assert self.FINITE_SIZE_BIG["l1"][0] == pytest.approx(psi_11, rel=0.02)
        assert self.FINITE_SIZE_BIG["pair"][0] == pytest.approx(psi_6, rel=0.02)
        big = FisherModel(p=250, n=1250, T=500, alpha=(10.0, 5.0, 5.0))
        self.check_means(big, 10, self.FINITE_SIZE_BIG)

    def test_generalized_matches_dense(self):
        # symmetric-definite pencil route vs dense S1 S2^{-1} on small instances
        g = rng(9)
        for p in (3, 5, 6):
            X = g.standard_normal((p, 40))
            E = g.standard_normal((p, 50))
            S1 = X @ X.T / 40
            S2 = E @ E.T / 50
            w_gen = linalg.eigh(S1, S2, eigvals_only=True)
            w_dense = np.sort(np.linalg.eigvals(S1 @ np.linalg.inv(S2)).real)
            assert np.allclose(w_gen, w_dense, atol=1e-10)

    def test_scaled_noise_spikes(self):
        # Sigma1 = sigma2 Sigma2 + Delta lifts the base level to sigma2
        model = FisherModel(p=40, n=200, T=100, alpha=(10.0, 5.0, 5.0), sigma2=2.0)
        assert model.spikes == (12.0, 7.0, 7.0)
        spec = simulate(model, rng(43))
        law = FisherLaw(c=0.2, y=0.4, sigma2=2.0)
        assert spec.values[0] > law.upper_edge

    PENCIL_CASES = pytest.mark.parametrize("model", [
        FisherModel(p=40, n=90, T=120),
        FisherModel(p=40, n=90, T=120, alpha=(10.0, 5.0, 5.0)),
        FisherModel(p=40, n=90, T=120, alpha=(10.0, 5.0, 5.0), sigma2=1.5,
                    noise_diag=(0.5, 3.0)),
        FisherModel(p=40, n=25, T=120, alpha=(10.0, 5.0, 5.0)),  # singular S1
    ], ids=["pure", "spiked", "unequal_noise", "n_below_p"])

    @PENCIL_CASES
    def test_documented_draw_order(self, model):
        # K and L rebuilt in the documented draw order (K's chi diagonal, K's
        # normals row by row, then L's), F^2 = diag(spikes, sigma2, ...); a
        # separate pencil solve agrees to rounding
        p, n, T = model.p, model.n, model.T
        g = rng(17)

        def bartlett(df):
            m = min(p, df)
            K = np.zeros((p, m))
            K[np.arange(m), np.arange(m)] = np.sqrt(g.chisquare(df - np.arange(m)))
            rows, cols = np.tril_indices(p, -1, m)
            K[rows, cols] = g.standard_normal(rows.size)
            return K

        K, L = bartlett(n), bartlett(T)
        F = np.diag(np.sqrt([*model.spikes] + [model.sigma2] * (p - len(model.spikes))))
        w = linalg.eigh(F @ K @ K.T @ F / n, L @ L.T / T, eigvals_only=True)
        expected = _finish(w, p)
        got = simulate(model, rng(17)).values
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12 * expected[0])

    @PENCIL_CASES
    def test_bits_match_generalized_eigh(self, model):
        # the dense reference: S1 and S2 rebuilt in its documented draw order,
        # signal factors u, signal noise, then the pure-noise sample behind S2
        p, n, T = model.p, model.n, model.T
        g = rng(17)
        d = np.where(np.arange(p) < p // 2, *model.noise_diag)
        u = g.standard_normal((3, n)) if model.alpha else None
        X = g.standard_normal((p, n)) * np.sqrt(model.sigma2 * d)[:, None]
        if u is not None:
            a1, a2, a3 = model.alpha
            A = np.zeros((p, 3))
            A[0, 0] = np.sqrt(a1)
            A[1:3, 1] = np.sqrt(a2 / 2)
            A[1:3, 2] = np.sqrt(a3 / 2) * np.array([1.0, -1.0])
            X += A @ u
        E = g.standard_normal((p, T)) * np.sqrt(d)[:, None]
        w = linalg.eigh(X @ X.T / n, E @ E.T / T, eigvals_only=True)
        expected = _finish(w, p)
        got = fisher_reference.simulate_fisher(model, rng(17)).values
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("damage", ["zero_row", "scaled_row"])
    def test_singular_noise_raises(self, damage):
        # the dense reference guards S2 by its Cholesky factor; the draw behind
        # S2 is (p, T), the others are (3, n) and (p, n)
        p, n, T = 30, 60, 80

        class NoiseStub:
            def __init__(self):
                self._g = rng(21)

            def standard_normal(self, shape):
                draw = self._g.standard_normal(shape)
                if shape == (p, T):
                    draw[-1] *= 0.0 if damage == "zero_row" else 1e-7
                return draw

        for alpha in ((), (10.0, 5.0, 5.0)):
            with pytest.raises(fisher_reference.SingularMatrixError):
                fisher_reference.simulate_fisher(FisherModel(p=p, n=n, T=T, alpha=alpha),
                                                 NoiseStub())

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            FisherModel(p=50, n=100, T=50)  # T <= p
        with pytest.raises(ConfigurationError):
            FisherModel(p=50, n=100, T=100, alpha=(1.0, 2.0))  # bad length
        for noise_diag in ((1.0,), (1.0, 2.0, 3.0)):
            # one entry failed with an IndexError when alpha was set; a third was ignored
            with pytest.raises(ConfigurationError, match="noise_diag"):
                FisherModel(p=50, n=100, T=200, noise_diag=noise_diag)

    def test_unequal_noise_needs_p6(self):
        # at p = 5 the d1 block is coordinates 0-1, so the loading on
        # coordinate 2 would see d2 and the reported spikes would be wrong
        with pytest.raises(ConfigurationError):
            FisherModel(p=5, n=50, T=60, alpha=(10.0, 5.0, 5.0), noise_diag=(1.0, 2.0))
        assert FisherModel(p=5, n=50, T=60, alpha=(10.0, 5.0, 5.0),
                           noise_diag=(2.0, 2.0)).spikes == (6.0, 3.5, 3.5)
        assert FisherModel(p=6, n=50, T=60, alpha=(10.0, 5.0, 5.0)).spikes == (11.0, 6.0, 6.0)
        FisherModel(p=5, n=50, T=60)  # pure noise has no loadings

    def test_bulk_law_ks(self):
        spec = simulate(FisherModel(p=400, n=2000, T=800), rng(13))
        law = FisherLaw(c=0.2, y=0.5)

        def cdf(x):
            return integrate_density(lambda t: fisher_lsd_density(t, law),
                                     law.lower_edge, law.upper_edge, upto=x)

        ks = ks_statistic(spec.values[5:], cdf)
        assert ks <= 0.05


class TestAutocov:
    def test_determinism(self):
        model = AutocovModel(p=30, T=50, theta=(0.6, -0.5), gamma_diag=(2.0, 2.0))
        a = simulate(model, rng(17)).values
        b = simulate(model, rng(17)).values
        assert np.array_equal(a, b)

    def test_pure_noise_edge(self):
        spec = simulate(AutocovModel(p=400, T=800), rng(19))
        assert spec.values[0] == pytest.approx(AutocovLaw(y=0.5).b1, rel=0.10)
        assert spec.scale_power == 2

    def test_factor_limits(self):
        model = AutocovModel(p=500, T=1000, theta=(0.6, -0.5, 0.3),
                             gamma_diag=(2.0, 2.0, 2.0))
        tops = np.array([simulate(model, rng(1000 + s)).values[:3]
                         for s in range(40)]).mean(axis=0)
        for i, beta in enumerate((7.726, 5.496, 3.613)):
            assert tops[i] == pytest.approx(beta, rel=0.05)

    def test_matches_squared_singular_values(self):
        # eigenvalues of M equal squared singular values of Sigma
        g = rng(31)
        p, T, q = 50, 80, 2
        e = g.standard_normal((q, T + 1)) * np.sqrt(2.0)
        x = np.empty_like(e)
        from scipy import signal
        for i, th in enumerate((0.6, -0.5)):
            x[i] = signal.lfilter([1.0], [1.0, -th], e[i])
        Y = g.standard_normal((p, T + 1))
        Y[:q] += x
        Sig = Y[:, 1:] @ Y[:, :-1].T / T
        w_eig = np.sort(np.linalg.eigvalsh(Sig @ Sig.T))[::-1]
        w_svd = np.sort(np.linalg.svd(Sig, compute_uv=False) ** 2)[::-1]
        assert np.allclose(w_eig, w_svd, atol=1e-10)

    # the factors go through scipy.signal's private C filter: a scipy that
    # changes it must fail here, not silently re-realize every autocov draw
    @pytest.mark.parametrize("size", [1, 2, 1601])
    def test_filter_is_lfilter(self, size):
        from scipy import signal
        e = rng(size).standard_normal(size) * np.sqrt(2.0)
        for th in (0.999, -0.999, -0.95, -0.5, 0.0, 0.3, 0.6, 0.9):
            x = spectra_module._sigtools._linear_filter(np.ones(1), np.array([1.0, -th]), e, -1)
            assert np.array_equal(x, signal.lfilter([1.0], [1.0, -th], e)), th

    def test_draw_matches_lfilter_reference(self):
        from scipy import signal
        theta = (0.999, -0.999, 0.0, 0.6)
        model = AutocovModel(p=12, T=30, theta=theta, gamma_diag=2.0)
        g = rng(5)
        e = g.standard_normal((4, 31)) * np.sqrt(2.0)
        e[:, 0] /= np.sqrt(1.0 - np.square(theta))  # the stationary start
        Y = g.standard_normal((12, 31))
        Y[:4] += [signal.lfilter([1.0], [1.0, -th], row) for th, row in zip(theta, e)]
        Sig = Y[:, 1:] @ Y[:, :-1].T / 30
        assert np.array_equal(model.draw(rng(5)), spectra_module._eigvals(Sig @ Sig.T, 12))

    def test_first_value_has_stationary_variance(self, monkeypatch):
        # the first of the T + 1 values of each factor series, read through
        # draw's own filter call, at theta = 0.999, where a path started at
        # zero has only 1 - theta^2002 = 0.865 of the stationary variance
        # even after 1000 steps
        q, T = 50, 3
        real, firsts = spectra_module._sigtools, []

        def recording(b, a, x, axis):
            out = real._linear_filter(b, a, x, axis)
            firsts.append(out[-(T + 1)])
            return out

        monkeypatch.setattr(spectra_module, "_sigtools",
                            types.SimpleNamespace(_linear_filter=recording))
        model = AutocovModel(p=q + 2, T=T, theta=(0.999,) * q, gamma_diag=2.0)
        g = rng(43)
        for _ in range(400):
            model.draw(g)
        # 20,000 values of mean 0: the ratio's standard deviation is 0.01
        ratio = np.mean(np.square(firsts)) / model.signatures[0].gamma0
        assert len(firsts) == 20_000 and abs(ratio - 1.0) < 0.05, ratio

    def test_tall_ratio_edge_and_rank(self):
        # y = 2: rank T leaves p - T eigenvalues at solver-noise level and
        # the top sits near b1
        spec = simulate(AutocovModel(p=400, T=200), rng(37))
        law = AutocovLaw(y=2.0)
        assert spec.values[0] == pytest.approx(law.b1, rel=0.10)
        assert np.sum(spec.values < 1e-8) >= 200

    def test_scaled_noise(self):
        # eigenvalues of M scale with sigma^4
        base = simulate(AutocovModel(p=200, T=400), rng(41))
        scaled = simulate(AutocovModel(p=200, T=400, sigma2=2.0), rng(41))
        assert scaled.values[0] == pytest.approx(4.0 * base.values[0], rel=1e-10)

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            AutocovModel(p=10, T=2)
        with pytest.raises(ConfigurationError):
            AutocovModel(p=10, T=50, theta=(1.0,))
        with pytest.raises(ConfigurationError):
            AutocovModel(p=10, T=50, theta=(0.5,), gamma_diag=(1.0, 2.0))

    def test_signatures(self):
        model = AutocovModel(p=10, T=50, theta=(0.6,), gamma_diag=(2.0,))
        sig = model.signatures[0]
        assert sig.gamma0 == pytest.approx(3.125)
        assert sig.gamma1 == pytest.approx(1.875)

    def test_bulk_law_ks(self):
        spec = simulate(AutocovModel(p=400, T=800), rng(29))
        law = AutocovLaw(y=0.5)

        def cdf(x):
            return integrate_density(lambda t: autocov_lsd_density(t, law),
                                     autocov_support_lo(law), law.b1, upto=x)

        ks = ks_statistic(spec.values[5:], cdf)
        assert ks <= 0.05


class TestDispatch:
    def test_simulate_dispatch(self):
        for model in (PopulationModel(p=10, n=12), FisherModel(p=10, n=12, T=30),
                      AutocovModel(p=10, T=20)):
            spec = simulate(model, rng(0))
            assert (spec.p, spec.n, spec.scale_power) == (model.p, model.count, model.scale_power)
            assert np.array_equal(spec.values, model.draw(rng(0)))
        with pytest.raises(ConfigurationError):
            simulate(object(), rng(0))

    def test_at_size(self):
        model = PopulationModel(p=10, n=10, spikes=(5.0,))
        assert at_size(model, 20, 40) == PopulationModel(p=20, n=40, spikes=(5.0,))
        assert at_size("autocov", 10, n=99, T=20) == AutocovModel(p=10, T=20)
        with pytest.raises(ConfigurationError):
            at_size("fisher", 10, n=40)  # no T
        with pytest.raises(ConfigurationError):
            at_size("nope", 10, n=40, T=40)
        with pytest.raises(ConfigurationError):
            at_size(object(), 10, n=40, T=40)


class TestEigensolver:
    """``_eigvals``, the dsyevd binding behind the Fisher and auto-covariance
    generators and the dense population reference."""

    @staticmethod
    def matrix(case):
        """(matrix, p): a population covariance, a p > n Gram, an autocov M,
        large enough for the blocked tridiagonal reduction."""
        g = rng(5)
        if case == "population":
            X = g.standard_normal((150, 300)) * np.sqrt([9.0, 4.0] + [1.0] * 148)[:, None]
            return X @ X.T / 300, 150
        if case == "gram":
            X = g.standard_normal((200, 100))
            return X.T @ X / 100, 200
        Y = g.standard_normal((120, 241))
        Sig = Y[:, 1:] @ Y[:, :-1].T / 240
        return Sig @ Sig.T, 120

    @pytest.mark.parametrize("case", ["population", "gram", "autocov"])
    def test_matches_eigvalsh(self, case):
        A, p = self.matrix(case)
        expected = np.sort(np.linalg.eigvalsh(A))[::-1]
        expected = np.concatenate([expected, np.zeros(p - expected.size)])
        got = _eigvals(A.copy(), p)
        assert got.shape == (p,) and np.all(np.diff(got) <= 0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * expected[0])

    def test_nan_raises(self):
        A, p = self.matrix("population")
        A[3, 3] = np.nan
        with pytest.raises(NumericalError, match="LAPACK info"):
            _eigvals(A, p)

    def test_non_finite_eigenvalue_raises(self):
        # at these seeds the overflowing pencil solves with LAPACK info 0 and
        # an infinite eigenvalue; that is a numerical failure like info != 0
        model = FisherModel(p=10, n=20, T=40, alpha=(1.7e308, 1e308, 1e308), sigma2=1e300)
        for seed in (0, 2):
            _, error = replicate(lambda g: simulate(model, g), seed=seed, reps=1)
            assert isinstance(error, NumericalError), error


class TestBandEigensolver:
    """``_band_eigvals``, the dsbevd binding behind the population generator."""

    @staticmethod
    def band(rows, m, r, p):
        """(B'B, its lower band as the C-ordered (m, kd + 1) array, p) for a random
        lower-banded B, rows x m with half-bandwidth r: kd = min(r, m - 1)."""
        B = np.tril(np.triu(rng(5).standard_normal((rows, m)) + 3 * np.eye(rows, m), -r))
        A, kd = B.T @ B, min(r, m - 1)
        ab = np.zeros((m, kd + 1))
        for d in range(kd + 1):
            ab[:m - d, d] = np.diagonal(A, -d)
        return A, ab, p

    CASES = {"p<n": (50, 50, 4, 50), "p>n": (64, 60, 4, 120), "n<q": (7, 3, 4, 12),
             "bidiagonal": (31, 30, 1, 31), "wide": (200, 200, 6, 200)}

    @pytest.mark.parametrize("case", CASES)
    def test_matches_eigvalsh(self, case):
        A, ab, p = self.band(*self.CASES[case])
        expected = np.sort(np.linalg.eigvalsh(A))[::-1]
        expected = np.concatenate([expected, np.zeros(p - expected.size)])
        got = _band_eigvals(ab, p)
        assert got.shape == (p,) and np.all(np.diff(got) <= 0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * expected[0])

    @pytest.mark.parametrize("entry", [(3, 0), (10, 2)], ids=["diagonal", "subdiagonal"])
    def test_nan_raises(self, entry):
        _, ab, p = self.band(*self.CASES["p<n"])
        ab[entry] = np.nan
        with pytest.raises(NumericalError, match="LAPACK info"):
            _band_eigvals(ab, p)


class TestBisection:
    """``_bidiagonal_top``, the dstebz binding behind both ``noise_top`` samplers."""

    @staticmethod
    def squares(m):
        """(d2, e2): squared diagonal and off-diagonal of a beta-Laguerre bidiagonal."""
        g = rng(9)
        return g.chisquare(2 * m - np.arange(m)), g.chisquare(m - 1 - np.arange(m - 1))

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 50, 250])
    def test_matches_scipy_bit_for_bit(self, m, k):
        # scipy's f2py stebz is the reference; m = 1 is its quick exit, m < k is padded
        d2, e2 = self.squares(m)
        diag = d2.copy()
        diag[1:] += e2
        w = linalg.eigvalsh_tridiagonal(diag, np.sqrt(d2[:-1] * e2), select="i",
                                        select_range=(max(m - k, 0), m - 1))
        expected = np.concatenate([w[::-1], np.zeros(max(k - m, 0))])
        assert np.array_equal(_bidiagonal_top(d2, e2, k), expected)

    @pytest.mark.parametrize("part, entry, value", [
        ("d2", 3, math.nan), ("e2", 10, math.nan), ("d2", 0, math.inf)])
    def test_nan_raises(self, part, entry, value):
        d2, e2 = self.squares(50)
        {"d2": d2, "e2": e2}[part][entry] = value
        with pytest.raises(NumericalError, match="LAPACK info"):
            _bidiagonal_top(d2, e2, 3)


def test_lapack_only_through_cython_api():
    # scipy.linalg's f2py wrappers hold the GIL while LAPACK runs, so every
    # solver goes through spectra._lapack and the Cython API's function
    # pointers, whose extension is loaded from its file: spectra.py imports
    # nothing of scipy.linalg by name, and nothing of scipy.signal (which
    # loads scipy.stats), whose C filter is loaded the same way
    nodes = list(ast.walk(ast.parse(Path(spectra_module.__file__).read_text())))
    imported = [f"{node.module}.{alias.name}" for node in nodes
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    imported += [alias.name for node in nodes if isinstance(node, ast.Import)
                 for alias in node.names]
    attributes = {ast.unparse(node) for node in nodes if isinstance(node, ast.Attribute)}
    for package in ("scipy.linalg", "scipy.signal"):
        assert not [name for name in imported if name.startswith(package)]
        assert not [name for name in attributes if name.startswith(package)]
    for name in ("dsyevd", "dsbevd", "dstebz", "dsygst"):
        assert ctypes.cast(spectra_module._lapack(name), ctypes.c_void_p).value


# the same function pointer whichever of the two loads the extension first
CAPSULE_POINTERS = """
import ctypes, importlib, sys
importlib.import_module(sys.argv[1])
linalg_loaded = "scipy.linalg" in sys.modules
from scipy.linalg import cython_lapack
from spikeorder import spectra
api = ctypes.pythonapi
api.PyCapsule_GetName.restype, api.PyCapsule_GetName.argtypes = ctypes.c_char_p, [ctypes.py_object]
api.PyCapsule_GetPointer.restype = ctypes.c_void_p
api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
capsule = cython_lapack.__pyx_capi__["dsyevd"]
print(linalg_loaded, spectra.cython_lapack is cython_lapack,
      api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
      == ctypes.cast(spectra._dsyevd, ctypes.c_void_p).value)
"""


def run_fresh(code, *args):
    """stdout of ``code`` in a fresh interpreter that imports this checkout's spikeorder."""
    src = str(Path(spectra_module.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path}, check=True,
                          capture_output=True, text=True, timeout=120).stdout


@pytest.mark.parametrize("first", ["spikeorder.spectra", "scipy.linalg"])
def test_cython_lapack_load_order(first):
    out = run_fresh(CAPSULE_POINTERS, first)
    assert out.split() == [str(first == "scipy.linalg"), "True", "True"]


# the same filter module whichever of the two loads the extension first
SIGTOOLS = """
import importlib, sys
importlib.import_module(sys.argv[1])
signal_loaded = "scipy.signal" in sys.modules
from scipy.signal import _sigtools
from spikeorder import spectra
print(signal_loaded, spectra._sigtools is _sigtools)
"""


@pytest.mark.parametrize("first", ["spikeorder.spectra", "scipy.signal"])
def test_sigtools_load_order(first):
    assert run_fresh(SIGTOOLS, first).split() == [str(first == "scipy.signal"), "True"]


def test_missing_extension_is_import_error():
    with pytest.raises(ImportError, match="scipy/signal/_nosuch"):
        spectra_module._load_extension("signal", "_nosuch")


NAN, INF = math.nan, math.inf
# a model field: a moderate positive float first, as one_of favours its first
# branch and many builds should succeed, then any moderate float (zero and
# negatives included), then the non-finite values; overflow of extreme
# finite values is a separate matter
SPECIAL = st.sampled_from([NAN, INF, -INF])
FIELD = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3), SPECIAL)
# the floats next to +-1 give the stationary start's largest scaling of the
# first innovation, 1 / sqrt(1 - theta^2) = 6.7e7
THETA = st.one_of(st.floats(-1.5, 1.5),
                  st.sampled_from([math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0)]),
                  SPECIAL)


def fields_of(field, size):
    return st.lists(field, min_size=size, max_size=size).map(tuple)


FIELDS = {
    "population": st.fixed_dictionaries({
        "spikes": st.lists(FIELD, max_size=2).map(tuple), "sigma2": FIELD}),
    "fisher": st.fixed_dictionaries({
        "alpha": st.sampled_from([0, 3]).flatmap(lambda q: fields_of(FIELD, q)),
        "sigma2": FIELD, "noise_diag": fields_of(FIELD, 2)}),
    "autocov": st.integers(0, 2).flatmap(lambda q: st.fixed_dictionaries({
        "theta": fields_of(THETA, q), "gamma_diag": fields_of(FIELD, q),
        "sigma2": FIELD})),
}


class TestModelFields:
    @pytest.mark.parametrize("kind, fields", [
        ("population", {"spikes": (NAN,)}),
        ("population", {"sigma2": NAN}),
        ("population", {"sigma2": INF}),
        ("fisher", {"alpha": (NAN, 5.0, 5.0)}),
        ("fisher", {"noise_diag": (INF, 1.0)}),
        ("fisher", {"sigma2": NAN}),
        ("autocov", {"theta": (0.5,), "gamma_diag": (INF,)}),
        ("autocov", {"sigma2": NAN}),
        ("autocov", {"theta": (NAN,)}),
    ])
    def test_non_finite_rejected(self, kind, fields):
        # each built a model whose every draw failed in the eigensolver
        with pytest.raises(ConfigurationError, match="finite"):
            at_size(kind, 30, n=60, T=80, **fields)

    def test_negative_alpha_rejected(self):
        # sqrt(alpha) would put NaN into every draw
        with pytest.raises(ConfigurationError, match="nonnegative"):
            FisherModel(p=30, n=60, T=80, alpha=(-10.0, 5.0, 5.0))
        assert FisherModel(p=30, n=60, T=80, alpha=(10.0, 0.0, 0.0)).spikes[1] == 1.0

    @pytest.mark.parametrize("kind", FIELDS)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_build_rejects_or_draws_valid_spectrum(self, kind, data):
        p = data.draw(st.integers(1, 10), label="p")
        n = data.draw(st.integers(1, 12), label="n")
        T = data.draw(st.integers(p - 2, p + 10), label="T")
        fields = data.draw(FIELDS[kind], label="fields")
        try:
            model = at_size(kind, p, n=n, T=T, **fields)
        except ConfigurationError:
            return
        values = simulate(model, rng(0)).values
        assert values.shape == (p,) and np.all(np.isfinite(values))
        assert np.all(np.diff(values) <= 0) and values[-1] >= 0
        top = model.noise_top(rng(0))  # down to p or min(p, n) < 3
        assert top.shape == (3,) and np.all(np.isfinite(top))
        assert np.all(np.diff(top) <= 0) and top[-1] >= 0


class TestNoiseTop:
    """The bidiagonal pure-noise samplers against the dense reference generators."""

    # p < n, p > n, min(p, n) < 3 and Fisher n < p; the sigma2 cases check the
    # scale, the unequal noise_diag case that a common congruence drops out
    CASES = {
        "pop-6-10": PopulationModel(p=6, n=10),
        "pop-10-6": PopulationModel(p=10, n=6),
        "pop-3-2": PopulationModel(p=3, n=2),
        "pop-6-10-sigma2": PopulationModel(p=6, n=10, sigma2=2.0),
        "fisher-6-10-12": FisherModel(p=6, n=10, T=12),
        "fisher-6-4-12": FisherModel(p=6, n=4, T=12),
        "fisher-40-60-80": FisherModel(p=40, n=60, T=80),
        "fisher-6-10-12-sigma2-diag": FisherModel(p=6, n=10, T=12, sigma2=2.0,
                                                   noise_diag=(1.0, 3.0)),
    }
    DRAWS = 2000
    LEVEL = 1e-3  # two-sample KS, fixed before looking

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense(self, case):
        from scipy.stats import ks_2samp
        model = self.CASES[case]
        dense_rng, model_rng = rng(11), rng(12)
        generate = (fisher_reference.simulate_fisher if model.kind == "fisher"
                    else population_reference.simulate_population)
        dense = np.array([generate(model, dense_rng).values[:3] for _ in range(self.DRAWS)])
        top = np.array([model.noise_top(model_rng) for _ in range(self.DRAWS)])
        for name, stat in (("l1", lambda v: v[:, 0]), ("l1 - l2", lambda v: v[:, 0] - v[:, 1]),
                           ("l3", lambda v: v[:, 2])):
            pvalue = ks_2samp(stat(dense), stat(top)).pvalue
            assert pvalue > self.LEVEL, f"{name}: KS p = {pvalue:.2g}"

    @pytest.mark.parametrize("model, nonzero", [
        (PopulationModel(p=3, n=2), 2),
        (PopulationModel(p=8, n=20), 5),
        (FisherModel(p=6, n=2, T=12), 2),
        (FisherModel(p=6, n=10, T=12), 5),
        (AutocovModel(p=2, T=5), 2),
        (AutocovModel(p=8, T=20), 5),
    ])
    def test_descending_and_zero_padded(self, model, nonzero):
        top = model.noise_top(rng(0), k=5)
        assert top.shape == (5,)
        assert np.all(np.diff(top) <= 0)
        assert np.all(top[:nonzero] > 0) and np.all(top[nonzero:] == 0)

    def test_autocov_is_the_dense_draw(self):
        # simulate's floats, so autocov calibration cache files keep their bytes
        model = AutocovModel(p=30, T=60)
        assert np.array_equal(model.noise_top(rng(3)), simulate(model, rng(3)).values[:3])

    def test_spikes_do_not_enter(self):
        spiked = PopulationModel(p=8, n=20, spikes=(9.0,))
        fisher = FisherModel(p=8, n=20, T=30, alpha=(10.0, 5.0, 5.0))
        for model in (spiked, fisher):
            noise = at_size(model.kind, model.p, model.n, getattr(model, "T", None))
            assert np.array_equal(model.noise_top(rng(3)), noise.noise_top(rng(3)))


class TestFisherBartlett:
    """The whitened Bartlett Fisher generator against the dense reference."""

    # p < n, n < p (K trapezoidal), pure noise, unequal noise_diag with
    # sigma2 != 1 (every other case has the default noise_diag (1, 2)), a
    # larger spiked case, and unequal alpha2, alpha3, whose loadings on
    # coordinates 2 and 3 do not diagonalize without the rotation
    CASES = {
        "p-below-n": FisherModel(p=8, n=12, T=20, alpha=(10.0, 5.0, 5.0)),
        "n-below-p": FisherModel(p=8, n=5, T=20, alpha=(10.0, 5.0, 5.0)),
        "pure-noise": FisherModel(p=8, n=12, T=20),
        "sigma2-diag": FisherModel(p=8, n=12, T=20, alpha=(10.0, 5.0, 5.0), sigma2=1.5,
                                   noise_diag=(0.5, 3.0)),
        "40-60-80": FisherModel(p=40, n=60, T=80, alpha=(10.0, 5.0, 5.0)),
        "unequal-alpha": FisherModel(p=8, n=12, T=20, alpha=(10.0, 6.0, 2.0)),
    }
    DRAWS = 2000
    LEVEL = 1e-3  # two-sample KS, fixed before looking
    STATS = {"l1": lambda v: v[:, 0], "l2": lambda v: v[:, 1], "l4": lambda v: v[:, 3],
             "l3 - l4": lambda v: v[:, 2] - v[:, 3]}

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense(self, case):
        from scipy.stats import ks_2samp
        model = self.CASES[case]
        dense_rng, bartlett_rng = rng(21), rng(22)
        dense = np.array([fisher_reference.simulate_fisher(model, dense_rng).values[:4]
                          for _ in range(self.DRAWS)])
        drawn = np.array([simulate(model, bartlett_rng).values[:4]
                          for _ in range(self.DRAWS)])
        for name, stat in self.STATS.items():
            pvalue = ks_2samp(stat(dense), stat(drawn)).pvalue
            assert pvalue > self.LEVEL, f"{name}: KS p = {pvalue:.2g}"


class TestPopulationBanded:
    """The banded population generator against the dense reference."""

    # p < n, p = n, p > n, n < q (B'B narrower than the band), pure noise
    # (r = 1, the bidiagonal) and sigma2 != 1
    CASES = {
        "p-below-n": PopulationModel(p=40, n=120, spikes=(9.0, 6.0, 4.0, 3.0)),
        "p-equals-n": PopulationModel(p=40, n=40, spikes=(7.0, 6.0, 5.0, 4.0)),
        "p-above-n": PopulationModel(p=60, n=20, spikes=(8.0, 5.0)),
        "n-below-q": PopulationModel(p=12, n=3, spikes=(9.0, 7.0, 5.0, 3.0)),
        "pure-noise": PopulationModel(p=20, n=30),
        "sigma2": PopulationModel(p=15, n=40, spikes=(9.0, 5.0), sigma2=2.0),
    }
    DRAWS = 2000
    LEVEL = 1e-3  # two-sample KS, fixed before looking

    @staticmethod
    def stats(model):
        """l1, the first bulk value l_{q+1} (l_m when m <= q), l_m and the trace."""
        q, m = len(model.spikes), min(model.p, model.n)
        return {"l1": lambda v: v[:, 0], "l_q+1": lambda v: v[:, min(q, m - 1)],
                "l_m": lambda v: v[:, m - 1], "trace": lambda v: v.sum(axis=1)}

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense(self, case):
        from scipy.stats import ks_2samp
        model = self.CASES[case]
        dense_rng, banded_rng = rng(31), rng(32)
        dense = np.array([population_reference.simulate_population(model, dense_rng).values
                          for _ in range(self.DRAWS)])
        drawn = np.array([simulate(model, banded_rng).values
                          for _ in range(self.DRAWS)])
        for name, stat in self.stats(model).items():
            pvalue = ks_2samp(stat(dense), stat(drawn)).pvalue
            assert pvalue > self.LEVEL, f"{name}: KS p = {pvalue:.2g}"


class TestAutocovStationary:
    """The stationary-start autocov generator against the burn-in reference."""

    # |theta| <= 0.9, where the reference's burn-in of 1000 is stationary to
    # within theta^2000: T = 3 (the start weighs most), p < T, p > T, p = T
    # with a negative theta, and unequal gamma with sigma2 != 1
    CASES = {
        "T-3": AutocovModel(p=6, T=3, theta=(0.9,)),
        "p-below-T": AutocovModel(p=20, T=60, theta=(0.9, 0.6, -0.5)),
        "p-above-T": AutocovModel(p=40, T=20, theta=(0.8, -0.6)),
        "negative-theta": AutocovModel(p=10, T=10, theta=(-0.9,)),
        "gamma-sigma2": AutocovModel(p=15, T=30, theta=(0.9, 0.3), gamma_diag=(0.5, 3.0),
                                     sigma2=2.0),
    }
    DRAWS = 2000
    LEVEL = 1e-3  # two-sample KS, fixed before looking

    @staticmethod
    def stats(model):
        """l1, the first bulk value l_{q+1}, l_m (m = min(p, T), the rank) and the trace."""
        q, m = model.q, min(model.p, model.T)
        return {"l1": lambda v: v[:, 0], "l_q+1": lambda v: v[:, q],
                "l_m": lambda v: v[:, m - 1], "trace": lambda v: v.sum(axis=1)}

    @pytest.mark.parametrize("case", CASES)
    def test_matches_reference(self, case):
        from scipy.stats import ks_2samp
        model = self.CASES[case]
        reference_rng, drawn_rng = rng(33), rng(34)
        reference = np.array([autocov_reference.simulate_autocov(model, reference_rng).values
                              for _ in range(self.DRAWS)])
        drawn = np.array([simulate(model, drawn_rng).values for _ in range(self.DRAWS)])
        for name, stat in self.stats(model).items():
            pvalue = ks_2samp(stat(reference), stat(drawn)).pvalue
            assert pvalue > self.LEVEL, f"{name}: KS p = {pvalue:.2g}"


class TestReplicate:
    @staticmethod
    def draw(rng):
        x = rng.random()
        if x < 0.1:
            raise ValueError(f"stream drew {x!r}")
        return x

    def test_streams_in_order(self):
        results, error = replicate(lambda g: g.random(), seed=4, reps=6, workers=3)
        children = np.random.SeedSequence(4).spawn(6)
        expected = [np.random.Generator(np.random.Philox(c)).random() for c in children]
        assert error is None and results == expected

    def test_failure_cut_is_worker_independent(self):
        # the first stream whose draw falls below 0.1 fails; the cut, the
        # completed prefix and the exception do not depend on the workers
        serial, err1 = replicate(self.draw, seed=11, reps=60, workers=1)
        pooled, err3 = replicate(self.draw, seed=11, reps=60, workers=3)
        assert 0 < len(serial) < 60
        assert pooled == serial
        assert type(err3) is type(err1) is ValueError
        assert str(err3) == str(err1)

    def test_serial_stops_at_failure(self):
        calls = []

        def draw(rng):
            calls.append(1)
            return self.draw(rng)

        results, error = replicate(draw, seed=11, reps=60, workers=1)
        assert error is not None and len(calls) == len(results) + 1

    @pytest.fixture()
    def two_threads(self, openblas):
        """Both OpenBLAS copies at two threads, so a pin to one shows."""
        if not openblas.copies:
            pytest.skip("no OpenBLAS copy loaded")
        saved = openblas.threads()
        openblas.set_threads({owner: 2 for owner in saved})
        yield {owner: 2 for owner in saved}
        openblas.set_threads(saved)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_draws_run_at_one_blas_thread(self, openblas, two_threads, workers):
        seen, error = replicate(lambda g: openblas.threads(), seed=0, reps=6,
                                workers=workers)
        assert error is None
        assert seen == [{owner: 1 for owner in two_threads}] * 6
        assert openblas.threads() == two_threads

    @pytest.mark.parametrize("workers", [1, 3])
    def test_blas_threads_restored(self, openblas, two_threads, workers):
        class Abort(BaseException):
            pass

        def abort(rng):
            raise Abort

        def nested(rng):
            inner, _ = replicate(lambda g: openblas.threads(), seed=1, reps=2)
            return inner + [openblas.threads()]

        one = {owner: 1 for owner in two_threads}
        _, error = replicate(self.draw, seed=11, reps=60, workers=workers)
        assert error is not None
        assert openblas.threads() == two_threads
        with pytest.raises(Abort):
            replicate(abort, seed=0, reps=4, workers=workers)
        assert openblas.threads() == two_threads
        seen, error = replicate(nested, seed=0, reps=4, workers=workers)
        assert error is None and seen == [[one] * 3] * 4
        assert openblas.threads() == two_threads

    def test_autocov_bits_worker_independent(self):
        # at this size OpenBLAS threads its products unless pinned, which
        # changes the last bits between the serial and the pooled path
        model = AutocovModel(p=150, T=300, theta=(0.6, -0.5), gamma_diag=(2.0, 2.0))

        def draw(g):
            return simulate(model, g).values.tobytes()

        serial, err1 = replicate(draw, seed=0, reps=8, workers=1)
        pooled, err2 = replicate(draw, seed=0, reps=8, workers=2)
        assert err1 is None and err2 is None
        assert pooled == serial

    @pytest.mark.parametrize("p, n", [(150, 300), (300, 150)], ids=["p<n", "p>n"])
    def test_population_bits_worker_independent(self, p, n):
        # the band solves release the GIL and run concurrently; each must
        # give the serial bits, for a p x p band (p < n) and an n x n one
        model = PopulationModel(p=p, n=n, spikes=(9.0, 4.0))

        def draw(g):
            return simulate(model, g).values.tobytes()

        serial, err1 = replicate(draw, seed=0, reps=8, workers=1)
        pooled, err2 = replicate(draw, seed=0, reps=8, workers=2)
        assert err1 is None and err2 is None
        assert pooled == serial

    def test_fisher_bits_worker_independent(self):
        # the pencil's LAPACK calls release the GIL, so pooled replications
        # solve concurrently; each must still give the serial bits
        model = FisherModel(p=150, n=300, T=200, alpha=(10.0, 5.0, 5.0))

        def draw(g):
            return simulate(model, g).values.tobytes()

        serial, err1 = replicate(draw, seed=0, reps=8, workers=1)
        pooled, err2 = replicate(draw, seed=0, reps=8, workers=2)
        assert err1 is None and err2 is None
        assert pooled == serial


class TestIngest:
    def test_plain_sort(self, tmp_path):
        f = tmp_path / "eig.txt"
        f.write_text("3\n1\n2\n")
        spec = ingest_spectrum(str(f))
        assert spec.p == 3
        assert list(spec.values) == [3.0, 2.0, 1.0]

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "eig.txt"
        f.write_text("# header\n3.5\n\n1.5  # inline\n2.5\n")
        spec = ingest_spectrum(str(f))
        assert list(spec.values) == [3.5, 2.5, 1.5]

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "eig.txt"
        f.write_text("3\nabc\n2\n")
        with pytest.raises(IngestionError, match=":2:"):
            ingest_spectrum(str(f))

    def test_too_few(self, tmp_path):
        f = tmp_path / "eig.txt"
        f.write_text("3\n1\n")
        with pytest.raises(IngestionError, match="at least 3"):
            ingest_spectrum(str(f))

    def test_negative_clamped(self, tmp_path):
        f = tmp_path / "eig.txt"
        f.write_text("3\n1\n-1e-15\n")
        spec = ingest_spectrum(str(f))
        assert spec.values[-1] == 0.0

    def test_negative_rejected(self, tmp_path):
        f = tmp_path / "eig.txt"
        f.write_text("3\n1\n-0.5\n")
        with pytest.raises(IngestionError, match="negative"):
            ingest_spectrum(str(f))

    def test_csv_column(self, tmp_path):
        f = tmp_path / "eig.csv"
        f.write_text("name,value\na,3\nb,1\nc,2\n")
        spec = ingest_spectrum(str(f), column="value")
        assert list(spec.values) == [3.0, 2.0, 1.0]
        with pytest.raises(IngestionError, match="missing"):
            ingest_spectrum(str(f), column="missing")

    def test_csv_parse_error_names_line_after_blank(self, tmp_path):
        f = tmp_path / "eig.csv"
        f.write_text("v\n1\n\n2\nx\n")
        with pytest.raises(IngestionError, match=r"eig\.csv:5:"):
            ingest_spectrum(str(f), column="v")

    @pytest.mark.parametrize("column", [None, "v"])
    def test_not_utf8(self, tmp_path, column):
        f = tmp_path / "eig.txt"
        f.write_bytes(b"\xff\xfev\n3\n1\n2\n")
        with pytest.raises(IngestionError, match=r"eig\.txt"):
            ingest_spectrum(str(f), column=column)

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Desk scale is 200 replications per Monte-Carlo criterion; every
criterion finishes well inside five minutes on a small desktop.
"""

import numpy as np

from spikeorder import rmt
from spikeorder.calibration import calibrate_ridge, estimate_sigma2
from spikeorder.estimators import fn_transform, tvacle, vacle
from spikeorder.harness import (
    EstimatorSetting,
    ExperimentConfig,
    GridPoint,
    run_experiment,
)
from spikeorder.rmt import AutocovLaw, FactorSignature, MpLaw, mp_cdf, mp_quantile
from spikeorder.spectra import AutocovModel, FisherModel, PopulationModel, Spectrum

WORKERS = 2


def _check(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _report(result, name):
    return next(r for r in result.reports if r.estimator == name)


def test_criterion_1_dispersed_spikes(cache_dir):
    # Model: five dispersed spikes, (p, n) = (50, 200), known sigma2
    cfg = ExperimentConfig(
        model_id="m51",
        model=PopulationModel(p=50, n=200, spikes=(259.72, 17.97, 11.04, 7.88, 4.82)),
        grid=(GridPoint(p=50, n=200),),
        estimators=(EstimatorSetting("vacle"), EstimatorSetting("tvacle")),
        reps=200, seed=101, calibration_seed=7,
    )
    res = run_experiment(cfg, workers=WORKERS, cache_dir=cache_dir)
    v, t = _report(res, "vacle"), _report(res, "tvacle")
    ok = (v.misest_rate <= 0.05 and t.misest_rate <= 0.05
          and 4.9 <= v.mean <= 5.1 and 4.9 <= t.mean <= 5.1)
    _check(1, ok, f"(50,200) misest vacle={v.misest_rate:.3f} tvacle={t.misest_rate:.3f}"
                  f" (<=0.05), means {v.mean:.3f}/{t.mean:.3f} in [4.9,5.1]")


def test_criterion_2_equal_pair_paired_comparison(cache_dir):
    # Model: spikes (5,4,3,3) at (400,200); transformed variant must beat the
    # gap-threshold baseline on shared spectra
    cfg = ExperimentConfig(
        model_id="m53",
        model=PopulationModel(p=400, n=200, spikes=(5.0, 4.0, 3.0, 3.0)),
        grid=(GridPoint(p=400, n=200),),
        estimators=(EstimatorSetting("tvacle"), EstimatorSetting("py")),
        reps=200, seed=102, calibration_seed=7,
    )
    res = run_experiment(cfg, workers=WORKERS, cache_dir=cache_dir)
    t, p = _report(res, "tvacle"), _report(res, "py")
    ok = t.mean > p.mean and 2.2 <= t.mean <= 3.1
    _check(2, ok, f"(400,200) tvacle mean={t.mean:.3f} > py mean={p.mean:.3f}, "
                  f"tvacle in [2.2,3.1]")


def test_criterion_3_equal_spikes(cache_dir):
    # Model: six equal spikes; exact recovery for the transformed variant at
    # (200,200), and the documented underestimation of the baseline at (100,100)
    cfg_t = ExperimentConfig(
        model_id="m54",
        model=PopulationModel(p=200, n=200, spikes=(5.0,) * 6),
        grid=(GridPoint(p=200, n=200),),
        estimators=(EstimatorSetting("tvacle"),),
        reps=200, seed=103, calibration_seed=7,
    )
    exact_t = 1.0 - _report(run_experiment(cfg_t, workers=WORKERS, cache_dir=cache_dir),
                            "tvacle").misest_rate
    cfg_p = ExperimentConfig(
        model_id="m54",
        model=PopulationModel(p=100, n=100, spikes=(5.0,) * 6),
        grid=(GridPoint(p=100, n=100),),
        estimators=(EstimatorSetting("py"),),
        reps=200, seed=103, calibration_seed=7,
    )
    exact_p = 1.0 - _report(run_experiment(cfg_p, workers=WORKERS, cache_dir=cache_dir),
                            "py").misest_rate
    ok = exact_t >= 0.97 and 0.45 <= exact_p <= 0.70
    _check(3, ok, f"tvacle exact@(200,200)={exact_t:.3f} (>=0.97), "
                  f"py exact@(100,100)={exact_p:.3f} in [0.45,0.70]")


def test_criterion_4_sigma2_estimator():
    # Model: spikes (7,6,5,4) at (200,800); quantile-matching scale estimate
    model = PopulationModel(p=200, n=800, spikes=(7.0, 6.0, 5.0, 4.0))
    from spikeorder.spectra import simulate
    children = np.random.SeedSequence(104).spawn(200)
    est = np.array([
        estimate_sigma2(simulate(model, np.random.Generator(np.random.Philox(ch))))
        for ch in children
    ])
    mean, mse = float(est.mean()), float(np.mean((est - 1.0) ** 2))

    # exact scale equivariance under a power-of-two rescaling
    spec = simulate(model, np.random.default_rng(104))
    s = 4.0
    scaled = Spectrum(values=spec.values * s, p=spec.p, n=spec.n)
    equivariant = estimate_sigma2(scaled) == s * estimate_sigma2(spec)

    ok = 1.005 <= mean <= 1.025 and mse <= 0.001 and equivariant
    _check(4, ok, f"sigma2-hat mean={mean:.4f} in [1.005,1.025], mse={mse:.5f}"
                  f" (<=0.001), equivariance exact={equivariant}")


def test_criterion_5_factor_limit_oracle():
    vals = {}
    ok = True
    for y, betas, edge in ((0.5, (7.726, 5.496, 3.613), 2.773),
                           (2.0, (23.744, 20.464, 17.970), 17.637)):
        law = AutocovLaw(y=y)
        ok &= abs(law.b1 - edge) < 1e-3
        got = []
        for theta, beta in zip((0.6, -0.5, 0.3), betas):
            g0 = 2.0 / (1.0 - theta * theta)
            fl = rmt.autocov_factor_limit(FactorSignature(gamma0=g0, gamma1=theta * g0), law)
            got.append(fl.value)
            ok &= fl.identifiable and abs(fl.value - beta) < 1e-2
        vals[y] = got
    _check(5, ok, f"limits y=0.5 {np.round(vals[0.5], 3)} / y=2 {np.round(vals[2.0], 3)}"
                  f" within 1e-2; edges within 1e-3")


def test_criterion_6_autocov_tables(cache_dir):
    # Model 5.5-style AR(1) factors and the equal-factor variant at (300,600)
    cfg = ExperimentConfig(
        model_id="m55",
        model=AutocovModel(p=300, T=600, theta=(0.6, -0.5, 0.3), gamma_diag=(2.0,) * 3),
        grid=(GridPoint(p=300, T=600),),
        estimators=(EstimatorSetting("tvacle"), EstimatorSetting("lwy")),
        reps=200, seed=106, calibration_seed=7,
    )
    res = run_experiment(cfg, workers=WORKERS, cache_dir=cache_dir)
    t55 = 1.0 - _report(res, "tvacle").misest_rate
    l55 = 1.0 - _report(res, "lwy").misest_rate

    cfg = ExperimentConfig(
        model_id="m56",
        model=AutocovModel(p=300, T=600, theta=(0.5,) * 6, gamma_diag=(2.0,) * 6),
        grid=(GridPoint(p=300, T=600),),
        estimators=(EstimatorSetting("tvacle"), EstimatorSetting("lwy")),
        reps=200, seed=116, calibration_seed=7,
    )
    res = run_experiment(cfg, workers=WORKERS, cache_dir=cache_dir)
    t56 = 1.0 - _report(res, "tvacle").misest_rate
    l56 = 1.0 - _report(res, "lwy").misest_rate

    ok = t55 >= 0.90 and l55 >= 0.90 and t56 >= 0.95 and l56 <= 0.75
    _check(6, ok, f"(300,600) three-factor: tvacle={t55:.3f} lwy={l55:.3f} (>=0.90); "
                  f"equal-factor: tvacle={t56:.3f} (>=0.95) lwy={l56:.3f} (<=0.75)")


def test_criterion_7_fisher_table(cache_dir):
    # Fisher spikes (11,6,6) at (p,T,n) = (250,500,1250), tau = 0.8
    cfg = ExperimentConfig(
        model_id="m57",
        model=FisherModel(p=250, n=1250, T=500, alpha=(10.0, 5.0, 5.0)),
        grid=(GridPoint(p=250, n=1250, T=500),),
        estimators=(EstimatorSetting("tvacle"), EstimatorSetting("wy")),
        reps=200, seed=107, calibration_seed=7,
    )
    res = run_experiment(cfg, workers=WORKERS, cache_dir=cache_dir)
    t = 1.0 - _report(res, "tvacle").misest_rate
    w = 1.0 - _report(res, "wy").misest_rate
    tau_used = 0.8  # harness default for the Fisher family
    ok = t >= 0.88 and w >= 0.88
    _check(7, ok, f"(250,500,1250) tau={tau_used}: tvacle={t:.3f} wy={w:.3f} (>=0.88)")


def test_criterion_8_property_suite(cache_dir):
    msgs = []
    ok = True

    # scale invariance of every estimator (exact, power-of-two scaling)
    from spikeorder.estimators import lwy_estimator, py_estimator, wy_estimator
    g = np.random.default_rng(41)
    bulk = np.sort(g.uniform(1.0, 4.0, 24))[::-1]
    vals = np.concatenate([[9.5, 7.0], bulk])
    s = 4.0
    spec = Spectrum(values=vals, p=26, n=150)
    spec_s = Spectrum(values=vals * s, p=26, n=150)
    scale_ok = (
        vacle(spec, 1.0, c_n=0.15, L=20)[0] == vacle(spec_s, s, c_n=0.15, L=20)[0]
        and (tvacle(spec, 1.0, c_n=0.15, L=20, e=4.0)[0]
             == tvacle(spec_s, s, c_n=0.15, L=20, e=4.0)[0])
        and py_estimator(spec, 1.0, C=6.3).q_hat == py_estimator(spec_s, s, C=6.3).q_hat
        and lwy_estimator(spec, 0.07).q_hat == lwy_estimator(spec_s, 0.07).q_hat
        and wy_estimator(spec, edge=4.0, d_n=0.2) == wy_estimator(spec_s, edge=4.0 * s, d_n=0.2 * s)
    )
    ok &= scale_ok
    msgs.append(f"scale-invariance exact={scale_ok}")

    # transformed variant degenerates to the plain one at k1 = k2 = 0 (bitwise)
    q_v, tr_v = vacle(spec, 1.0, c_n=0.15, L=20)
    q_t, tr_t = tvacle(spec, 1.0, c_n=0.15, L=20, e=4.0, k1=0.0, k2=0.0)
    degen_ok = (q_v == q_t and np.array_equal(tr_v.deltas, tr_t.deltas)
                and np.array_equal(tr_v.ratios, tr_t.ratios))
    ok &= degen_ok
    msgs.append(f"k1=k2=0 degeneracy bitwise={degen_ok}")

    # C1 continuity of the transformation at its three knots
    e, kappa, k1, k2 = 4.0, 0.05, 5.0, 5.0
    Ln, Rn = e - kappa, e + kappa
    knots = (Ln - 1.0 / k1, Ln, Rn)
    left_right = (
        (Ln - 0.5 / k1, 0.5 * k1 * knots[0] ** 2 + (1 - k1 * Ln) * knots[0] + 0.5 * k1 * Ln * Ln),
        (0.5 * k1 * Ln * Ln + (1 - k1 * Ln) * Ln + 0.5 * k1 * Ln * Ln, Ln),
        (Rn, 0.5 * k2 * Rn * Rn + (1 - k2 * Rn) * Rn + 0.5 * k2 * Rn * Rn),
    )
    left_der = (0.0, 1.0, 1.0)
    right_der = (k1 * knots[0] + 1 - k1 * Ln, 1.0, k2 * Rn + 1 - k2 * Rn)
    c1_ok = all(abs(a - b) < 1e-12 for a, b in left_right)
    c1_ok &= all(abs(a - b) < 1e-12 for a, b in zip(left_der, right_der))
    c1_ok &= all(abs(fn_transform(x, e, kappa, k1, k2) - lr[1]) < 1e-12
                 for x, lr in zip(knots, left_right))
    ok &= c1_ok
    msgs.append(f"fn C1 at knots={c1_ok}")

    # spike-map continuity at the phase transition
    phi_ok = True
    for c in (0.25, 1.0, 2.0):
        b = MpLaw(c=c).upper_edge
        for eps in (1e-4, 1e-6):
            lam = rmt.MpLaw(c=c).spike_threshold * (1 + eps)
            phi_ok &= abs(rmt.MpLaw(c=c).spike_map(lam) - b) < 1e-3
    ok &= phi_ok
    msgs.append(f"phi continuity 1e-3={phi_ok}")

    # Marchenko-Pastur mass and quantile round trip
    mass_ok = all(abs(mp_cdf(MpLaw(c=c).upper_edge, MpLaw(c=c)) - 1.0) < 1e-6
                  for c in (0.25, 1.0, 2.0))
    rt_ok = True
    for c in (0.25, 1.0, 2.0):
        law = MpLaw(c=c)
        for alpha in (law.atom_at_zero + 0.1, 0.6, 0.9):
            rt_ok &= abs(mp_cdf(mp_quantile(alpha, c), law) - alpha) < 1e-8
    ok &= mass_ok and rt_ok
    msgs.append(f"mp mass 1e-6={mass_ok}, quantile round-trip 1e-8={rt_ok}")

    # pure-noise false detection at (200,200) with a noise-stable ridge (c1);
    # the spiked-table ridge c2 runs slightly hotter and is reported alongside
    from spikeorder.spectra import simulate
    cal = calibrate_ridge("population", p=200, n=200, reps=500, seed=7,
                          cache_dir=cache_dir)
    noise = PopulationModel(p=200, n=200)
    children = np.random.SeedSequence(108).spawn(200)
    fv = ft = ft2 = 0
    for ch in children:
        spec_n = simulate(noise, np.random.Generator(np.random.Philox(ch)))
        fv += vacle(spec_n, 1.0, c_n=cal.c1, L=20)[0] != 0
        ft += tvacle(spec_n, 1.0, c_n=cal.c1, L=20, e=4.0)[0] != 0
        ft2 += tvacle(spec_n, 1.0, c_n=cal.c2, L=20, e=4.0)[0] != 0
    noise_ok = fv / 200 <= 0.05 and ft / 200 <= 0.05
    ok &= noise_ok
    msgs.append(f"noise false-det vacle={fv / 200:.3f} tvacle(c1)={ft / 200:.3f}"
                f" (<=0.05; tvacle(c2)={ft2 / 200:.3f} for reference)")

    # thread-count independence of harness metrics (exact)
    cfg = ExperimentConfig(
        model_id="thr",
        model=PopulationModel(p=50, n=200, spikes=(7.0, 6.0, 5.0, 4.0)),
        grid=(GridPoint(p=50, n=200),),
        estimators=(EstimatorSetting("vacle"), EstimatorSetting("tvacle")),
        reps=12, seed=109, calibration_reps=60, calibration_seed=7,
    )
    one = run_experiment(cfg, workers=1, cache_dir=cache_dir).reports
    many = run_experiment(cfg, workers=3, cache_dir=cache_dir).reports

    def strip(r):
        d = r.to_dict()
        d.pop("runtime_s")
        return d

    thread_ok = [strip(r) for r in one] == [strip(r) for r in many]
    ok &= thread_ok
    msgs.append(f"thread-count independence exact={thread_ok}")

    _check(8, ok, "; ".join(msgs))


def test_criterion_9_oracle_valley_cliff():
    # exact limiting spectrum: spike images above the bulk, bulk at the edge
    c = 1.0
    spikes = (5.0, 4.0, 3.0, 3.0)
    law = MpLaw(c=c)
    images = [rmt.MpLaw(c=c).spike_map(s) for s in spikes]
    vals = np.array(images + [law.upper_edge] * 16)
    spec = Spectrum(values=vals, p=20, n=200)
    c_n = 0.1
    q, trace = vacle(spec, 1.0, c_n=c_n, tau=0.5, L=20)
    cliff_exact = bool(np.all(trace.ratios[4:] == 1.0))
    d_minus_e = images[-1] - law.upper_edge
    valley_exact = trace.ratios[3] == c_n / (d_minus_e + c_n)
    ok = q == 4 and cliff_exact and valley_exact
    _check(9, ok, f"q_hat={q}, cliff ratios == 1 exactly: {cliff_exact}, "
                  f"valley == c_n/(d-e+c_n) exactly: {valley_exact}")

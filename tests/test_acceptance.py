"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Criteria 1-4 and 6-8 read their runs and bounds from ``acceptance_table``;
each criterion finishes well inside five minutes on a small desktop.
"""

from types import SimpleNamespace

import numpy as np

from acceptance_table import TABLE
from spikeorder import rmt
from spikeorder.calibration import estimate_sigma2
from spikeorder.estimators import fn_transform, tvacle, vacle
from spikeorder.harness import run_experiment
from spikeorder.rmt import AutocovLaw, FactorSignature, MpLaw, mp_cdf, mp_quantile
from spikeorder.spectra import Spectrum, simulate

WORKERS = 2


def _check(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run(entry, cache_dir):
    """Reports (``accuracy`` = 1 - misest_rate), whether all are complete and in bounds, bounds."""
    cfg, bounds = entry
    res = run_experiment(cfg, workers=WORKERS, cache_dir=cache_dir)
    stats = {r.estimator: SimpleNamespace(**vars(r), accuracy=1.0 - r.misest_rate)
             for r in res.reports}
    ok = (not any(r.partial for r in res.reports)  # a replication that raised fails the run
          and all(b.holds(getattr(stats[e], b.statistic)) for b in bounds for e in b.estimators))
    return list(stats.values()), ok, bounds


def _size(report):
    return "(" + ",".join(str(v) for v in (report.p, report.T, report.n) if v is not None) + ")"


def test_criterion_1_dispersed_spikes(cache_dir):
    # Model: five dispersed spikes, known sigma2
    (v, t), ok, (misest, mean) = _run(TABLE[1]["m51"], cache_dir)
    _check(1, ok, f"{_size(v)} misest vacle={v.misest_rate:.3f} tvacle={t.misest_rate:.3f}"
                  f" (<={misest.hi}), means {v.mean:.3f}/{t.mean:.3f} in [{mean.lo},{mean.hi}]")


def test_criterion_2_equal_pair_paired_comparison(cache_dir):
    # Model: spikes (5,4,3,3); tvacle must beat the py baseline on shared spectra
    (t, p), ok, (mean,) = _run(TABLE[2]["m53"], cache_dir)
    _check(2, ok and t.mean > p.mean, f"{_size(t)} tvacle mean={t.mean:.3f} > "
                                      f"py mean={p.mean:.3f}, tvacle in [{mean.lo},{mean.hi}]")


def test_criterion_3_equal_spikes(cache_dir):
    # Model: six equal spikes; tvacle recovers them, py underestimates at the smaller size
    (t,), ok_t, (bt,) = _run(TABLE[3]["m54-tvacle"], cache_dir)
    (p,), ok_p, (bp,) = _run(TABLE[3]["m54-py"], cache_dir)
    _check(3, ok_t and ok_p, f"tvacle exact@{_size(t)}={t.accuracy:.3f} (>={bt.lo}), py exact@"
                             f"{_size(p)}={p.accuracy:.3f} in [{bp.lo:.2f},{bp.hi:.2f}]")


def test_criterion_4_sigma2_estimator():
    # Model: four spikes; quantile-matching scale estimate
    run, (b_mean, b_mse) = TABLE[4]["sigma2"]
    est = np.array([estimate_sigma2(simulate(run.model, np.random.Generator(np.random.Philox(ch))))
                    for ch in np.random.SeedSequence(run.seed).spawn(run.streams)])
    mean, mse = float(est.mean()), float(np.mean((est - run.model.sigma2) ** 2))

    # exact scale equivariance under a power-of-two rescaling
    spec = simulate(run.model, np.random.default_rng(run.seed))
    s = 4.0
    scaled = Spectrum(values=spec.values * s, p=spec.p, n=spec.n)
    equivariant = estimate_sigma2(scaled) == s * estimate_sigma2(spec)

    ok = b_mean.holds(mean) and b_mse.holds(mse) and equivariant
    _check(4, ok, f"sigma2-hat mean={mean:.4f} in [{b_mean.lo},{b_mean.hi}], mse={mse:.5f}"
                  f" (<={b_mse.hi}), equivariance exact={equivariant}")


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
    # Model 5.5-style AR(1) factors and the equal-factor variant
    (t55, l55), ok55, (b55,) = _run(TABLE[6]["m55"], cache_dir)
    (t56, l56), ok56, (bt56, bl56) = _run(TABLE[6]["m56"], cache_dir)
    _check(6, ok55 and ok56,
           f"{_size(t55)} three-factor: tvacle={t55.accuracy:.3f} "
           f"lwy={l55.accuracy:.3f} (>={b55.lo:.2f}); equal-factor: tvacle={t56.accuracy:.3f} "
           f"(>={bt56.lo:.2f}) lwy={l56.accuracy:.3f} (<={bl56.hi:.2f})")


def test_criterion_7_fisher_table(cache_dir):
    # Fisher spikes (11,6,6), tau at the family default
    entry = TABLE[7]["m57"]
    (t, w), ok, (acc,) = _run(entry, cache_dir)
    _check(7, ok, f"{_size(t)} tau={entry[0].model.default_tau}: "
                  f"tvacle={t.accuracy:.3f} wy={w.accuracy:.3f} (>={acc.lo})")


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
        vacle(spec, 1.0, c_n=0.15, L=20).q_hat == vacle(spec_s, s, c_n=0.15, L=20).q_hat
        and (tvacle(spec, 1.0, c_n=0.15, L=20, e=4.0).q_hat
             == tvacle(spec_s, s, c_n=0.15, L=20, e=4.0).q_hat)
        and py_estimator(spec, 1.0, C=6.3).q_hat == py_estimator(spec_s, s, C=6.3).q_hat
        and lwy_estimator(spec, 0.07).q_hat == lwy_estimator(spec_s, 0.07).q_hat
        and wy_estimator(spec, edge=4.0, d_n=0.2) == wy_estimator(spec_s, edge=4.0 * s, d_n=0.2 * s)
    )
    ok &= scale_ok
    msgs.append(f"scale-invariance exact={scale_ok}")

    # transformed variant degenerates to the plain one at k1 = k2 = 0 (bitwise)
    v = vacle(spec, 1.0, c_n=0.15, L=20)
    t = tvacle(spec, 1.0, c_n=0.15, L=20, e=4.0, k1=0.0, k2=0.0)
    degen_ok = (v.q_hat == t.q_hat and np.array_equal(v.trace.deltas, t.trace.deltas)
                and np.array_equal(v.trace.ratios, t.trace.ratios))
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

    # pure-noise false detection with a noise-stable ridge (c1); the
    # spiked-table ridge c2 runs slightly hotter and is reported alongside
    (fv, ft, ft2), noise_ok, (false_det,) = _run(TABLE[8]["noise"], cache_dir)
    ok &= noise_ok
    msgs.append(f"noise false-det vacle={fv.misest_rate:.3f} tvacle(c1)={ft.misest_rate:.3f}"
                f" (<={false_det.hi}; tvacle(c2)={ft2.misest_rate:.3f} for reference)")

    # thread-count independence of harness metrics (exact)
    threads, _ = TABLE[8]["threads"]
    runs = [[{k: v for k, v in r.to_dict().items() if k != "runtime_s"}
             for r in run_experiment(threads, workers=w, cache_dir=cache_dir).reports]
            for w in (1, 3)]
    thread_ok = runs[0] == runs[1] and not any(r["partial"] for r in runs[0])
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
    est = vacle(spec, 1.0, c_n=c_n, tau=0.5, L=20)
    q, trace = est.q_hat, est.trace
    cliff_exact = bool(np.all(trace.ratios[4:] == 1.0))
    d_minus_e = images[-1] - law.upper_edge
    valley_exact = trace.ratios[3] == c_n / (d_minus_e + c_n)
    ok = q == 4 and cliff_exact and valley_exact
    _check(9, ok, f"q_hat={q}, cliff ratios == 1 exactly: {cliff_exact}, "
                  f"valley == c_n/(d-e+c_n) exactly: {valley_exact}")

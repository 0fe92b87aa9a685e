"""Acceptance gate: twelve end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
whole file takes about a minute, dominated by the 1e6-sample Monte Carlo
checks and the synthetic-fit search.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import kv
from scipy.stats import ncx2

from prodfade import io as pio
from prodfade.asym import match_kappa, tail_offset, tail_offset_kappa_mu
from prodfade.cli import main
from prodfade.fit import SearchConfig, empirical_from_samples, fit_cdf, ks_error
from prodfade.mixture import ShadowedParams, cdf_single, expand
from prodfade.pdist import ProductModel
from prodfade.sysmodels import (
    WpcConfig,
    nakagami_wpc_outage,
    wpc_outage,
    wpc_product,
)

RICIAN_K_REF = 3.0 + math.sqrt(12.0)  # per-antenna shape exactly 4


def check(num, label, ok, detail=""):
    print("criterion %02d  %-50s %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %02d (%s): %s" % (num, label, detail)


def make(a, b):
    return ProductModel(ShadowedParams(*a), ShadowedParams(*b))


def logspace_quad(fn):
    """Integral of fn over (0, inf) via x = e^t, split at the mean scale."""
    total = 0.0
    for lo, hi in ((-45.0, 0.0), (0.0, 45.0)):
        val, _ = integrate.quad(lambda t: fn(math.exp(t)) * math.exp(t),
                                lo, hi, limit=300, epsabs=1e-300, epsrel=1e-12)
        total += val
    return total


def test_criterion_01_mixture_weights_normalize():
    worst = 0.0
    for kappa in (0.0, 0.1, 1.0, 5.0, 10.0, 25.0):
        for mu in range(1, 6):
            for m in range(1, 9):
                terms = expand(ShadowedParams(1.0, kappa, mu, m))
                worst = max(worst, abs(math.fsum(terms.weights) - 1.0))
    check(1, "mixture weights sum to 1 on 240-case grid", worst <= 1e-12,
          "worst |sum-1| = %.3g" % worst)


def test_criterion_02_product_pdf_normalizes():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(20):
        links = []
        for _ in range(2):
            links.append((float(rng.uniform(0.5, 2.0)),
                          float(rng.uniform(0.0, 25.0)),
                          int(rng.integers(1, 6)), int(rng.integers(1, 9))))
        total = logspace_quad(make(*links).pdf)
        worst = max(worst, abs(total - 1.0))
    check(2, "20 random product pdfs integrate to 1 (1e-6)", worst <= 1e-6,
          "worst |integral-1| = %.3g" % worst)


def test_criterion_03_cdf_equals_integrated_pdf():
    model = make((1.0, 1.0, 1, 2), (2.0, 2.0, 2, 5))
    xs = np.geomspace(1e-3, 30.0, 50)
    acc, prev, worst = 0.0, 0.0, 0.0
    for x in xs:
        seg, _ = integrate.quad(model.pdf, prev, float(x), limit=300)
        acc += seg
        prev = float(x)
        worst = max(worst, abs(acc - model.cdf(float(x))))
    check(3, "cdf matches cumulative pdf integral (1e-8)", worst <= 1e-8,
          "worst |diff| = %.3g" % worst)


def test_criterion_04_moments():
    worst_mean, worst = 0.0, 0.0
    for model in (make((1.0, 1.0, 1, 2), (2.0, 2.0, 2, 5)),
                  make((1.0, 25.0, 8, 7), (1.5, 5.0, 2, 3))):
        worst_mean = max(worst_mean,
                         abs(model.moment(1) / model.mean_power - 1.0))
        for n in (2, 3, 4):
            ref = logspace_quad(lambda x, n=n: x**n * model.pdf(x))
            worst = max(worst, abs(model.moment(n) / ref - 1.0))
    check(4, "moments: mean exact, n<=4 vs quadrature (1e-6)",
          worst_mean <= 1e-12 and worst <= 1e-6,
          "mean rel %.3g, worst rel %.3g" % (worst_mean, worst))


def test_criterion_05_mgf_vs_laplace_quadrature():
    worst = 0.0
    for model in (make((1.0, 1.0, 1, 2), (2.0, 2.0, 2, 5)),
                  make((1.0, 25.0, 8, 7), (1.0, 0.0, 1, 1))):
        for s in (-0.1, -1.0, -10.0):
            ref = logspace_quad(lambda x, s=s: math.exp(s * x) * model.pdf(x))
            worst = max(worst, abs(model.mgf(s) / ref - 1.0))
    check(5, "mgf matches Laplace quadrature (1e-6)", worst <= 1e-6,
          "worst rel = %.3g" % worst)


def test_criterion_06_rayleigh_product_closed_form():
    value = make((1.0, 0.0, 1, 1), (1.0, 0.0, 1, 1)).cdf(1.0)
    target = 0.720268236366955  # 1 - 2 K_1(2)
    ok = abs(value - target) <= 1e-7 and abs(value - (1.0 - 2.0 * kv(1, 2.0))) <= 1e-12
    check(6, "Rayleigh^2 product cdf(1) = 1 - 2 K_1(2) (1e-7)", ok,
          "got %.15f" % value)


def test_criterion_07_sampler_ks_at_1e6():
    models = [
        ((1.0, 0.0, 1, 1), (1.0, 0.0, 1, 1)),
        ((1.0, 1.0, 1, 2), (1.0, 3.0, 2, 5)),
        ((1.0, 5.0, 2, 3), (1.0, 0.5, 1, 4)),
        ((1.0, 10.0, 1, 15), (1.0, 2.0, 3, 3)),
        ((1.0, 25.0, 8, 7), (1.0, 1.0, 2, 2)),
    ]
    n = 1_000_000
    worst = 0.0
    for idx, (a, b) in enumerate(models):
        model = make(a, b)
        draws = np.sort(model.sample(np.random.default_rng(7000 + idx), n))
        hi = np.arange(1, n + 1) / n
        theo = model.cdf(draws)
        sup = np.max(np.maximum(np.abs(theo - hi),
                                np.abs(theo - (hi - 1.0 / n))))
        worst = max(worst, sup)
    check(7, "5 samplers, 1e6 draws, KS sup <= 0.002", worst <= 0.002,
          "worst sup = %.5g" % worst)


def test_criterion_08_tail_matching():
    kappa = match_kappa(10.0, 1, 15)
    off_rel = abs(tail_offset((1.0, kappa, 1, 15))
                  / tail_offset_kappa_mu(10.0, 1) - 1.0)
    x = 1e-4
    shadowed = cdf_single(ShadowedParams(1.0, kappa, 1, 15), x)
    # kappa-mu cdf through the equivalent noncentral chi-square form
    reference = float(ncx2.cdf(2.0 * (1.0 + 10.0) * x, 2, 2 * 10.0))
    ratio = shadowed / reference
    ok = (abs(kappa - 14.95) <= 0.05 and off_rel <= 1e-10
          and abs(ratio - 1.0) <= 0.03)
    check(8, "tail-equivalent kappa(K=10, mu=1, m=15)", ok,
          "kappa=%.6f off_rel=%.3g ratio=%.6f" % (kappa, off_rel, ratio))


def test_criterion_09_tail_slope_equals_mu():
    worst = 0.0
    for mu in (1, 2, 3):
        xs = np.geomspace(1e-6, 1e-4, 7)
        F = cdf_single(ShadowedParams(1.0, 2.0, mu, 5), xs)
        slope = np.polyfit(np.log(xs), np.log(F), 1)[0]
        worst = max(worst, abs(slope - mu))
    check(9, "log-log cdf slope = mu for mu in {1,2,3}", worst <= 0.05,
          "worst |slope-mu| = %.3g" % worst)


def test_criterion_10_wpc_outage_vs_monte_carlo():
    db = np.linspace(48.0, 76.0, 20)
    lin = 10.0 ** (db / 10.0)
    n = 1_000_000
    rng = np.random.default_rng(20260823)
    worst_z, worst_sup = 0.0, 0.0
    for n_ant in (1, 2, 3):
        cfg = WpcConfig(1e5, n_ant, RICIAN_K_REF, m_proxy=250)
        exact = wpc_outage(cfg, lin)
        draws = np.sort(wpc_product(cfg).sample(rng, n))
        emp = np.searchsorted(draws, cfg.threshold_scale() / lin,
                              side="right") / n
        sigma = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-30) / n)
        worst_z = max(worst_z, np.max(np.abs(emp - exact) / sigma))
        worst_sup = max(worst_sup, np.max(np.abs(emp - exact)))
    mc_ok = worst_z <= 5.0 and worst_sup <= 0.002

    # Nakagami comparator: close for LOS x Rayleigh at the default proxy,
    # optimistic by far for LOS on both hops in the deep tail.
    worst_gap = 0.0
    for n_ant in (1, 2, 3):
        cfg = WpcConfig(1e5, n_ant, RICIAN_K_REF)
        worst_gap = max(worst_gap, np.max(np.abs(
            nakagami_wpc_outage(cfg, lin) - wpc_outage(cfg, lin))))
    cfg_ll = WpcConfig(1e5, 1, RICIAN_K_REF, s_d_model="rician",
                       s_d_rician_k=RICIAN_K_REF)
    p76 = 10.0 ** 7.6
    ratio = wpc_outage(cfg_ll, p76) / nakagami_wpc_outage(cfg_ll, p76)
    ok = mc_ok and worst_gap <= 0.02 and ratio > 2.0
    check(10, "wpc outage: MC (5 sigma), comparator bounds", ok,
          "z=%.2f sup=%.4g gap=%.4g ratio=%.3g"
          % (worst_z, worst_sup, worst_gap, ratio))


def test_criterion_11_fit_identifiability():
    gen = make((1.0, 2.6, 1, 4), (1.0, 2.6, 1, 4))
    emp = empirical_from_samples(gen.sample(np.random.default_rng(1234),
                                            1_000_000))
    floor = ks_error(emp, gen, min_cdf=5e-5)
    floor_ok = abs(floor / 0.049934471705071815 - 1.0) <= 1e-9

    res = fit_cdf(emp, SearchConfig(max_m=6, mu_grid=(1, 2),
                                    min_cdf=5e-5, max_points=150))
    best_raw = min(t["objective"] for t in res.search_trace)
    raw_ok = (best_raw <= 2.0 * floor
              and abs(best_raw / 0.031051588848062472 - 1.0) <= 1e-6)
    cell_ok = res.model.link_a.mu == 1 and res.model.link_b.mu == 1
    best_by_mu = {}
    for t in res.search_trace:
        key = tuple(sorted((t["mu"], t["mu_hat"])))
        best_by_mu[key] = min(best_by_mu.get(key, np.inf), t["objective"])
    others = [v for k, v in best_by_mu.items() if k != (1, 1)]
    decisive = min(others) >= 2.0 * best_by_mu[(1, 1)]

    restricted = fit_cdf(emp, SearchConfig(mu_grid=(1,), m_grid=(20,),
                                           min_cdf=5e-5, max_points=150))
    dominance = best_raw <= restricted.objective_value + 1e-6

    ok = floor_ok and raw_ok and cell_ok and decisive and dominance
    check(11, "synthetic fit: mu cell decisive, floor-limited", ok,
          "floor=%.9g best=%.9g cell=(%d,%d) decisive=%s dom=%s"
          % (floor, best_raw, res.model.link_a.mu, res.model.link_b.mu,
             decisive, dominance))


def test_criterion_12_cli_reproducibility(tmp_path):
    params = tmp_path / "prod.json"
    params.write_text('{"link_a": {"kappa": 2.0, "mu": 1, "m": 4}, '
                      '"link_b": {"kappa": 0.0, "mu": 1, "m": 1}}')
    outs = [tmp_path / name for name in ("s1.csv", "s2.csv", "e1.csv", "e2.csv")]
    for out in outs[:2]:
        rc = main(["sample", "--dist", "prod", "--params", str(params),
                   "--n", "20000", "--seed", "11", "--out", str(out)])
        assert rc == 0
    rc = main(["eval", "--dist", "prod", "--params", str(params),
               "--grid", "0.01:10:101:log", "--out", str(outs[2])])
    assert rc == 0
    rc = main(["eval", "--dist", "prod", "--params", str(params),
               "--grid", "0.01:10:101:log", "--out", str(outs[3])])
    assert rc == 0
    ok = (outs[0].read_bytes() == outs[1].read_bytes()
          and outs[2].read_bytes() == outs[3].read_bytes())
    check(12, "CLI outputs byte-identical across runs", ok)

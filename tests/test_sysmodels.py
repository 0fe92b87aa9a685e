import math

import numpy as np
import pytest
from scipy.special import kv

from prodfade.mixture import RICIAN_PROXY_M, ShadowedParams
from prodfade.pdist import ProductModel
from prodfade.sysmodels import (
    NAKAGAMI_COMPARATOR_METHOD,
    BackscatterConfig,
    WpcConfig,
    _gamma_product_cdf_at_logs,
    backscatter_model,
    backscatter_power_cdf,
    backscatter_sweep,
    gamma_product_cdf,
    nakagami_shape,
    nakagami_wpc_outage,
    wpc_outage,
    wpc_sweep,
    wpc_throughput,
)

# Reference link budget: tau = 0.5, eta = 0.4, alpha = 2.5, d1 = 8,
# d2 = 15, rate 1 bit/s/Hz.
PAPER_K = 3.0 + math.sqrt(12.0)


def paper_cfg(**kw):
    kw.setdefault("tx_power_over_noise", 1e5)
    kw.setdefault("pb_antennas", 3)
    kw.setdefault("rician_k", PAPER_K)
    return WpcConfig(**kw)


def rayleigh_product_cdf(z):
    return 1.0 - 2.0 * np.sqrt(z) * kv(1, 2.0 * np.sqrt(z))


def test_threshold_scale_algebra():
    cfg = paper_cfg()
    assert cfg.snr_threshold == 1.0
    expected = 0.5 * 8.0**2.5 * 15.0**2.5 * 1.0 / (0.5 * 0.4)
    np.testing.assert_allclose(cfg.threshold_scale(), expected, rtol=1e-14)
    np.testing.assert_allclose(cfg.threshold_scale(), 394360.2414037196, rtol=1e-12)
    # rate enters only through 2^R - 1
    cfg2 = paper_cfg(rate=2.0)
    np.testing.assert_allclose(cfg2.threshold_scale(), 3.0 * expected, rtol=1e-14)


def test_pb_link_structure():
    link = paper_cfg().pb_link()
    assert link.mu == 3 and link.m == RICIAN_PROXY_M
    assert link.mean_power == 3.0
    np.testing.assert_allclose(link.kappa, PAPER_K)


def test_outage_monotone_in_power_and_rate():
    cfg = paper_cfg()
    p = 10.0 ** (np.linspace(48.0, 76.0, 8) / 10.0)
    out = wpc_outage(cfg, p)
    assert np.all(np.diff(out) < 0.0)
    assert np.all((out > 0.0) & (out < 1.0))
    higher_rate = wpc_outage(paper_cfg(rate=2.0), p)
    assert np.all(higher_rate > out)


def test_rayleigh_wpc_outage_closed_form():
    cfg = paper_cfg(pb_antennas=1, rician_k=0.0, tx_power_over_noise=1e6)
    z = cfg.threshold_scale() / 1e6
    np.testing.assert_allclose(wpc_outage(cfg), rayleigh_product_cdf(z), rtol=1e-12)


def test_throughput_complements_outage():
    cfg = paper_cfg()
    p = np.array([1e5, 1e6, 1e7])
    thr = wpc_throughput(cfg, p)
    np.testing.assert_allclose(thr, (1.0 - wpc_outage(cfg, p)) * 0.5, rtol=1e-14)
    # cap R_c (1 - tau) as outage vanishes
    np.testing.assert_allclose(wpc_throughput(cfg, 1e14), 0.5, atol=1e-6)


def test_wpc_sweep_layout():
    cfg = paper_cfg()
    db = np.linspace(48.0, 76.0, 6)
    out_db, outage, thr = wpc_sweep(cfg, db)
    np.testing.assert_array_equal(out_db, db)
    np.testing.assert_allclose(
        outage, wpc_outage(cfg, 10.0 ** (db / 10.0)), rtol=1e-14
    )
    np.testing.assert_allclose(thr, (1.0 - outage) * 0.5, rtol=1e-14)


def test_nakagami_shape_values():
    assert nakagami_shape(0.0) == 1.0
    np.testing.assert_allclose(nakagami_shape(2.0), 1.8, rtol=1e-15)
    # The reference K-factor is chosen so the per-antenna shape is
    # exactly 4: (1+K)^2 = 4 (1+2K) at K = 3 + sqrt(12).
    np.testing.assert_allclose(nakagami_shape(PAPER_K), 4.0, rtol=1e-12)
    with pytest.raises(ValueError):
        nakagami_shape(-0.1)


def test_gamma_product_cdf_matches_pair_kernel():
    p = ProductModel(ShadowedParams.nakagami(2, 2 * 0.7),
                     ShadowedParams.nakagami(3, 3 * 1.1))
    for x in (0.5, 2.0, 8.0):
        np.testing.assert_allclose(
            gamma_product_cdf(2, 0.7, 3, 1.1, x), p.cdf(x), rtol=1e-8
        )
    assert gamma_product_cdf(2, 0.7, 3, 1.1, 0.0) == 0.0


def test_nakagami_comparator_exact_without_los():
    # With K = 0 on both hops the Nakagami reduction is not an
    # approximation, so comparator and exact law must coincide.
    cfg = paper_cfg(pb_antennas=1, rician_k=0.0)
    p = np.array([1e5, 1e6])
    np.testing.assert_allclose(
        nakagami_wpc_outage(cfg, p), wpc_outage(cfg, p), rtol=1e-8
    )


def test_nakagami_comparator_diverges_with_los():
    # Dominant components on both hops: the unshadowed proxy decays
    # faster than the true product law and turns optimistic in the
    # tail, so the curves separate at high power.
    cfg = paper_cfg(pb_antennas=1, s_d_model="rician", s_d_rician_k=PAPER_K)
    p = 10.0 ** (76.0 / 10.0)
    exact = wpc_outage(cfg, p)
    nak = nakagami_wpc_outage(cfg, p)
    assert exact / nak > 2.0


def test_nakagami_comparator_keeps_the_data_links_mu():
    # The data link's Nakagami shape is mu * nakagami_shape(kappa), the
    # moment match of the beacon link, so a mu = 3 link's comparator does
    # not jump when kappa leaves 0.  Links of mu = 1 or kappa = 0 keep
    # the shape 1, nakagami_shape(kappa) or mu that they had before, bit
    # for bit.
    p = np.array([1e5, 1e6, 1e7])

    def outage(s_d_model):
        return nakagami_wpc_outage(paper_cfg(s_d_model=s_d_model), p)

    np.testing.assert_allclose(outage(ShadowedParams(1.0, 1e-9, 3, 8)),
                               outage(ShadowedParams(1.0, 0.0, 3, 8)), rtol=0.0, atol=1e-12)
    cfg = paper_cfg()
    shape_a = nakagami_shape(cfg.rician_k) * cfg.pb_antennas
    log_z = math.log(cfg.threshold_scale()) - np.log(p)
    for s_d_model, shape_b in ((ShadowedParams.rayleigh(), 1.0),
                               (ShadowedParams.rician(PAPER_K), nakagami_shape(PAPER_K)),
                               (ShadowedParams(1.0, 0.3, 1, 2), nakagami_shape(0.3)),
                               (ShadowedParams.nakagami(3), 3.0)):
        expected = _gamma_product_cdf_at_logs(shape_a, cfg.pb_antennas / shape_a, shape_b,
                                              1.0 / shape_b, log_z)
        assert np.array_equal(outage(s_d_model), expected), s_d_model


def test_s_d_model_resolution():
    cfg = paper_cfg(s_d_model="rician", s_d_rician_k=4.0)
    sd = cfg.s_d_model
    assert sd.mu == 1 and sd.m == cfg.m_proxy and sd.mean_power == 1.0
    np.testing.assert_allclose(sd.kappa, 4.0)
    explicit = ShadowedParams(1.0, 1.5, 2, 6)
    assert paper_cfg(s_d_model=explicit).s_d_model == explicit


def test_wpc_config_validation():
    for kw in (
        dict(tx_power_over_noise=0.0),
        dict(pb_antennas=0),
        dict(rician_k=-1.0),
        dict(harvest_fraction=0.0),
        dict(harvest_fraction=1.0),
        dict(efficiency=1.0),
        dict(d1=-3.0),
        dict(rate=0.0),
        dict(m_proxy=0),
        dict(s_d_model="wrong"),
        dict(s_d_model="rician"),  # missing s_d_rician_k
        dict(s_d_model=ShadowedParams(2.0, 0.0, 1, 1)),  # non-unit mean
    ):
        with pytest.raises(ValueError):
            paper_cfg(**kw)
    with pytest.raises(ValueError):
        wpc_outage(paper_cfg(), -5.0)


def test_wpc_config_rejects_non_integer_counts():
    # int() used to truncate these: 2.5 antennas ran an N = 2 beacon
    for name, value in (("pb_antennas", 2.5), ("m_proxy", 3.7)):
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            paper_cfg(**{name: value})
    cfg = paper_cfg(pb_antennas=2.0, m_proxy=7.0)
    assert (cfg.pb_antennas, cfg.m_proxy) == (2, 7)
    assert isinstance(cfg.pb_antennas, int) and isinstance(cfg.m_proxy, int)


def test_backscatter_rayleigh_closed_form():
    cfg = BackscatterConfig(
        2.0, ShadowedParams.rayleigh(), ShadowedParams.rayleigh()
    )
    power = 0.8
    np.testing.assert_allclose(
        backscatter_power_cdf(cfg, power),
        rayleigh_product_cdf(power / 2.0),
        rtol=1e-12,
    )
    db, f = backscatter_sweep(cfg, np.array([-10.0, 0.0, 10.0]))
    np.testing.assert_allclose(
        f, backscatter_power_cdf(cfg, 10.0 ** (db / 10.0)), rtol=1e-14
    )
    assert np.all(np.diff(f) > 0.0)


def test_backscatter_model_and_validation():
    fwd = ShadowedParams.rician(2.0, m=8)
    rev = ShadowedParams.rayleigh()
    model = backscatter_model(BackscatterConfig(5.0, fwd, rev))
    assert model.link_a == fwd and model.link_b == rev
    with pytest.raises(ValueError):
        BackscatterConfig(0.0, fwd, rev)
    with pytest.raises(ValueError):
        BackscatterConfig(1.0, ShadowedParams(2.0, 0.0, 1, 1), rev)
    with pytest.raises(ValueError):
        BackscatterConfig(1.0, "rayleigh", rev)
    with pytest.raises(ValueError):
        backscatter_power_cdf(BackscatterConfig(1.0, fwd, rev), 0.0)


def test_comparator_method_constant():
    assert NAKAGAMI_COMPARATOR_METHOD == "gamma-product-quadrature"


def test_overflowing_cdf_argument_gives_one():
    # threshold / p and power / mean_rx_power overflow for these valid
    # inputs; the outage and cdf there are 1 (the suite turns the
    # overflow RuntimeWarning into an error).
    cfg = WpcConfig(1e6, 2, 3.0)
    assert wpc_outage(cfg, 1e-310) == 1.0
    np.testing.assert_array_equal(wpc_outage(cfg, [1e-310, 1e-300]), [1.0, 1.0])
    assert wpc_throughput(cfg, 1e-310) == 0.0
    np.testing.assert_array_equal(nakagami_wpc_outage(cfg, [1e-310, 1e-300]), [1.0, 1.0])
    assert gamma_product_cdf(2.0, 0.7, 3.0, 1.1, 1e308) == 1.0
    back = BackscatterConfig(0.5, ShadowedParams.rician(2.0, m=8), ShadowedParams.rayleigh())
    assert backscatter_power_cdf(back, 1e308) == 1.0
    out = backscatter_power_cdf(back, [1e-3, 1e308])
    assert out[0] == backscatter_power_cdf(back, 1e-3) and out[1] == 1.0

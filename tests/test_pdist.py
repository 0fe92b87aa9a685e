import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from prodfade import gammagamma
from prodfade.mixture import ShadowedParams, expand
from prodfade.pdist import ProductModel, EnvelopeModel

# (mean_power, kappa, mu, m) per link.
LINK_AA = (1.0, 1.0, 1, 2)
LINK_S1 = (1.0, 25.0, 8, 7)
LINK_S2 = (2.0, 3.0, 2, 5)
LINK_SGN = (1.0, 1.0, 2, 1)  # mu > m: signed expansion

# Frozen against the conditional-factor quadrature oracle
# int f_A(x) f_B(z/x) dx / x built on the per-link mixtures (the pair
# kernels under test share no code with that path); oracle and library
# agreed to ~1e-15 when frozen.
PDF_REFERENCE = [
    (LINK_AA, LINK_AA, 0.25, 0.8405209676989498),
    (LINK_AA, LINK_AA, 1.0, 0.24363834253243902),
    (LINK_AA, LINK_AA, 3.0, 0.04329599756438186),
    (LINK_S1, LINK_S2, 1.0, 0.39241097217619875),
]
CDF_REFERENCE = [
    (LINK_AA, LINK_AA, 0.5, 0.5332513244358034),
    (LINK_AA, LINK_AA, 1.0, 0.7067573908016482),
    (LINK_S1, LINK_S2, 1.0, 0.2582076392681012),
]

MODEL_PAIRS = [
    (LINK_AA, LINK_AA),
    (LINK_S1, LINK_S2),
    (LINK_SGN, LINK_AA),
]


def make(pa, pb):
    return ProductModel(ShadowedParams(*pa), ShadowedParams(*pb))


def pdf_oracle(mix_a, mix_b, z):
    def integrand(t):
        x = math.sqrt(z) * math.exp(t)
        return mix_a.pdf(np.asarray([x]))[0] * mix_b.pdf(np.asarray([z / x]))[0]

    left, _ = quad(integrand, -45, 0, limit=400, epsabs=1e-300, epsrel=1e-12)
    right, _ = quad(integrand, 0, 45, limit=400, epsabs=1e-300, epsrel=1e-12)
    return left + right


def cdf_oracle(mix_a, mix_b, z):
    def integrand(t):
        x = math.exp(t)
        return mix_a.pdf(np.asarray([x]))[0] * x * mix_b.cdf(np.asarray([z / x]))[0]

    val, _ = quad(integrand, -45, 45, limit=800, epsabs=1e-13, epsrel=1e-12)
    return val


@pytest.mark.parametrize("pa,pb,z,expected", PDF_REFERENCE)
def test_pdf_reference_values(pa, pb, z, expected):
    np.testing.assert_allclose(make(pa, pb).pdf(z), expected, rtol=1e-10)


@pytest.mark.parametrize("pa,pb,z,expected", CDF_REFERENCE)
def test_cdf_reference_values(pa, pb, z, expected):
    np.testing.assert_allclose(make(pa, pb).cdf(z), expected, rtol=1e-10)


@pytest.mark.parametrize("pa,pb", MODEL_PAIRS)
def test_pdf_matches_conditional_quadrature(pa, pb):
    p = make(pa, pb)
    ma, mb = expand(p.link_a), expand(p.link_b)
    for z in (0.25, 1.0, 3.0):
        np.testing.assert_allclose(p.pdf(z), pdf_oracle(ma, mb, z), rtol=1e-9)


@pytest.mark.parametrize("pa,pb", MODEL_PAIRS)
def test_cdf_matches_conditional_quadrature(pa, pb):
    p = make(pa, pb)
    ma, mb = expand(p.link_a), expand(p.link_b)
    for z in (0.5, 1.5):
        np.testing.assert_allclose(p.cdf(z), cdf_oracle(ma, mb, z), rtol=1e-9)


@pytest.mark.parametrize("pa,pb", MODEL_PAIRS)
def test_mean_identity(pa, pb):
    p = make(pa, pb)
    np.testing.assert_allclose(p.moment(1), p.mean_power, rtol=1e-12)
    np.testing.assert_allclose(p.mean_power, pa[0] * pb[0], rtol=1e-15)


def test_pair_weights():
    p = make(*MODEL_PAIRS[0])
    assert p.pair_count == 4
    np.testing.assert_allclose(p.abs_weight_sum, 1.0, rtol=1e-12)

    p = make(LINK_SGN, LINK_AA)
    np.testing.assert_allclose(p.abs_weight_sum, 2.0, rtol=1e-12)

    for pa, pb in MODEL_PAIRS:
        p = make(pa, pb)
        assert p.pair_count == p.mixture_a.weights.size * p.mixture_b.weights.size
        # The signed pair weights always sum to exactly one.
        np.testing.assert_allclose(math.fsum(p._w.tolist()), 1.0, atol=1e-12)


def test_abs_weight_sum_regression():
    np.testing.assert_allclose(
        make(LINK_S1, LINK_S2).abs_weight_sum, 1.0725388600989596, rtol=1e-12
    )


@pytest.mark.parametrize("pa,pb", [(LINK_AA, LINK_AA), (LINK_S1, LINK_S2)])
def test_mgf_matches_laplace_quadrature(pa, pb):
    p = make(pa, pb)
    for s in (-0.25, -1.0, -5.0):
        val, _ = quad(
            lambda z: math.exp(s * z) * p.pdf(np.asarray([z]))[0],
            0.0,
            np.inf,
            limit=400,
        )
        np.testing.assert_allclose(p.mgf(s), val, rtol=1e-6)


def test_mgf_limit_and_validation():
    p = make(*MODEL_PAIRS[0])
    np.testing.assert_allclose(p.mgf(-1e-12), 1.0, atol=1e-9)
    out = p.mgf(np.array([-2.0, -1.0]))
    assert out.shape == (2,) and np.all(np.diff(out) > 0.0)
    for bad in (0.0, 0.5, np.nan, np.array([-1.0, 0.0])):
        with pytest.raises(ValueError):
            p.mgf(bad)


def test_mgf_near_zero_takes_the_limit(monkeypatch):
    # -1/s overflows for |s| below 1/DBL_MAX; every x^a U is then at its
    # limit 1 and the mgf is the weight sum.
    p = make((1.0, 2.6, 1, 4), (1.0, 2.6, 1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p.mgf(-5e-324) == 1.0
        assert p.mgf(-1e-310) == 1.0
    monkeypatch.setattr("prodfade.pdist.tricomi_u_times_xa", lambda a, b, y: np.nan * y)
    with pytest.raises(ArithmeticError):
        p.mgf(-1.0)


def test_mgf_signed_model_matches_mpmath_pair_sum():
    # mu > m on both links: the signed pair terms cancel (their absolute
    # sum is 3.6e4 times the result at s = -30), so an error in any
    # pair's U is amplified in the mgf.
    p = make((1.0, 1.0, 6, 2), (1.0, 1.0, 6, 2))
    s = np.array([-1.0, -3.0, -10.0, -30.0])
    expected = []
    for sj in s:
        acc = mpmath.mpf(0)
        with mpmath.workdps(50):
            for w, ma, mb, lth in zip(p._w, p._ka, p._kb, p._lth):
                y = -mpmath.exp(-mpmath.mpf(lth)) / mpmath.mpf(sj)
                with mpmath.workdps(30):
                    u = y ** int(ma) * mpmath.hyperu(int(ma), 1 + int(ma) - int(mb), y)
                acc += mpmath.mpf(w) * u
        expected.append(float(acc))
    np.testing.assert_allclose(p.mgf(s), expected, rtol=1e-12)


@pytest.mark.parametrize("pa,pb", [(LINK_AA, LINK_AA), (LINK_S1, LINK_S2)])
def test_moments_match_quadrature(pa, pb):
    p = make(pa, pb)
    for n in (2, 3):
        val, _ = quad(
            lambda z: z**n * p.pdf(np.asarray([z]))[0], 0.0, np.inf, limit=400
        )
        np.testing.assert_allclose(p.moment(n), val, rtol=1e-6)


def test_moment_validation_and_overflow():
    p = make(LINK_S1, LINK_S2)
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            p.moment(bad)
    with pytest.raises(OverflowError):
        p.moment(500)


@pytest.mark.parametrize("pa,pb", MODEL_PAIRS)
def test_sample_matches_cdf(pa, pb):
    p = make(pa, pb)
    n = 200_000
    s = np.sort(p.sample(np.random.default_rng(11), n))
    f = p.cdf(s)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
    assert ks < 0.00364  # ~ 99.99% KS band at n = 2e5


def test_sample_is_deterministic():
    p = make(*MODEL_PAIRS[0])
    a = p.sample(np.random.default_rng(42), 1000)
    b = p.sample(np.random.default_rng(42), 1000)
    np.testing.assert_array_equal(a, b)


def test_cdf_range_and_monotone():
    p = make(LINK_S1, LINK_S2)
    z = np.geomspace(1e-8, 200.0, 400)
    f = p.cdf(z)
    assert np.all((f >= 0.0) & (f <= 1.0))
    # Deep in the lower tail the signed pair sum leaves a few 1e-15 of
    # absolute jitter where the true mass is far smaller; monotonicity
    # holds up to that floor.
    assert np.all(np.diff(f) >= -1e-12)
    assert p.cdf(0.0) == 0.0
    assert isinstance(p.cdf(1.0), float)


def test_cdf_rejects_nan_kernel_sum(monkeypatch):
    # NaN fails every ordered comparison, so a range check written with
    # < and > alone would pass it on to the clip.
    p = make(LINK_AA, LINK_AA)
    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum",
                        lambda *args: np.full(np.shape(args[4]), np.nan))
    with pytest.raises(ArithmeticError):
        p.cdf([0.1, 1.0])


def test_pdf_rejects_nan_kernel_sum(monkeypatch):
    p = make(LINK_AA, LINK_AA)
    env = EnvelopeModel(p, 1.0)
    monkeypatch.setattr("prodfade.pdist.weighted_pdf_sum",
                        lambda *args: np.full(np.shape(args[4]), np.nan))
    with pytest.raises(ArithmeticError):
        p.pdf([0.1, 1.0])
    with pytest.raises(ArithmeticError):
        env.pdf([0.1, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, [0.5, np.nan, 2.0], [np.nan, 0.5],
                                 [0.5, np.inf], [-np.inf, 0.5]])
def test_domain_checks_refuse_nan_and_inf_anywhere(bad):
    # The checks are min/max reductions; NaN anywhere makes both NaN,
    # which every comparison fails.
    p = make(LINK_AA, LINK_SGN)
    env = EnvelopeModel(p, 1.0)
    for fn in (p.cdf, p.pdf, env.cdf, env.pdf, p.mixture_b.cdf, p.mixture_b.pdf):
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        p.mgf(-np.abs(np.asarray(bad)))


def test_empty_grids_give_empty_results():
    p = make(LINK_AA, LINK_SGN)
    env = EnvelopeModel(p, 1.0)
    for fn in (p.cdf, p.pdf, env.cdf, env.pdf):
        assert fn(np.array([])).shape == (0,)


@pytest.mark.parametrize("value,clipped", [
    (0.5, 0.5), (-5e-11, 0.0), (1.0 + 5e-11, 1.0), (np.nan, None), (-2e-10, None),
    (1.0 + 2e-10, None),
])
def test_cdf_range_check_sees_one_bad_point(monkeypatch, value, clipped):
    # One point beyond CDF_RANGE_TOL (or NaN) among good ones fails the
    # check; smaller excursions are clipped.
    p = make(LINK_AA, LINK_AA)
    raw = np.array([0.0, 0.25, value, 1.0])
    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum", lambda *args: raw.copy())
    z = [0.1, 0.2, 0.3, 0.4]
    if clipped is None:
        with pytest.raises(ArithmeticError):
            p.cdf(z)
    else:
        assert np.array_equal(p.cdf(z), [0.0, 0.25, clipped, 1.0])
        assert np.array_equal(p.cdf([0.0] + z), [0.0, 0.0, 0.25, clipped, 1.0])


def test_whole_grid_matches_pieces(monkeypatch):
    # CLI data files stay byte-identical only if a whole grid evaluates
    # to the same bits as the same grid in pieces.  L's cdf and pdf have
    # more kernel rows than fit 5000 points in the engine's block
    # budget, so their whole-grid calls are split internally as well:
    # the engine climbs the Bessel ladder once per block.
    climbs = []
    ladder = gammagamma.log_bessel_k_ladder

    def counting(x, max_order):
        climbs.append(np.shape(x))
        return ladder(x, max_order)

    monkeypatch.setattr(gammagamma, "log_bessel_k_ladder", counting)
    z = np.geomspace(1e-7, 20.0, 5000)
    large, signed = ShadowedParams(1.0, 2.6, 1, 30), ShadowedParams(1.0, 1.0, 6, 2)
    for link, blocks in ((large, 2), (signed, 1)):
        p = ProductModel(link, link)
        for fn in (p.cdf, p.pdf):
            climbs.clear()
            whole = fn(z)
            assert len(climbs) >= blocks
            pieces = np.concatenate([fn(z[i:i + 64]) for i in range(0, z.size, 64)])
            assert np.array_equal(whole, pieces)


def test_envelope_mean_and_normalization():
    e = EnvelopeModel(make(LINK_AA, LINK_S2), 2.0)
    assert e.mean == 2.0
    norm, _ = quad(lambda r: e.pdf(np.asarray([r]))[0], 0.0, 80.0, limit=400)
    np.testing.assert_allclose(norm, 1.0, rtol=1e-8)
    mean, _ = quad(lambda r: r * e.pdf(np.asarray([r]))[0], 0.0, 80.0, limit=400)
    np.testing.assert_allclose(mean, 2.0, rtol=1e-8)
    cum, _ = quad(lambda r: e.pdf(np.asarray([r]))[0], 0.0, 1.5, limit=400)
    np.testing.assert_allclose(e.cdf(1.5), cum, rtol=1e-8)


def test_envelope_sample_matches_cdf():
    e = EnvelopeModel(make(LINK_AA, LINK_S2), 2.0)
    n = 100_000
    s = np.sort(e.sample(np.random.default_rng(5), n))
    f = e.cdf(s)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
    assert ks < 0.00515


def test_validation_errors():
    p = make(*MODEL_PAIRS[0])
    with pytest.raises(TypeError):
        ProductModel(ShadowedParams(*LINK_AA), "not-params")
    for bad in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            p.pdf(bad)
    with pytest.raises(ValueError):
        p.cdf(-1.0)
    with pytest.raises(TypeError):
        EnvelopeModel("not-a-product", 1.0)
    for bad_scale in (0.0, -2.0, np.inf):
        with pytest.raises(ValueError):
            EnvelopeModel(p, bad_scale)
    e = EnvelopeModel(p, 1.0)
    with pytest.raises(ValueError):
        e.pdf(0.0)
    with pytest.raises(ValueError):
        e.cdf(-0.5)

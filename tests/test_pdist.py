import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from prodfade import asym, gammagamma, sysmodels
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
        np.testing.assert_allclose(math.fsum(p._w[0].tolist()), 1.0, atol=1e-12)


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
    monkeypatch.setattr("prodfade.pdist.tricomi_u_times_xa",
                        lambda a, b, y: np.full(np.shape(y), np.nan))
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
            for w, ma, mb, lth in zip(p._w[0], p._plan.pairs.shapes_a, p._plan.pairs.shapes_b,
                                      p._lth[0].take(p._plan.pairs.theta)):
                y = -mpmath.exp(-mpmath.mpf(lth)) / mpmath.mpf(sj)
                with mpmath.workdps(30):
                    u = y ** int(ma) * mpmath.hyperu(int(ma), 1 + int(ma) - int(mb), y)
                acc += mpmath.mpf(w) * u
        expected.append(float(acc))
    np.testing.assert_allclose(p.mgf(s), expected, rtol=1e-12)


K_REF = 3.0 + math.sqrt(12.0)
# W: 260 pairs, 182 distinct kernels; L: 900 pairs, 465 distinct kernels.
POSITIVE_MODELS = {
    "W": lambda: ProductModel(ShadowedParams(8.0, K_REF, 8, 20), ShadowedParams.rician(K_REF)),
    "L": lambda: ProductModel(ShadowedParams(1.0, 2.6, 1, 30), ShadowedParams(1.0, 2.6, 1, 30)),
}


@pytest.mark.parametrize("name", sorted(POSITIVE_MODELS))
def test_mgf_of_positive_models_matches_mpmath_pair_sum(name):
    # All pair weights are positive, so the mgf is accurate in relative
    # terms from s -> 0 to the far tail.  Each pair's kernel comes from
    # 30-digit mpmath, once per unordered shape pair (Kummer's symmetry,
    # pinned in test_specfun).
    p = POSITIVE_MODELS[name]()
    assert np.all(p._w > 0.0)
    s = np.array([-1e-3, -1.0, -1e3])
    expected = []
    with mpmath.workdps(30):
        for sj in s:
            kernels = {}
            acc = mpmath.mpf(0)
            for w, ma, mb, lth in zip(p._w[0], p._plan.pairs.shapes_a, p._plan.pairs.shapes_b,
                                      p._lth[0].take(p._plan.pairs.theta)):
                a, b = max(int(ma), int(mb)), 1 + abs(int(ma) - int(mb))
                if (lth, a, b) not in kernels:
                    y = -mpmath.exp(-mpmath.mpf(lth)) / mpmath.mpf(sj)
                    kernels[lth, a, b] = y ** a * mpmath.hyperu(a, b, y)
                acc += mpmath.mpf(w) * kernels[lth, a, b]
            expected.append(float(acc))
    np.testing.assert_allclose(p.mgf(s), expected, rtol=1e-13)


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
                        lambda *args: np.full((1, np.size(args[4])), np.nan))
    with pytest.raises(ArithmeticError):
        p.cdf([0.1, 1.0])


def test_pdf_rejects_nan_kernel_sum(monkeypatch):
    p = make(LINK_AA, LINK_AA)
    env = EnvelopeModel(p, 1.0)
    monkeypatch.setattr("prodfade.pdist.weighted_pdf_sum",
                        lambda *args: np.full((1, np.size(args[4])), np.nan))
    with pytest.raises(ArithmeticError):
        p.pdf([0.1, 1.0])
    with pytest.raises(ArithmeticError):
        env.pdf([0.1, 1.0])


def _evaluators():
    """Elementwise evaluators over a non-negative or positive axis."""
    p = make(LINK_AA, LINK_SGN)
    env = EnvelopeModel(p, 1.0)
    link = ShadowedParams(*LINK_S2)
    wpc = sysmodels.WpcConfig(1e6, 2, 3.0)
    backscatter = sysmodels.BackscatterConfig(0.5, ShadowedParams(*LINK_AA),
                                              ShadowedParams(*LINK_SGN))
    return (
        p.cdf, p.pdf, env.cdf, env.pdf, p.mixture_b.cdf, p.mixture_b.pdf,
        lambda x: asym.asym_cdf(link, x),
        lambda x: asym.asym_cdf_kappa_mu(2.0, 2, 1.5, x),
        lambda x: sysmodels.wpc_outage(wpc, x),
        lambda x: sysmodels.nakagami_wpc_outage(wpc, x),
        lambda x: sysmodels.gamma_product_cdf(1.5, 0.5, 2.5, 0.3, x),
        lambda x: sysmodels.backscatter_power_cdf(backscatter, x),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, [0.5, np.nan, 2.0], [np.nan, 0.5],
                                 [0.5, np.inf], [-np.inf, 0.5]])
def test_domain_checks_refuse_nan_and_inf_anywhere(bad):
    # The checks are min/max reductions; NaN anywhere makes both NaN,
    # which every comparison fails.
    for fn in _evaluators():
        with pytest.raises(ValueError):
            fn(bad)
    p = make(LINK_AA, LINK_SGN)
    with pytest.raises(ValueError):
        p.mgf(-np.abs(np.asarray(bad)))


def test_empty_grids_give_empty_results():
    for fn in _evaluators():
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
    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum", lambda *args: raw[None].copy())
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


def _refuse_lookup(name):
    raise AssertionError("special.%s looked up on the product kernel path" % (name,))


def test_product_kernels_look_up_no_special_function(monkeypatch):
    # The product law's pdf and cdf, one model at a time and batched over
    # a fit cell, and the envelope density and its batches, run on numpy
    # alone: with scipy.special replaced, in sys.modules and on scipy, by
    # a stand-in that refuses all lookups, and the caches of plans and
    # expansions emptied so that they are built again, each evaluates.
    # The single-link mixture's cdf, which does look scipy.special up,
    # shows that the stand-in is the one a lookup meets.
    import sys
    import types

    import scipy

    from prodfade.mixture import cdf_single
    from prodfade.pdist import _cdf_rows_at, _envelope_rows_at

    no_special = types.ModuleType("no_special")
    no_special.__getattr__ = _refuse_lookup
    modules = [m for name, m in sys.modules.items() if name.startswith("prodfade.")]
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    monkeypatch.setitem(sys.modules, "scipy.special", no_special)
    monkeypatch.setattr(scipy, "special", no_special)
    with pytest.raises(AssertionError, match="special.gammainc"):
        cdf_single(ShadowedParams(*LINK_AA), [0.5])
    z = np.geomspace(1e-6, 20.0, 50)
    for a, b in MODEL_PAIRS + [((1.0, 1.0, 6, 2), (2.0, 0.0, 3, 3))]:
        p = ProductModel(ShadowedParams(*a), ShadowedParams(*b))
        assert np.all(np.isfinite(p.pdf(z))) and np.all(np.isfinite(p.cdf(z)))
        env = EnvelopeModel(p, 1.3)
        assert np.all(np.isfinite(env.pdf(z))) and np.all(np.isfinite(env.cdf(z)))
    means, kappas, ones = np.array([1.0, 2.0, 0.5]), np.array([0.0, 1.5, 4.0]), np.ones(3)
    rows, ok = _cdf_rows_at(z)((1, 2, 2, 1), np.array((means, kappas, means[::-1],
                                                        kappas[::-1])))
    assert ok.all() and np.all(np.isfinite(rows))
    rows, ok = _envelope_rows_at(z)((1, 2, 2, 1), np.array((ones, kappas, ones, kappas[::-1],
                                                             means)))
    assert ok.all() and np.all(np.isfinite(rows))


def test_envelope_batch_gives_each_set_its_models_bits():
    # One batch of unit-mean products on a mu > m cell: a plain set, a
    # collapsed one (kappa 0), a tied one (two equal links), one that
    # the plan's weighing refuses (kappa -1) and one whose envelope
    # constant is refused (scale 0), which shares its plan's call with
    # the plain set.  Each set's row is its EnvelopeModel's pdf, bit for
    # bit; only the refused sets are not ok, their rows 0.0, and no
    # warning is raised.
    from prodfade.pdist import _envelope_rows_at

    sets = np.array((np.ones(5), [1.0, 0.0, 0.3, -1.0, 1.0], np.ones(5),
                     [0.5, 2.0, 0.3, 0.5, 0.5], [1.3, 0.8, 2.0, 1.0, 0.0]))
    kappas_a, kappas_b, scales = sets[1], sets[3], sets[4]
    r = np.geomspace(1e-3, 8.0, 37)
    rows_at = _envelope_rows_at(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, ok = rows_at((6, 2, 6, 2), sets)
    assert ok.tolist() == [True, True, True, False, False]
    for i in range(3):
        env = EnvelopeModel(ProductModel(ShadowedParams(1.0, kappas_a[i], 6, 2),
                                         ShadowedParams(1.0, kappas_b[i], 6, 2)), scales[i])
        assert np.array_equal(rows[i], env.pdf(r))
    with pytest.raises(ValueError):
        ShadowedParams(1.0, kappas_a[3], 6, 2)
    with pytest.raises(ValueError):
        EnvelopeModel(make((1.0, 1.0, 6, 2), (1.0, 0.5, 6, 2)), scales[4])
    assert (rows[3:] == 0.0).all()
    alone, alone_ok = rows_at((6, 2, 6, 2), sets[:, [0, 4]])
    assert alone_ok.tolist() == [True, False]
    assert np.array_equal(alone[0], rows[0]) and (alone[1] == 0.0).all()


CLIFF = float(np.nextafter(1e-12, 1.0))
# (mean_a, kappa_a, mean_b, kappa_b) on the cell (6, 2, 4, 1), and the
# class and message of building its model: None for a set that builds.
REFUSAL_BATCH = [
    (1.0, 1.0, 1.0, 0.5, None),
    (1.0, math.nan, 1.0, 0.5, (ValueError, "kappa must be finite and >= 0, got nan")),
    (1.0, 1.0, 1.0, math.inf, (ValueError, "kappa must be finite and >= 0, got inf")),
    (1.0, -0.5, 1.0, 0.5, (ValueError, "kappa must be finite and >= 0, got -0.5")),
    (0.0, 1.0, 1.0, 0.5, (ValueError, "mean_power must be finite and > 0, got 0.0")),
    (1.0, 1.0, math.inf, 0.5, (ValueError, "mean_power must be finite and > 0, got inf")),
    (1.0, CLIFF, 1.0, 0.5,
     (ValueError, "mixture weights must sum to 1 within 1e-12 (deviation 5.03401e+41)")),
    (1e200, 1.0, 1e200, 0.5, (OverflowError, "moment of order 1 overflows double precision")),
    (2.5, 0.2, 1.0, 2.0, None),
]


def test_batches_refuse_exactly_the_sets_whose_models_refuse():
    # One mixed batch with each refusal: a NaN, inf or negative kappa, a
    # mean of 0 or inf, the collapse cliff's weight-sum miss and a mean
    # that overflows.  Building each set's model raises its class and
    # message; both batch evaluators flag exactly those sets, give them
    # rows of 0.0, and give every other set its model's bits, with no
    # warning on the way.
    from prodfade.pdist import _cdf_rows_at, _envelope_rows_at

    sets = np.array(list(zip(*REFUSAL_BATCH))[:4])
    kappas_a, kappas_b = sets[1], sets[3]
    z, r = np.geomspace(1e-5, 30.0, 23), np.geomspace(1e-3, 8.0, 19)
    ones, scales = np.ones(len(REFUSAL_BATCH)), np.linspace(0.8, 1.6, len(REFUSAL_BATCH))
    rows, ok = _cdf_rows_at(z)((6, 2, 4, 1), sets)
    env_rows, env_ok = _envelope_rows_at(r)((6, 2, 4, 1),
                                            np.array((ones, kappas_a, ones, kappas_b, scales)))
    # an envelope set's links have mean power 1, so only its kappas refuse it
    env_refused = [not all(0.0 <= k < math.inf and k != CLIFF for k in pair)
                   for pair in zip(kappas_a.tolist(), kappas_b.tolist())]
    assert env_ok.tolist() == [not refused for refused in env_refused]
    assert ok.tolist() == [refusal is None for *_, refusal in REFUSAL_BATCH]
    for i, (mean_a, kappa_a, mean_b, kappa_b, refusal) in enumerate(REFUSAL_BATCH):
        def build(mean_a=mean_a, kappa_a=kappa_a, mean_b=mean_b, kappa_b=kappa_b):
            return ProductModel(ShadowedParams(mean_a, kappa_a, 6, 2),
                                ShadowedParams(mean_b, kappa_b, 4, 1))
        if refusal is None:
            assert np.array_equal(rows[i], build().cdf(z))
        else:
            with pytest.raises(refusal[0]) as info:
                build()
            assert str(info.value) == refusal[1]
            assert (rows[i] == 0.0).all()
        if env_refused[i]:
            assert (env_rows[i] == 0.0).all()
        else:
            model = build(mean_a=1.0, mean_b=1.0)
            assert np.array_equal(env_rows[i], EnvelopeModel(model, scales[i]).pdf(r))


def test_each_failed_build_raises_its_own_refusal():
    # Builds of one refused parameter set share a cached weighing, but each
    # raises a fresh exception, so a refusal a caller holds keeps its
    # traceback when the set is built again.
    raised = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            ProductModel(ShadowedParams(1.0, CLIFF, 6, 2), ShadowedParams(1.0, 0.5, 4, 1))
        raised.append(info.value)
    first, second = raised
    assert first is not second
    assert type(first) is type(second) and str(first) == str(second)


def test_empty_batches_give_empty_rows():
    # Zero parameter sets give (0, points) rows and (0,) flags, with no
    # warning, on a cell whose sets could take any of its plans.
    from prodfade.pdist import _cdf_rows_at, _envelope_rows_at

    z = np.geomspace(1e-3, 5.0, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batches = [_cdf_rows_at(z)((6, 2, 6, 2), np.empty((4, 0))),
                   _envelope_rows_at(z)((6, 2, 6, 2), np.empty((5, 0)))]
    for rows, ok in batches:
        assert rows.shape == (0, z.size) and ok.shape == (0,) and ok.dtype == bool



def test_envelope_batch_makes_one_call_per_plan_group(monkeypatch):
    # The batch of test_envelope_batch_gives_each_set_its_models_bits
    # takes plans [0, 2, 4, 2, 0]: one envelope density call per plan,
    # carrying every set its weighing keeps (the kappa -1 set is
    # refused there), with the rows and flags of the batch unchanged.
    from prodfade import pdist

    sets = np.array((np.ones(5), [1.0, 0.0, 0.3, -1.0, 1.0], np.ones(5),
                     [0.5, 2.0, 0.3, 0.5, 0.5], [1.3, 0.8, 2.0, 1.0, 0.0]))
    r = np.geomspace(1e-3, 8.0, 37)
    rows, ok = pdist._envelope_rows_at(r)((6, 2, 6, 2), sets)
    carried, envelope_pdf = [], pdist._envelope_pdf

    def recording(plan, w, *args, **kwargs):
        carried.append(w.shape[0])
        return envelope_pdf(plan, w, *args, **kwargs)

    monkeypatch.setattr(pdist, "_envelope_pdf", recording)
    again, again_ok = pdist._envelope_rows_at(r)((6, 2, 6, 2), sets)
    assert carried == [2, 1, 1]
    assert np.array_equal(again, rows) and np.array_equal(again_ok, ok)


@pytest.mark.parametrize("cell", [(1, 1, 2, 2), (6, 2, 6, 2)])
def test_batches_of_refused_sets_give_fill_rows(cell):
    # Every set refused by its plan's weighing (kappa -1), on a one-pair
    # and a many-pair cell: rows of 0.0 and False flags, with no warning.
    from prodfade.pdist import _cdf_rows_at, _envelope_rows_at

    ones, bad, z = np.ones(2), np.full(2, -1.0), np.geomspace(1e-3, 5.0, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf_rows, cdf_ok = _cdf_rows_at(z)(cell, np.array((ones, bad, ones, ones)))
        pdf_rows, pdf_ok = _envelope_rows_at(z)(cell, np.array((ones, bad, ones, ones, ones)))
    assert (cdf_rows == 0.0).all() and (pdf_rows == 0.0).all()
    assert cdf_rows.shape == pdf_rows.shape == (2, z.size)
    assert cdf_ok.tolist() == pdf_ok.tolist() == [False, False]


def test_a_plan_fault_refuses_its_own_group_alone(monkeypatch):
    # With the Bessel orders capped at 2, the collapsed plan of cell
    # (1, 4, 1, 4) (both kappas 0, orders <= 1) still evaluates, and the
    # full plan (cdf orders up to 4, pdf up to 3) raises.  A batch that
    # mixes the two gives the collapsed sets their models' bits and the
    # full-plan sets rows of 0.0 and False, and raises nothing.
    from prodfade import specfun
    from prodfade.pdist import _cdf_rows_at, _envelope_rows_at

    monkeypatch.setattr(specfun, "MAX_BESSEL_ORDER", 2)
    kappas_a, kappas_b = np.array([0.0, 1.0, 0.0, 0.5]), np.array([0.0, 2.0, 0.0, 0.5])
    means, scales = np.array([1.0, 1.0, 2.0, 1.0]), np.array([1.3, 1.0, 0.7, 1.0])
    z, r = np.geomspace(1e-4, 20.0, 19), np.geomspace(1e-3, 6.0, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf_rows, cdf_ok = _cdf_rows_at(z)((1, 4, 1, 4),
                                           np.array((means, kappas_a, means, kappas_b)))
        pdf_rows, pdf_ok = _envelope_rows_at(r)((1, 4, 1, 4), np.array((np.ones(4), kappas_a,
                                                                        np.ones(4), kappas_b,
                                                                        scales)))
    assert cdf_ok.tolist() == pdf_ok.tolist() == [True, False, True, False]
    for i in (0, 2):
        model = make((means[i], kappas_a[i], 1, 4), (means[i], kappas_b[i], 1, 4))
        assert np.array_equal(cdf_rows[i], model.cdf(z))
        unit = make((1.0, kappas_a[i], 1, 4), (1.0, kappas_b[i], 1, 4))
        assert np.array_equal(pdf_rows[i], EnvelopeModel(unit, scales[i]).pdf(r))
    assert (cdf_rows[[1, 3]] == 0.0).all() and (pdf_rows[[1, 3]] == 0.0).all()
    with pytest.raises(ValueError, match="Bessel order"):
        make((1.0, 1.0, 1, 4), (1.0, 2.0, 1, 4)).cdf(z)


def test_an_envelope_argument_underflow_gives_its_set_density_zero(monkeypatch):
    # At scale 1e300 the Bessel arguments of these points underflow, and
    # their logs do not: that set is evaluated in the same call as the
    # scale-1 set, with no warning, and its density is the limit 0 at
    # every point.  Each row is its model's pdf, bit for bit.
    from prodfade import pdist

    r, scales, ones = np.array([1e-160, 1e-3, 1.0]), np.array([1.0, 1e300]), np.ones(2)
    carried, envelope_pdf = [], pdist._envelope_pdf

    def recording(plan, w, *args, **kwargs):
        carried.append(w.shape[0])
        return envelope_pdf(plan, w, *args, **kwargs)

    monkeypatch.setattr(pdist, "_envelope_pdf", recording)
    product = make((1.0, 1.0, 1, 4), (1.0, 1.0, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, ok = pdist._envelope_rows_at(r)((1, 4, 2, 1), np.array((ones, ones, ones, ones,
                                                                      scales)))
        assert carried == [2] and ok.tolist() == [True, True]
        far = EnvelopeModel(product, 1e300).pdf(r)
    assert np.array_equal(rows[0], EnvelopeModel(product, 1.0).pdf(r))
    assert np.array_equal(rows[1], far) and (far == 0.0).all()


def test_a_product_mean_below_the_double_range_is_evaluated():
    # The product of these links' mean powers, 1e-600, underflows to 0 as
    # a double and not as a log: the model and the cdf batch check the
    # mean by its log, and at z = 1 and 1e300, where the Bessel arguments
    # pass the largest double, the cdf takes its limit 1, with no warning.
    from prodfade.pdist import _cdf_rows_at

    z, tiny, ones = np.array([1.0, 1e300]), np.array([1e-300]), np.ones(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = make((1e-300, 1.0, 1, 4), (1e-300, 1.0, 2, 1))
        assert model.cdf(z).tolist() == [1.0, 1.0]
        rows, ok = _cdf_rows_at(z)((1, 4, 2, 1), np.array((tiny, ones, tiny, ones)))
    assert ok.all() and rows.tolist() == [[1.0, 1.0]]


def test_envelope_model_refuses_a_bad_constant_at_construction():
    # The constant c = envelope_scale / sqrt_mean that cdf and sample
    # use is checked where it is formed, as the pdf checks its own.
    p = make((1.0, 1.0, 6, 2), (1.0, 0.5, 4, 1))
    p.__dict__["sqrt_mean"] = -0.8
    with pytest.raises(ArithmeticError, match="envelope constant is not finite and > 0"):
        EnvelopeModel(p, 1.3)

@pytest.mark.parametrize("mu, m", [(6, 2), (2, 3)])
def test_collapse_boundary_is_one_rule_on_every_path(mu, m):
    # A link at kappa <= KAPPA_ZERO_TOL is the single term Gamma(mu), and
    # above it the full expansion, for the mixture, the model's plan and
    # both fits' batches alike; each batch row is its model's, bit for
    # bit.  Just above the tolerance a mu > m link's signed weights do not
    # sum to one, so the mixture, the model and the batches all refuse it
    # (ROADMAP item 1).
    from prodfade.mixture import KAPPA_ZERO_TOL
    from prodfade.pdist import _cdf_rows_at, _envelope_rows_at

    kappas = np.array([0.0, KAPPA_ZERO_TOL / 2, KAPPA_ZERO_TOL,
                       np.nextafter(KAPPA_ZERO_TOL, 1.0)])
    other, ones, half = ShadowedParams(1.0, 0.5, 4, 1), np.ones(4), np.full(4, 0.5)
    z, r = np.geomspace(1e-5, 30.0, 23), np.geomspace(1e-3, 5.0, 17)
    cdf_rows, cdf_ok = _cdf_rows_at(z)((mu, m, 4, 1), np.array((ones, kappas, ones, half)))
    pdf_rows, pdf_ok = _envelope_rows_at(r)((mu, m, 4, 1),
                                            np.array((ones, kappas, ones, half, np.full(4, 1.3))))
    for i, kappa in enumerate(kappas.tolist()):
        link = ShadowedParams(1.0, kappa, mu, m)
        if mu > m and kappa > KAPPA_ZERO_TOL:
            with pytest.raises(ValueError) as refused:
                expand(link)
            with pytest.raises(ValueError) as model_refused:
                ProductModel(link, other)
            assert str(model_refused.value) == str(refused.value)
            assert not cdf_ok[i] and not pdf_ok[i]
            continue
        terms = len(expand(link))
        assert (terms == 1) == (kappa <= KAPPA_ZERO_TOL)
        model = ProductModel(link, other)
        assert model.pair_count == terms * len(expand(other))
        assert cdf_ok[i] and np.array_equal(cdf_rows[i], model.cdf(z))
        assert pdf_ok[i] and np.array_equal(pdf_rows[i], EnvelopeModel(model, 1.3).pdf(r))


def test_envelope_past_the_double_range():
    # r^2 past the largest double: the cdf takes its limit 1 and the pdf
    # its limit 0, as ProductModel's do at 1e308, with no warning; the
    # finite points keep their pdf bits.  Where r^2 underflows to 0, its
    # log does not, and r = 1e-170 is a point like any other.
    env = EnvelopeModel(make((1.0, 2.0, 1, 4), (1.0, 1.0, 2, 1)), 1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env.cdf(1e200) == 1.0 and env.pdf(1e160) == 0.0
        assert env.pdf(np.finfo(float).max) == 0.0
        r = np.array([1e160, 1.0, 1e-3])
        assert np.array_equal(env.pdf(r)[1:], env.pdf(r[1:])) and env.pdf(r)[0] == 0.0
        assert env.cdf(r)[0] == 1.0
        assert np.allclose(env.cdf(r)[1:], env.cdf(r[1:]), rtol=1e-14, atol=0.0)
        assert env.pdf(1e-170) > 0.0 and env.pdf(1.6e-162) > 0.0


@pytest.mark.parametrize("point", [-1.0, 0.0, math.nan, math.inf, -math.inf, 1e-170])
def test_batch_evaluators_check_their_points_as_the_models_do(point):
    # A point outside a batch's domain raises ValueError, as the models'
    # own evaluators do, before any set is weighed: no warning, no
    # refused sets, no density of a wrong sign.  1e-170 is a valid point
    # of both, whose envelope square underflows to 0 and whose log does
    # not: each batch gives its model's bits.
    from prodfade.pdist import _cdf_rows_at, _envelope_rows_at

    one = np.ones((4, 1))
    pts = np.array([point, 1.0])
    env = EnvelopeModel(make((1.0, 1.0, 1, 4), (1.0, 1.0, 2, 1)), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if point == 1e-170:
            rows, ok = _cdf_rows_at(pts)((1, 4, 2, 1), one)
            assert ok.all() and np.array_equal(rows[0], env.product.cdf(pts))
            rows, ok = _envelope_rows_at(pts)((1, 4, 2, 1), np.ones((5, 1)))
            assert ok.all() and np.array_equal(rows[0], env.pdf(pts)) and (rows[0] > 0.0).all()
            return
        with pytest.raises(ValueError, match="envelope pdf requires finite r") as batch:
            _envelope_rows_at(pts)
        with pytest.raises(ValueError) as model:
            env.pdf(pts)
        assert str(batch.value) == str(model.value)
        with pytest.raises(ValueError, match="finite z > 0"):
            _cdf_rows_at(pts)


@pytest.mark.parametrize("pair", MODEL_PAIRS + [((1.0, 1.0, 6, 2), (1.0, 0.5, 4, 1)),
                                                ((1.0, 1.0, 3, 1), (2.0, 2.0, 6, 2)),
                                                ((0.3, 0.0, 3, 1), (1.0, 2.6, 1, 30))])
def test_sqrt_mean_matches_link_half_moments(pair):
    # E[sqrt(Z)] summed over the pairs on the plan is the product of the
    # links' half moments, to the rounding of the signed sums.
    p = make(*pair)
    by_links = p.mixture_a.moment(0.5) * p.mixture_b.moment(0.5)
    assert abs(p.sqrt_mean - by_links) <= 4 * np.finfo(float).eps * p.abs_weight_sum * by_links


def test_envelope_pdf_and_sqrt_mean_match_50_digit_pair_sums():
    # Against the model's own pair weights, shapes and log scales summed
    # at 50 digits.  Below r = 0.1 the signed pairs of this mu > m product
    # cancel: the envelope density falls to 2e-12 at r = 0.01, out of
    # pair terms near one, and its relative error grows to ~1e-3 there.
    p = make((1.0, 1.0, 6, 2), (1.0, 0.5, 4, 1))
    s = 1.3
    with mpmath.workdps(50):
        terms = [(mpmath.mpf(float(w)), int(ka), int(kb), mpmath.exp(mpmath.mpf(float(lth))))
                 for w, ka, kb, lth in zip(p._w[0], p._plan.pairs.shapes_a,
                                           p._plan.pairs.shapes_b,
                                           p._lth[0].take(p._plan.pairs.theta))]
        half = mpmath.fsum(w * mpmath.gamma(ka + 0.5) * mpmath.gamma(kb + 0.5) * mpmath.sqrt(th)
                           / (mpmath.gamma(ka) * mpmath.gamma(kb)) for w, ka, kb, th in terms)
        assert abs(p.sqrt_mean / half - 1) <= 1.5e-15
        c2 = (s / half) ** 2

        def envelope_pdf(r):
            z = mpmath.mpf(r) ** 2 / c2
            k = {}      # K_0 .. K_5 per scale product, by upward recurrence
            for th in {th for _, _, _, th in terms}:
                x = 2 * mpmath.sqrt(z / th)
                k[th] = [mpmath.besselk(0, x), mpmath.besselk(1, x)]
                for n in range(1, 5):
                    k[th].append(k[th][n - 1] + 2 * n / x * k[th][n])
            return 2 * r / c2 * mpmath.fsum(
                w * 2 * z ** (mpmath.mpf(ka + kb) / 2 - 1) * th ** (-mpmath.mpf(ka + kb) / 2)
                * k[th][abs(ka - kb)] / (mpmath.gamma(ka) * mpmath.gamma(kb))
                for w, ka, kb, th in terms)

        r = [0.01, 0.1, 0.2, 0.5, 1.0, 1.3, 2.0, 3.0, 5.0, 8.0]
        got = EnvelopeModel(p, s).pdf(np.array(r))
        err = [abs(g / envelope_pdf(ri) - 1) for g, ri in zip(got.tolist(), r)]
    assert err[0] <= 1.5e-3
    assert max(err[1:]) <= 5e-10


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

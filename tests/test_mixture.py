import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from prodfade.mixture import (
    KAPPA_ZERO_TOL,
    RICIAN_PROXY_M,
    GammaMixture,
    ShadowedParams,
    cdf_single,
    expand,
    pdf_single,
    sample_single,
)

PARAM_GRID = [
    ShadowedParams(1.0, 0.0, 1, 1),
    ShadowedParams(1.0, 1.0, 1, 2),
    ShadowedParams(1.0, 1.0, 2, 1),
    ShadowedParams(2.0, 3.2, 2, 5),
    ShadowedParams(0.7, 0.5, 4, 2),
    ShadowedParams(1.0, 10.0, 3, 1),
    ShadowedParams(1.0, 25.0, 8, 7),
    ShadowedParams(3.0, 6.4641016151377544, 2, 20),
    ShadowedParams(1.0, 0.1, 5, 12),
    ShadowedParams(1.0, 2.6, 1, 4),
]


def closed_form_pdf(p, x):
    """Power density via the confluent-hypergeometric closed form."""
    mu, m, k, g = p.mu, p.m, p.kappa, p.mean_power
    pref = (mu ** mu * m ** m * (1 + k) ** mu) / (
        special.gamma(mu) * g * (mu * k + m) ** m
    )
    arg = mu ** 2 * k * (1 + k) / (mu * k + m) * x / g
    with np.errstate(invalid="ignore", over="ignore"):
        return (
            pref * (x / g) ** (mu - 1) * np.exp(-mu * (1 + k) * x / g)
            * special.hyp1f1(m, mu, arg)
        )


def test_table_terms_mu_below_m_hand_example():
    # mean 1, kappa 1, mu 1, m 2: base = 2/3, dom = 1/3, boosted scale
    # (mu kappa + m)/m * mean/(mu (1+kappa)) = 3/4.  expand lists the
    # terms by descending |weight|.
    mix = expand(ShadowedParams(1.0, 1.0, 1, 2))
    assert len(mix) == 2
    assert mix.weights[0] == pytest.approx(2.0 / 3.0)
    assert mix.shapes[0] == 1
    assert mix.scales[0] == pytest.approx(0.75)
    assert mix.weights[1] == pytest.approx(1.0 / 3.0)
    assert mix.shapes[1] == 2
    assert mix.scales[1] == pytest.approx(0.75)


def test_table_terms_mu_above_m_hand_example():
    # mean 1, kappa 1, mu 2, m 1: the zero-weight leading table row is
    # pruned, the two signed terms remain.
    mix = expand(ShadowedParams(1.0, 1.0, 2, 1))
    assert len(mix) == 2
    assert mix.weights[0] == pytest.approx(1.5)
    assert mix.shapes[0] == 1
    assert mix.scales[0] == pytest.approx(0.75)
    assert mix.weights[1] == pytest.approx(-0.5)
    assert mix.shapes[1] == 1
    assert mix.scales[1] == pytest.approx(0.25)


def test_table_terms_zero_kappa_single_gamma():
    mix = expand(ShadowedParams(1.0, 0.0, 3, 5))
    terms = list(zip(mix.weights.tolist(), mix.shapes.tolist(), mix.scales.tolist()))
    assert terms == [(1.0, 3, pytest.approx(1.0 / 3.0))]


def reference_table(params):
    """The expansion's term table, one term at a time in extended precision.

    Returns (weights, shapes, scales) in canonical table order; the mu > m
    table's leading term has an exact zero weight.  A mu > m link at kappa
    <= KAPPA_ZERO_TOL is the single term Gamma(mu); a mu <= m link takes its
    table at every kappa.
    """
    gbar = np.longdouble(params.mean_power)
    kap = np.longdouble(params.kappa)
    mu, m = params.mu, params.m
    if mu > m and params.kappa <= KAPPA_ZERO_TOL:
        return np.array([np.longdouble(1.0)]), np.array([mu]), np.array([gbar / mu])
    mk = mu * kap
    base = np.longdouble(m) / (mk + m)
    dom = mk / (mk + m)
    unit = gbar / (mu * (np.longdouble(1.0) + kap))
    boosted = unit / base
    terms = []
    if mu <= m:
        for i in range(m - mu + 1):
            terms.append((special.comb(m - mu, i, exact=True) * base**i * dom ** (m - mu - i),
                          m - i, boosted))
    else:
        terms.append((np.longdouble(0.0), mu - m + 1, unit))
        for i in range(1, mu + 1):
            if i <= mu - m:
                terms.append(((-1) ** m * special.comb(m + i - 2, i - 1, exact=True)
                              * base**m * dom ** (-m - i + 1), mu - m - i + 1, unit))
            else:
                terms.append(((-1) ** (i - mu + m - 1)
                              * special.comb(i - 2, i - mu + m - 1, exact=True)
                              * base ** (i - mu + m - 1) * dom ** (-i + 1), mu - i + 1, boosted))
    w, k, s = zip(*terms)
    return np.array(w, dtype=np.longdouble), np.array(k), np.array(s, dtype=np.longdouble)


def reference_expand(params):
    """``expand`` from the per-term table: prune zeros, sort by |weight|, round."""
    w, k, s = reference_table(params)
    keep = w != 0.0
    w, k, s = w[keep], k[keep], s[keep]
    order = np.argsort(-np.abs(w), kind="stable")
    return GammaMixture(w[order].astype(float), k[order], s[order].astype(float))


@pytest.mark.parametrize("kappa", [0.0, 1e-13, 1e-9, 1e-3, 0.1, 1.0, 50.0])
def test_expand_matches_the_per_term_table(kappa):
    # The weights come from a cached kappa-free layout per (mu, m); they
    # are the table's to the last bit, refusals included.
    for mean_power in (1.0, 0.37):
        for mu in range(1, 17):
            for m in range(1, 17):
                p = ShadowedParams(mean_power, kappa, mu, m)
                try:
                    ref = reference_expand(p)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc).split(" (")[0]):
                        expand(p)
                    continue
                mix = expand(p)
                for name in ("weights", "shapes", "scales"):
                    assert np.array_equal(getattr(mix, name), getattr(ref, name)), (p, name)


def test_expand_prunes_zero_weights_and_sorts():
    mix = expand(ShadowedParams(1.0, 1.0, 2, 1))
    assert mix.weights.size == 2
    assert np.all(mix.weights != 0.0)
    assert np.all(np.abs(mix.weights)[:-1] >= np.abs(mix.weights)[1:])
    assert mix.abs_weight_sum == pytest.approx(2.0)


@pytest.mark.parametrize("kappa", [0.0, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0])
@pytest.mark.parametrize("mu,m", [(1, 1), (1, 6), (2, 3), (3, 2), (5, 5), (5, 2), (2, 20), (6, 12)])
def test_weights_sum_to_one(kappa, mu, m):
    mix = expand(ShadowedParams(1.0, kappa, mu, m))
    assert abs(math.fsum(mix.weights) - 1.0) <= 1e-12


def test_ill_conditioned_expansion_is_rejected():
    # Tiny kappa with mu far above m produces alternating weights so
    # large that double precision cannot carry the cancellation; the
    # weight-sum gate must refuse rather than return a bad mixture.
    with pytest.raises(ValueError):
        expand(ShadowedParams(1.0, 0.05, 8, 2))


@pytest.mark.parametrize("p", PARAM_GRID)
def test_pdf_matches_closed_form(p):
    x = np.geomspace(1e-3, 8.0, 30) * p.mean_power
    got = pdf_single(p, x)
    expected = closed_form_pdf(p, x)
    # The reference form overflows its hypergeometric factor for large
    # kappa * x; compare where it is representable (most of the grid).
    mask = np.isfinite(expected)
    assert mask.sum() >= 20
    np.testing.assert_allclose(got[mask], expected[mask], rtol=5e-7)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_pdf_integrates_to_one(p):
    val, err = quad(lambda t: pdf_single(p, t), 0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_cdf_matches_quadrature(p):
    for x in (0.2, 1.0, 3.5):
        val, err = quad(lambda t: pdf_single(p, t), 0, x * p.mean_power, limit=200)
        assert cdf_single(p, x * p.mean_power) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_cdf_limits_and_monotonicity(p):
    x = np.geomspace(1e-6, 50.0, 60) * p.mean_power
    f = cdf_single(p, x)
    assert cdf_single(p, 0.0) == 0.0
    # Signed-weight accumulation leaves noise of order 1e-20 in the
    # deep lower tail; monotonicity holds to that resolution.
    assert np.all(np.diff(f) >= -1e-15)
    assert np.all((f >= 0) & (f <= 1))
    assert cdf_single(p, 1e6 * p.mean_power) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_pdf_nonnegative_on_dense_grid(p):
    x = np.geomspace(1e-8, 100.0, 400) * p.mean_power
    assert np.all(pdf_single(p, x) >= -1e-12)


def test_cdf_derivative_matches_pdf():
    p = ShadowedParams(1.0, 2.0, 2, 3)
    x = np.linspace(0.05, 6.0, 50)
    h = 1e-6
    deriv = (cdf_single(p, x + h) - cdf_single(p, x - h)) / (2 * h)
    np.testing.assert_allclose(deriv, pdf_single(p, x), rtol=1e-5)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_first_moment_is_mean_power(p):
    mix = expand(p)
    assert mix.moment(1) == pytest.approx(p.mean_power, rel=1e-12)


def test_higher_and_fractional_moments_match_quadrature():
    p = ShadowedParams(1.3, 2.0, 2, 3)
    mix = expand(p)
    for order in (0.5, 2, 3):
        val, err = quad(lambda t: t ** order * pdf_single(p, t), 0, np.inf, limit=300)
        assert mix.moment(order) == pytest.approx(val, rel=1e-8)


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
def test_moment_refuses_non_finite_order(order):
    mix = expand(ShadowedParams(1.0, 1.0, 1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            mix.moment(order)


def test_moment_zero_is_one():
    mix = expand(ShadowedParams(2.0, 4.0, 3, 2))
    assert mix.moment(0) == pytest.approx(1.0, rel=1e-12)


def test_pdf_at_origin_by_total_shape():
    # A single-cluster channel has an exponential-like density with a
    # finite positive value at zero; more clusters pull it to zero.
    assert pdf_single(ShadowedParams(1.0, 1.0, 1, 2), 0.0) > 0.0
    assert pdf_single(ShadowedParams(1.0, 1.0, 2, 3), 0.0) == 0.0


def test_tiny_kappa_collapses_to_gamma():
    # A mu > m link at kappa <= KAPPA_ZERO_TOL is the single term Gamma(mu).
    # A mu <= m link keeps its full expansion there, whose cdf is within
    # 1e-12 of Gamma(mu)'s, and at kappa 0 is the one term Gamma(mu).
    mix = expand(ShadowedParams(1.0, KAPPA_ZERO_TOL / 2, 5, 3))
    assert mix.weights.size == 1
    assert mix.shapes[0] == 5
    assert mix.scales[0] == pytest.approx(1.0 / 5.0)
    full = expand(ShadowedParams(1.0, KAPPA_ZERO_TOL / 2, 3, 5))
    assert sorted(full.shapes.tolist()) == [3, 4, 5]
    x = np.geomspace(1e-4, 10.0, 31)
    gamma3 = special.gammainc(3, 3.0 * x)
    assert np.max(np.abs(full.cdf(x) - gamma3)) <= 1e-12
    zero = expand(ShadowedParams(1.0, 0.0, 3, 5))
    assert (zero.weights.tolist(), zero.shapes.tolist()) == ([1.0], [3])
    assert zero.scales[0] == pytest.approx(1.0 / 3.0)


def test_the_form_rule_gives_an_integer_pair_and_collapses_to_the_mu_mu_layout():
    # A link's form is the integer pair (mu, m) of its layout, or (mu, mu)
    # for a mu > m link at kappa <= KAPPA_ZERO_TOL: the Nakagami limit
    # Gamma(mu) is the (mu, mu) layout, whose expansion the collapsed link
    # gets bit for bit at every mean power.
    from prodfade.mixture import _link_form

    kappas = [0.0, 5e-324, 1e-13, KAPPA_ZERO_TOL, float(np.nextafter(KAPPA_ZERO_TOL, 1.0)), 0.1]
    for mu in range(1, 9):
        for m in range(1, 9):
            for kappa in kappas:
                form = _link_form(mu, m, kappa)
                assert type(form) is tuple and [type(v) for v in form] == [int, int]
                collapsed = mu > m and kappa <= KAPPA_ZERO_TOL
                assert form == ((mu, mu) if collapsed else (mu, m)), (mu, m, kappa)
                if not collapsed:
                    continue
                for mean in (1.0, 5e-300, 3e250):
                    got = expand(ShadowedParams(mean, kappa, mu, m))
                    want = expand(ShadowedParams(mean, kappa, mu, mu))
                    assert got.shapes.tolist() == [mu]
                    for a, b in ((got.weights, want.weights), (got.shapes, want.shapes),
                                 (got.scales, want.scales)):
                        assert np.array_equal(a, b), (mu, m, kappa, mean)


def test_values_past_the_double_range_take_their_limits():
    # x / scale overflows at x = 1e308 for scales below 1; there the
    # density is 0 and the distribution function 1, with no warning.  The
    # finite point keeps the bits it has on a finite grid of two points.
    mix = expand(ShadowedParams(1.0, 2.6, 3, 1))
    assert mix.scales.min() < 1.0
    x = [1.0, 1e308]
    pdf, cdf = mix.pdf(x), mix.cdf(x)
    assert pdf[1] == 0.0 and cdf[1] == 1.0
    assert pdf[0] == mix.pdf([1.0, 2.0])[0] and cdf[0] == mix.cdf([1.0, 2.0])[0]


def test_nakagami_and_rayleigh_shortcuts():
    ray = ShadowedParams.rayleigh(2.0)
    assert (ray.kappa, ray.mu) == (0.0, 1)
    x = np.linspace(0.1, 5.0, 7)
    np.testing.assert_allclose(pdf_single(ray, x), np.exp(-x / 2.0) / 2.0, rtol=1e-13)

    nak = ShadowedParams.nakagami(3, 1.5)
    mix = expand(nak)
    assert mix.shapes.tolist() == [3]
    assert mix.scales[0] == pytest.approx(0.5)

    ric = ShadowedParams.rician(4.0)
    assert ric.mu == 1 and ric.m == RICIAN_PROXY_M


def test_rician_proxy_close_to_exact_rice():
    # Exact Rice power cdf via the noncentral chi-square; the finite-m
    # proxy approaches it as m grows.
    import scipy.stats as st

    k = 4.0
    x = np.linspace(0.05, 4.0, 12)
    exact = st.ncx2.cdf(2 * (1 + k) * x, df=2, nc=2 * k)
    err_default = np.max(np.abs(cdf_single(ShadowedParams.rician(k), x) - exact))
    err_heavy = np.max(np.abs(cdf_single(ShadowedParams.rician(k, m=120), x) - exact))
    assert err_default < 0.03
    assert err_heavy < err_default / 4


def test_sampler_matches_cdf():
    p = ShadowedParams(1.5, 2.0, 2, 3)
    rng = np.random.default_rng(7)
    samples = sample_single(p, rng, 200_000)
    assert samples.min() > 0
    s = np.sort(samples)
    ecdf = np.arange(1, s.size + 1) / s.size
    ks = np.max(np.abs(cdf_single(p, s) - ecdf))
    # 99% KS quantile for n = 2e5 is about 1.63 / sqrt(n) = 0.00364.
    assert ks < 0.00364
    assert samples.mean() == pytest.approx(p.mean_power, rel=0.02)


def test_sampler_is_deterministic_under_seed():
    p = ShadowedParams(1.0, 1.0, 1, 2)
    a = sample_single(p, np.random.default_rng(42), 1000)
    b = sample_single(p, np.random.default_rng(42), 1000)
    np.testing.assert_array_equal(a, b)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ShadowedParams(0.0, 1.0, 1, 1)
    with pytest.raises(ValueError):
        ShadowedParams(1.0, -0.5, 1, 1)
    with pytest.raises(ValueError):
        ShadowedParams(1.0, 1.0, 0, 1)
    with pytest.raises(ValueError):
        ShadowedParams(1.0, 1.0, 1.5, 1)
    with pytest.raises(ValueError):
        ShadowedParams(1.0, 1.0, 1, 0)
    with pytest.raises(ValueError):
        ShadowedParams(np.inf, 1.0, 1, 1)


def test_mixture_rejects_inconsistent_arrays():
    with pytest.raises(ValueError):
        GammaMixture([0.5, 0.5], [1, 2, 3], [1.0, 1.0])
    with pytest.raises(ValueError):
        GammaMixture([0.7, 0.7], [1, 2], [1.0, 1.0])  # weights sum to 1.4
    with pytest.raises(ValueError):
        GammaMixture([0.5, 0.5], [1, -2], [1.0, 1.0])
    with pytest.raises(ValueError):
        GammaMixture([0.5, 0.5], [1, 2], [1.0, -1.0])


@pytest.mark.parametrize("weights", [[np.nan], [0.5, np.nan, 0.5]])
def test_mixture_refuses_a_nan_weight_sum(weights):
    # |NaN - 1| > tol is False, so the weight check is written to fail NaN.
    with pytest.raises(ValueError, match="weights must sum to 1"):
        GammaMixture(weights, [1] * len(weights), [1.0] * len(weights))


@pytest.mark.parametrize("order", [1, 2])
def test_moment_whose_sum_is_not_positive_raises(order):
    # 2 E[Gamma(1)^n] - E[Gamma(3)^n] is -1 at n = 1 and -8 at n = 2: no
    # law's moment, so it is refused as the product's moments are.
    mix = GammaMixture([2.0, -1.0], [1, 3], [1.0, 1.0])
    with pytest.raises(ArithmeticError, match="is not > 0") as info:
        mix.moment(order)
    assert info.type is ArithmeticError


@pytest.mark.parametrize("shape", [1.5, np.nan, np.inf, 1e30, -1e30])
def test_mixture_refuses_shapes_that_are_not_int64_integers(shape):
    # A shape of 1.5 was truncated to 1, which made the mixture Gamma(1)
    # (its cdf at 1.0 was 0.632); NaN, inf and 1e30 raised numpy's cast
    # errors, one of them OverflowError.
    with pytest.raises(ValueError, match="shapes must hold integers within the int64 range"):
        GammaMixture([1.0], [shape], [1.0])


def test_mixture_arrays_are_read_only():
    mix = expand(ShadowedParams(1.0, 1.0, 1, 2))
    with pytest.raises(ValueError):
        mix.weights[0] = 0.0
    with pytest.raises(ValueError):
        mix.shapes[0] = 5
    with pytest.raises(ValueError):
        mix.scales[0] = 2.0


def test_expand_is_cached():
    a = expand(ShadowedParams(1.0, 1.0, 1, 2))
    b = expand(ShadowedParams(1.0, 1.0, 1, 2))
    assert a is b


def test_cdf_rejects_nan(monkeypatch):
    monkeypatch.setattr("scipy.special.gammainc",
                        lambda a, x: np.full(np.broadcast(a, x).shape, np.nan))
    with pytest.raises(ArithmeticError):
        cdf_single(ShadowedParams(1.0, 1.0, 1, 2), [0.1, 1.0])


def test_pdf_rejects_nan(monkeypatch):
    mix = expand(ShadowedParams(1.0, 1.0, 1, 2))
    monkeypatch.setattr("prodfade.mixture.ln_gamma_ints",
                        lambda a: np.full(np.shape(a), np.nan))
    with pytest.raises(ArithmeticError):
        mix.pdf([0.1, 1.0])

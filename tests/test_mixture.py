import math

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
    table's leading term has an exact zero weight.
    """
    gbar = np.longdouble(params.mean_power)
    kap = np.longdouble(params.kappa)
    mu, m = params.mu, params.m
    if params.kappa <= KAPPA_ZERO_TOL:
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


def test_moment_zero_is_one():
    mix = expand(ShadowedParams(2.0, 4.0, 3, 2))
    assert mix.moment(0) == pytest.approx(1.0, rel=1e-12)


def test_pdf_at_origin_by_total_shape():
    # A single-cluster channel has an exponential-like density with a
    # finite positive value at zero; more clusters pull it to zero.
    assert pdf_single(ShadowedParams(1.0, 1.0, 1, 2), 0.0) > 0.0
    assert pdf_single(ShadowedParams(1.0, 1.0, 2, 3), 0.0) == 0.0


def test_tiny_kappa_collapses_to_gamma():
    mix = expand(ShadowedParams(1.0, KAPPA_ZERO_TOL / 2, 3, 5))
    assert mix.weights.size == 1
    assert mix.shapes[0] == 3
    assert mix.scales[0] == pytest.approx(1.0 / 3.0)


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
    monkeypatch.setattr("prodfade.mixture.special.gammainc",
                        lambda a, x: np.full(np.broadcast(a, x).shape, np.nan))
    with pytest.raises(ArithmeticError):
        cdf_single(ShadowedParams(1.0, 1.0, 1, 2), [0.1, 1.0])


def test_pdf_rejects_nan(monkeypatch):
    mix = expand(ShadowedParams(1.0, 1.0, 1, 2))
    monkeypatch.setattr("prodfade.mixture.special.gammaln",
                        lambda a: np.full(np.shape(a), np.nan))
    with pytest.raises(ArithmeticError):
        mix.pdf([0.1, 1.0])

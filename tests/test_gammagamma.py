import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from prodfade.gammagamma import (
    GammaGammaParams,
    gg_cdf,
    gg_mgf,
    gg_moment,
    gg_pdf,
    weighted_cdf_sum,
    weighted_pdf_sum,
)

# Frozen reference values, cross-checked against adaptive quadrature of
# the conditional-Gamma integral representation.
CDF_REFERENCE = [
    ((3, 2, 1.0, 1.0), 2.0, 0.24186338596690837),
    ((2, 1, 0.5, 2.0), 0.7, 0.39684874521135427),
]

MGF_REFERENCE = [
    ((2, 3, 1.0, 0.5), -0.3, 0.5166469743870957),
]

PARAM_CASES = [
    GammaGammaParams(1, 1, 1.0, 1.0),
    GammaGammaParams(2, 1, 0.5, 2.0),
    GammaGammaParams(3, 2, 1.0, 1.0),
    GammaGammaParams(2, 3, 1.0, 0.5),
    GammaGammaParams(5, 8, 0.25, 1.5),
    GammaGammaParams(12, 3, 2.0, 0.1),
]


def product_pdf_quadrature(p, y):
    """Conditional-Gamma integral: f_Y(y) = int f_A(a) f_B(y/a) / a da."""
    fa = stats.gamma(p.m, scale=p.omega).pdf
    fb = stats.gamma(p.m_hat, scale=p.omega_hat).pdf
    val, err = quad(lambda a: fa(a) * fb(y / a) / a, 0, np.inf, limit=300)
    return val


@pytest.mark.parametrize("args,x,expected", CDF_REFERENCE)
def test_cdf_reference_values(args, x, expected):
    assert gg_cdf(GammaGammaParams(*args), x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("args,s,expected", MGF_REFERENCE)
def test_mgf_reference_values(args, s, expected):
    assert gg_mgf(GammaGammaParams(*args), s) == pytest.approx(expected, rel=1e-12)


def test_rayleigh_product_closed_form():
    # Unit-exponential product: F(x) = 1 - 2 sqrt(x) K_1(2 sqrt(x)).
    p = GammaGammaParams(1, 1, 1.0, 1.0)
    x = np.array([0.04, 0.25, 1.0, 4.0])
    expected = 1.0 - 2.0 * np.sqrt(x) * special.kv(1, 2.0 * np.sqrt(x))
    np.testing.assert_allclose(gg_cdf(p, x), expected, rtol=1e-12)
    assert gg_cdf(p, 1.0) == pytest.approx(1.0 - 2.0 * special.kv(1, 2.0), rel=1e-13)


@pytest.mark.parametrize("p", PARAM_CASES)
def test_pdf_matches_quadrature(p):
    mean = p.m * p.omega * p.m_hat * p.omega_hat
    for y in (0.1 * mean, mean, 3.0 * mean):
        assert gg_pdf(p, y) == pytest.approx(product_pdf_quadrature(p, y), rel=1e-8)


@pytest.mark.parametrize("m,m_hat", [(1, 1), (1, 3), (1, 8), (2, 1), (2, 3), (2, 8), (5, 1), (5, 3), (5, 8)])
def test_cdf_matches_pdf_integral(m, m_hat):
    p = GammaGammaParams(m, m_hat, 1.0, 0.7)
    mean = p.m * p.omega * p.m_hat * p.omega_hat
    xs = np.geomspace(0.01 * mean, 5.0 * mean, 50)
    cum = 0.0
    lo = 0.0
    for x in xs:
        piece, err = quad(lambda t: gg_pdf(p, t), lo, x, limit=200)
        cum += piece
        lo = x
        assert abs(gg_cdf(p, x) - cum) < 1e-8


@pytest.mark.parametrize("p", PARAM_CASES)
def test_pdf_shape_symmetry(p):
    swapped = GammaGammaParams(p.m_hat, p.m, p.omega_hat, p.omega)
    y = np.geomspace(0.05, 10.0, 9)
    np.testing.assert_allclose(gg_pdf(p, y), gg_pdf(swapped, y), rtol=1e-11)
    np.testing.assert_allclose(gg_cdf(p, y), gg_cdf(swapped, y), rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("p", PARAM_CASES)
def test_mgf_matches_laplace_quadrature(p):
    for s in (-0.1, -1.0, -10.0):
        val, err = quad(
            lambda t: math.exp(s * t) * gg_pdf(p, t), 0, np.inf, limit=300
        )
        assert gg_mgf(p, s) == pytest.approx(val, rel=1e-6)


def test_mgf_symmetry_and_limits():
    p = GammaGammaParams(2, 5, 1.0, 0.3)
    swapped = GammaGammaParams(5, 2, 0.3, 1.0)
    s = np.array([-20.0, -1.0, -1e-3])
    np.testing.assert_allclose(gg_mgf(p, s), gg_mgf(swapped, s), rtol=1e-10)
    # s -> 0-: MGF tends to 1; far negative s: tends to 0.
    assert gg_mgf(p, -1e-12) == pytest.approx(1.0, abs=1e-10)
    assert gg_mgf(p, -1e9) < 1e-8


def test_mgf_rejects_nonnegative_s():
    p = GammaGammaParams(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        gg_mgf(p, 0.0)
    with pytest.raises(ValueError):
        gg_mgf(p, 0.5)
    with pytest.raises(ValueError):
        gg_mgf(p, np.array([-1.0, 1.0]))


def test_moment_exact_values():
    p = GammaGammaParams(2, 3, 1.0, 1.0)
    assert gg_moment(p, 1) == 6.0
    assert gg_moment(p, 2) == 72.0  # (2*3) * (3*4)
    q = GammaGammaParams(1, 1, 2.0, 0.5)
    assert gg_moment(q, 1) == 1.0
    assert gg_moment(q, 3) == 36.0  # (3!)^2 * 1


@pytest.mark.parametrize("p", PARAM_CASES)
def test_moment_matches_quadrature(p):
    for n in (1, 2, 3):
        val, err = quad(lambda t: t ** n * gg_pdf(p, t), 0, np.inf, limit=300)
        assert gg_moment(p, n) == pytest.approx(val, rel=1e-7)


def test_moment_overflow_and_validation():
    p = GammaGammaParams(50, 50, 10.0, 10.0)
    with pytest.raises(OverflowError):
        gg_moment(p, 100)
    with pytest.raises(ValueError):
        gg_moment(p, 0)
    with pytest.raises(ValueError):
        gg_moment(p, 1.5)


def test_domain_validation():
    p = GammaGammaParams(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        gg_pdf(p, 0.0)
    with pytest.raises(ValueError):
        gg_pdf(p, -1.0)
    with pytest.raises(ValueError):
        gg_cdf(p, -1e-9)
    assert gg_cdf(p, 0.0) == 0.0
    with pytest.raises(ValueError):
        GammaGammaParams(0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        GammaGammaParams(1, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        GammaGammaParams(1, 1.5, 1.0, 1.0)


def test_weighted_sums_reduce_to_single_term():
    p = GammaGammaParams(3, 4, 0.8, 1.1)
    x = np.geomspace(0.1, 20.0, 11)
    w = np.array([1.0])
    pdf = weighted_pdf_sum(w, np.array([3]), np.array([4]), np.array([p.log_scale]), x)
    np.testing.assert_allclose(pdf, gg_pdf(p, x), rtol=1e-13)
    raw = weighted_cdf_sum(w, np.array([3]), np.array([4]), np.array([p.log_scale]), x)
    np.testing.assert_allclose(raw, gg_cdf(p, x), rtol=1e-11, atol=1e-15)


def test_weighted_sums_two_terms_additive():
    # A half/half mixture of two kernels must equal the average of the
    # two single-kernel evaluations.
    x = np.geomspace(0.2, 8.0, 7)
    w = np.array([0.5, 0.5])
    sa = np.array([2, 3])
    sb = np.array([1, 5])
    ls = np.array([0.0, math.log(0.5)])
    pdf = weighted_pdf_sum(w, sa, sb, ls, x)
    p1 = GammaGammaParams(2, 1, 1.0, 1.0)
    p2 = GammaGammaParams(3, 5, 1.0, 0.5)
    np.testing.assert_allclose(pdf, 0.5 * gg_pdf(p1, x) + 0.5 * gg_pdf(p2, x), rtol=1e-12)
    cdf = weighted_cdf_sum(w, sa, sb, ls, x)
    np.testing.assert_allclose(cdf, 0.5 * gg_cdf(p1, x) + 0.5 * gg_cdf(p2, x), rtol=1e-11)


def test_large_shape_tail_is_finite_and_monotone():
    # Dominant-order Bessel terms reach order ~ 240 here; the log-domain
    # ladder keeps everything finite.  The 1 - sum form of the cdf
    # carries ~1e-13 absolute cancellation noise from the 240-term
    # signed series, so monotonicity is asserted up to that floor.
    p = GammaGammaParams(120, 120, 1.0 / 120, 1.0 / 120)
    x = np.geomspace(1e-6, 10.0, 40)
    f = gg_cdf(p, x)
    assert np.all(np.isfinite(f))
    assert np.all(np.diff(f) >= -1e-12)
    d = gg_pdf(p, x)
    assert np.all(np.isfinite(d)) and np.all(d >= 0.0)


def test_cdf_rejects_nan_kernel_sum(monkeypatch):
    monkeypatch.setattr("prodfade.gammagamma.weighted_cdf_sum",
                        lambda *args: np.full(np.shape(args[4]), np.nan))
    with pytest.raises(ArithmeticError):
        gg_cdf(GammaGammaParams(2, 3, 1.0, 1.0), [0.1, 1.0])


def test_pdf_rejects_nan_kernel_sum(monkeypatch):
    monkeypatch.setattr("prodfade.gammagamma.weighted_pdf_sum",
                        lambda *args: np.full(np.shape(args[4]), np.nan))
    with pytest.raises(ArithmeticError):
        gg_pdf(GammaGammaParams(2, 3, 1.0, 1.0), [0.1, 1.0])

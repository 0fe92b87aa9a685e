import math

import mpmath
import numpy as np
import pytest

from prodfade.asym import (
    MATCH_RESIDUAL_TOL,
    asym_cdf,
    asym_cdf_kappa_mu,
    match_kappa,
    tail_offset,
    tail_offset_kappa_mu,
)
from prodfade.errors import NoRootError
from prodfade.mixture import ShadowedParams, expand

# Frozen from the bracketed root solve; the defining identity
# (1+K) e^-K = (1+kappa) (m / (mu kappa + m))^(m/mu) was checked to
# ~4e-15 absolute at each root when frozen.
MATCHED_KAPPA = [
    (10.0, 1, 15, 14.948577431368578),
    (4.0, 2, 8, 8.896963216493333),
    (0.5, 3, 5, 1.0346704357914418),
]


@pytest.mark.parametrize("k,mu,m,expected", MATCHED_KAPPA)
def test_matched_kappa_reference(k, mu, m, expected):
    np.testing.assert_allclose(match_kappa(k, mu, m), expected, rtol=1e-12)


def test_matching_identity_and_ordering():
    for k in (0.1, 1.0, 4.0, 10.0, 30.0):
        for mu in (1, 2, 3):
            for m in (mu + 1, mu + 4, 25):
                kap = match_kappa(k, mu, m)
                assert kap >= k
                lhs = (1.0 + k) * math.exp(-k)
                rhs = (1.0 + kap) * (m / (mu * kap + m)) ** (m / mu)
                assert abs(lhs - rhs) <= MATCH_RESIDUAL_TOL


def test_matched_offsets_agree():
    for k, mu, m, _ in MATCHED_KAPPA:
        kap = match_kappa(k, mu, m)
        np.testing.assert_allclose(
            tail_offset(ShadowedParams(1.0, kap, mu, m)),
            tail_offset_kappa_mu(k, mu),
            rtol=1e-10,
        )


def test_offset_hand_values():
    # kappa = 0 collapses both families to Nakagami-m of shape mu:
    # offset = mu^mu / (mu-1)!.
    assert tail_offset(ShadowedParams(1.0, 0.0, 1, 3)) == pytest.approx(1.0, rel=1e-14)
    assert tail_offset(ShadowedParams(1.0, 0.0, 2, 3)) == pytest.approx(4.0, rel=1e-14)
    assert tail_offset((1.0, 0.0, 2, 3)) == pytest.approx(4.0, rel=1e-14)
    assert tail_offset_kappa_mu(0.0, 2) == pytest.approx(4.0, rel=1e-14)
    assert tail_offset_kappa_mu(0.0, 3) == pytest.approx(13.5, rel=1e-14)


def test_offset_large_m_limit():
    # m -> infinity recovers the unshadowed offset.
    np.testing.assert_allclose(
        tail_offset(ShadowedParams(1.0, 2.0, 2, 50000)),
        tail_offset_kappa_mu(2.0, 2),
        rtol=1e-3,
    )


@pytest.mark.parametrize("kap,mu,m", [(1.5, 1, 4), (1.5, 2, 6), (0.8, 3, 5)])
def test_asym_cdf_is_pure_power_law(kap, mu, m):
    p = ShadowedParams(1.0, kap, mu, m)
    x = np.array([1e-6, 1e-5, 1e-4])
    f = asym_cdf(p, x)
    np.testing.assert_allclose(f[1:] / f[:-1], 10.0**mu, rtol=1e-12)
    assert isinstance(asym_cdf(p, 1e-5), float)


@pytest.mark.parametrize(
    "kap,mu,m", [(1.5, 1, 4), (1.5, 2, 6), (0.8, 3, 5), (10.0, 1, 15)]
)
def test_asym_matches_exact_deep_tail(kap, mu, m):
    p = ShadowedParams(1.0, kap, mu, m)
    mix = expand(p)
    # First-order correction is O(x): observed worst 2.8e-4 at 1e-5
    # and 2.8e-3 at 1e-4 over this grid.
    for xf, tol in ((1e-5, 1e-3), (1e-4, 5e-3)):
        ratio = mix.cdf(np.asarray([xf]))[0] / asym_cdf(p, xf)
        assert abs(ratio - 1.0) <= tol


def test_kappa_mu_asym_cdf_wiring():
    x = np.array([1e-6, 4e-6])
    f = asym_cdf_kappa_mu(2.0, 2, 1.5, x)
    off = tail_offset_kappa_mu(2.0, 2)
    np.testing.assert_allclose(f, (off / 2.0) * (x / 1.5) ** 2, rtol=1e-14)


def test_infinite_m_and_zero_k():
    assert match_kappa(7.5, 1, 15, infinite_m=True) == 7.5
    assert match_kappa(0.0, 2, 9) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        match_kappa(1.0, 2, 2)  # m must exceed mu
    with pytest.raises(ValueError):
        match_kappa(1.0, 0, 5)
    with pytest.raises(ValueError):
        match_kappa(-0.5, 1, 5)
    with pytest.raises(ValueError):
        match_kappa(np.inf, 1, 5)
    with pytest.raises(ValueError):
        tail_offset_kappa_mu(-1.0, 2)
    with pytest.raises(ValueError):
        asym_cdf(ShadowedParams(1.0, 1.0, 1, 2), 0.0)
    with pytest.raises(ValueError):
        asym_cdf_kappa_mu(1.0, 2, 0.0, 1e-4)


def test_match_kappa_rejects_non_integer_orders():
    # int() used to truncate these, silently matching at mu = 1 or m = 15
    with pytest.raises(ValueError, match="mu must be an integer"):
        match_kappa(10.0, 1.5, 15)
    with pytest.raises(ValueError, match="m must be an integer"):
        match_kappa(10.0, 1, 15.5)
    assert match_kappa(10.0, 1.0, 15.0) == match_kappa(10.0, 1, 15)


def test_tail_offset_kappa_mu_rejects_non_integer_mu():
    with pytest.raises(ValueError, match="mu must be an integer"):
        tail_offset_kappa_mu(2.0, 1.7)
    assert tail_offset_kappa_mu(2.0, 2.0) == tail_offset_kappa_mu(2.0, 2)


def test_no_root_error_carries_bracket():
    err = NoRootError("no sign change", lo=0.5, hi=32.0)
    assert isinstance(err, ArithmeticError)
    assert err.lo == 0.5 and err.hi == 32.0


def _mpmath_matched_kappa(k, mu, m):
    """Root of the log identity at 60 digits, bracketed as match_kappa does."""
    with mpmath.workdps(60):
        big_k = mpmath.mpf(k)
        rhs = mpmath.log1p(big_k) - big_k

        def g(kap):
            return mpmath.log1p(kap) - mpmath.mpf(m) / mu * mpmath.log1p(mu * kap / m) - rhs

        lo, hi = big_k, max(2 * big_k, mpmath.mpf(1))
        while g(hi) >= 0:
            lo, hi = hi, 4 * hi
        return float(mpmath.findroot(g, (lo, hi), solver="anderson"))


@pytest.mark.parametrize("mu,m", [(1, 30), (1, 15), (2, 3), (1, 2), (3, 20), (2, 25)])
def test_match_kappa_against_mpmath(mu, m):
    # The residual's log terms cancel to order kappa^2 at small K; in
    # the plain log form the root lost up to all its digits below 1e-4.
    for k in np.geomspace(1e-9, 60.0, 12):
        np.testing.assert_allclose(match_kappa(k, mu, m), _mpmath_matched_kappa(k, mu, m),
                                   rtol=1e-13, err_msg="K=%r" % k)


def test_match_kappa_small_k_never_raises():
    # In the plain log form g(K) > 0 rounded to <= 0 in about a fifth of
    # these cells, and the root finder raised ValueError on valid input.
    rng = np.random.default_rng(7)
    for k in 10.0 ** rng.uniform(-9.0, -4.0, 1200):
        mu = int(rng.integers(1, 6))
        m = mu + int(rng.integers(1, 31))
        kap = match_kappa(k, mu, m)
        # near the leading-order root K sqrt(m / (m - mu)) for K <= 1e-4
        assert kap >= k
        np.testing.assert_allclose(kap, k * math.sqrt(m / (m - mu)), rtol=1e-3)


def test_match_kappa_tiny_k_is_the_leading_order_root():
    # kappa = K sqrt(m / (m - mu)) (1 + O(K)); far enough down, kappa^2
    # underflows in the residual, which then cannot place the root.
    rng = np.random.default_rng(8)
    for k in np.concatenate([[5e-324], 10.0 ** rng.uniform(-320.0, -20.0, 300)]):
        mu = int(rng.integers(1, 6))
        m = mu + int(rng.integers(1, 31))
        np.testing.assert_allclose(match_kappa(k, mu, m), k * math.sqrt(m / (m - mu)),
                                   rtol=1e-15, err_msg="K=%r mu=%d m=%d" % (k, mu, m))

"""Deep-tail power laws and cross-family parameter matching.

Near the origin the distribution function of a squared kappa-mu
shadowed channel follows a single power law,

    F(x) ~ (a / t!) * (x / xbar)^(t+1) / (t+1),   t = mu - 1,

so outage in the high-SNR regime is controlled by just the diversity
slope ``mu`` and a scalar offset.  Two channels whose offsets coincide
are indistinguishable in the deep tail, which gives a principled way to
translate a kappa-mu (Rician-like) K-factor into the kappa of a
shadowed channel with a prescribed finite ``m``: solve

    (1 + K) exp(-K) = (1 + kappa) * (m / (mu kappa + m))^(m / mu)

for ``kappa``.  The right side is strictly decreasing in ``kappa`` when
``m > mu`` and the solution exceeds ``K``: finite-m shadowing must be
compensated by a stronger dominant component.
"""

import math

import numpy as np

from .errors import NoRootError
from .mixture import ShadowedParams, _as_int, _non_negative, _points, _positive
from .specfun import ln_gamma_int

__all__ = [
    "tail_offset",
    "tail_offset_kappa_mu",
    "asym_cdf",
    "asym_cdf_kappa_mu",
    "match_kappa",
]

#: Required accuracy, in absolute terms, of the matching identity at the
#: returned root.
MATCH_RESIDUAL_TOL = 1e-12

#: Below this K the matched kappa is K sqrt(m / (m - mu)) to the last bit.
_SMALL_K = 1e-40

#: Newton stops once a step moves the root by less than this, relatively.
_NEWTON_RTOL = 4.0 * np.finfo(float).eps


def _log1p_minus_x(x):
    """``ln(1 + x) - x`` for ``x >= 0``, accurate where the two cancel.

    Below ``x = 0.25`` it sums the series ``-x^2/2 + x^3/3 - ...``,
    whose terms fall by at least four times each.
    """
    if x > 0.25:
        return math.log1p(x) - x
    total, power, n = 0.0, -x * x, 2
    while True:
        term = power / n
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
        power *= -x
        n += 1


def tail_offset(params):
    """Leading-order offset of the shadowed power law at the origin.

    ``f(x) -> offset * (x / xbar)^(mu-1) / xbar`` in the limit, with
    ``offset = (mu (1+kappa))^mu (m / (kappa mu + m))^m / (mu-1)!``,
    so that the distribution function reads
    ``offset / mu * (x/xbar)^mu`` -- see :func:`asym_cdf`.
    """
    if not isinstance(params, ShadowedParams):
        params = ShadowedParams(*params)
    mu, m, kap = params.mu, params.m, params.kappa
    return math.exp(
        mu * math.log(mu)
        + mu * math.log1p(kap)
        - ln_gamma_int(mu)
        + m * (math.log(m) - math.log(kap * mu + m))
    )


def tail_offset_kappa_mu(k_factor, mu):
    """Same offset for the unshadowed kappa-mu law (m -> infinity)."""
    k_factor = _non_negative("k_factor", k_factor)
    mu = _as_int("mu", mu)
    return math.exp(
        mu * math.log(mu)
        + mu * math.log1p(k_factor)
        - k_factor * mu
        - ln_gamma_int(mu)
    )


def _power_law(offset, slope_plus_one, mean_power, x):
    x, _, shaped = _points(x, "> 0", "asymptote requires finite x > 0")
    return shaped((offset / slope_plus_one) * (x / mean_power) ** slope_plus_one)


def asym_cdf(params, x):
    """First-order small-argument approximation of the shadowed cdf.

    ``F(x) ~ offset/(t+1) * (x/xbar)^(t+1)`` with ``t + 1 = mu``, over
    ``x > 0``.  Only meaningful for ``x << xbar``.
    """
    if not isinstance(params, ShadowedParams):
        params = ShadowedParams(*params)
    return _power_law(tail_offset(params), params.mu, params.mean_power, x)


def asym_cdf_kappa_mu(k_factor, mu, mean_power, x):
    """Small-argument cdf approximation of the unshadowed kappa-mu law, over ``x > 0``."""
    mean_power = _positive("mean_power", mean_power)
    return _power_law(tail_offset_kappa_mu(k_factor, mu), int(mu), mean_power, x)


def match_kappa(k_factor, mu, m, infinite_m=False):
    """kappa of the shadowed channel whose deep tail matches a given K.

    Solves the offset-equality identity for ``kappa`` at fixed integer
    ``mu`` and ``m > mu``.  The root always satisfies
    ``kappa >= k_factor``, with equality only at ``k_factor = 0``.

    Parameters
    ----------
    k_factor : float
        K-factor of the reference kappa-mu channel, >= 0.
    mu : int
        Common number of clusters, >= 1.
    m : int
        Shadowing order of the target channel; must exceed ``mu``.
    infinite_m : bool
        Treat ``m`` as infinite, in which case the families coincide
        and ``kappa = k_factor`` exactly (``m`` is still validated).

    Raises
    ------
    NoRootError
        If bracket expansion fails to straddle the root, which happens
        when the root lies beyond about 1e120: large ``K`` with ``m``
        close to ``mu`` (``K = 15, mu = 30, m = 31`` has its root near
        6e159).
    """
    k_factor = _non_negative("k_factor", k_factor)
    mu = _as_int("mu", mu)
    m = _as_int("m", m)
    if m <= mu:
        raise ValueError(
            "matching requires m > mu (no finite root otherwise); got m=%d, mu=%d"
            % (m, mu)
        )
    if infinite_m or k_factor == 0.0:
        return k_factor

    # In logs the identity is g(kappa) = 0 for
    #   g(kappa) = ln(1+kappa) - (m/mu) ln(1 + mu kappa/m) - phi(K),
    # phi(x) = ln(1+x) - x; g(K) > 0 and g is decreasing.  Up to
    # kappa = 1 the first two terms are summed as
    # phi(kappa) - (m/mu) phi(mu kappa/m), whose linear terms cancel
    # exactly: in logs they would cancel in rounding and leave an error
    # of order kappa where g is of order kappa^2.
    #
    # Near 0, g = (K^2 - (1 - mu/m) kappa^2) / 2 + O(kappa^3): to leading
    # order the root is K sqrt(m / (m - mu)).
    leading = k_factor * math.sqrt(m / (m - mu))
    if k_factor < _SMALL_K:
        # exact to double precision here; further down g's kappa^2
        # underflows and g cannot place the root
        return leading
    ratio = m / mu
    phi_k = _log1p_minus_x(k_factor)

    def g(kap):
        if kap <= 1.0:
            head = _log1p_minus_x(kap) - ratio * _log1p_minus_x(kap / ratio)
        else:
            head = math.log1p(kap) - ratio * math.log1p(kap / ratio)
        return head - phi_k

    def slope(kap):
        # 1/(1+kappa) - m/(mu kappa + m), over one denominator
        return kap * (mu - m) / ((1.0 + kap) * (mu * kap + m))

    lo = k_factor
    hi = max(2.0 * k_factor, 1.0)
    for _ in range(200):
        if g(hi) < 0.0:
            break
        lo = hi
        hi *= 4.0
    else:
        raise NoRootError("bracket expansion exhausted", lo=lo, hi=hi)

    # Newton from the small-K root, kept inside the shrinking bracket
    # [lo, hi]; a step that would leave it bisects instead.
    root = min(max(leading, lo), hi)
    for _ in range(200):
        value = g(root)
        if value > 0.0:
            lo = root
        elif value < 0.0:
            hi = root
        if value == 0.0 or hi - lo <= _NEWTON_RTOL * hi:
            break
        step = root - value / slope(root)
        if abs(step - root) <= _NEWTON_RTOL * root:
            root = step
            break
        root = step if lo < step < hi else 0.5 * (lo + hi)

    lhs = (1.0 + k_factor) * math.exp(-k_factor)
    val = (1.0 + root) * math.exp((m / mu) * (math.log(m) - math.log(mu * root + m)))
    if abs(lhs - val) > MATCH_RESIDUAL_TOL:
        raise ArithmeticError(
            "matched kappa fails the defining identity: residual %g" % (lhs - val,)
        )
    return float(root)

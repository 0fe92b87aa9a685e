"""Special-function kernel: integer-order Bessel K, Tricomi U, log-gamma.

Everything downstream (product densities, Laplace transforms, outage
sweeps) reduces to three scalar kernels evaluated at integer orders:

* ``K_n(x)``, the modified Bessel function of the second kind,
* ``U(a, b, x)``, Tricomi's confluent hypergeometric function,
* ``ln Gamma(n)``.

The Bessel routines are built on an upward recurrence carried in log
space so that mixture sums can be accumulated without over- or
underflow even for orders of a few hundred and arguments spanning
``[1e-8, 700]``.  Accuracy targets (relative): 1e-10 typical, 1e-8
guaranteed on that domain; the test suite pins both against
integral-representation quadrature oracles.

``x^a U(a, b, x)`` is one exp-sinh rule on the Laplace integral at
every argument.  It is within 1e-13 relative of 30-digit mpmath on the
tested grid: ``a`` up to 150, integer ``b`` on both sides of 1, ``x``
from 1e-300 to 1e160 wherever the value is above 1e-300.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = [
    "MAX_BESSEL_ORDER",
    "log_bessel_k_ladder",
    "tricomi_u_times_xa",
    "ln_gamma_int",
]

#: Largest Bessel order accepted by the recurrence-based routines.  The
#: upward recurrence is stable for any order, but accuracy is only
#: certified (against quadrature) up to this bound, which is far beyond
#: anything the mixture expansions generate.
MAX_BESSEL_ORDER = 256

# Largest n for which ln Gamma(n) goes through the exact big-integer
# factorial; (171-1)! is the last factorial representable as a double.
_EXACT_FACTORIAL_MAX = 171


def _check_order(n):
    if not float(n).is_integer():
        raise ValueError("Bessel order must be an integer, got %r" % (n,))
    n = int(n)
    if n < 0 or n > MAX_BESSEL_ORDER:
        raise ValueError(
            "Bessel order must satisfy 0 <= n <= %d, got %d" % (MAX_BESSEL_ORDER, n)
        )
    return n


def log_bessel_k_ladder(x, max_order):
    """Yield ``(n, ln K_n(x))`` for ``n = 0 .. max_order`` in one climb.

    Seeds from the scaled ``K_0``/``K_1`` of scipy and climbs the
    three-term recurrence ``K_{n+1} = K_{n-1} + (2n/x) K_n`` in log
    space.  Since ``K_n`` is increasing in the order, the correction
    ``exp(l_{n-1} - l_n)`` never exceeds one and the recurrence cannot
    overflow, which is what makes high-order tail evaluations safe.
    Yielding every rung lets sum evaluators harvest a whole family of
    orders for the cost of the highest one.

    Each rung is yielded as a new array of the shape of ``x``, and
    ``x`` itself is not written.

    Parameters
    ----------
    x : array_like
        Argument(s), strictly positive.
    max_order : int
        Highest order to climb to, ``0 <= max_order <= MAX_BESSEL_ORDER``.
    """
    max_order = _check_order(max_order)
    x = np.asarray(x, dtype=float)
    # written so that NaN fails the check too
    if not x.min(initial=math.inf) > 0.0:
        raise ValueError("Bessel argument must be strictly positive")

    # ln K_0, ln K_1 from the exponentially scaled forms: no underflow
    # at large x, no special-casing at small x.
    lprev = special.k0e(x, out=np.empty_like(x))
    np.log(lprev, out=lprev)
    lprev -= x
    yield 0, lprev
    if max_order == 0:
        return
    lcur = special.k1e(x, out=np.empty_like(x))
    np.log(lcur, out=lcur)
    lcur -= x
    yield 1, lcur
    step = np.empty_like(x)
    for k in range(1, max_order):
        # ln K_{k+1} = ln K_k + ln(2k/x + exp(ln K_{k-1} - ln K_k))
        lnext = np.subtract(lprev, lcur, out=np.empty_like(x))
        np.exp(lnext, out=lnext)
        lnext += np.divide(2.0 * k, x, out=step)
        np.log(lnext, out=lnext)
        lnext += lcur
        lprev, lcur = lcur, lnext
        yield k + 1, lcur


@lru_cache(maxsize=None)
def _exp_sinh_table(refine):
    """Nodes ``s = (pi/2) sinh t`` and weights ``step (pi/2) cosh t``.

    Takahasi-Mori rule with ``t = -T .. T`` in steps of
    ``0.025 / refine``; ``refine = 1`` is the 401-node table on
    ``t = -5 .. 5``.  At distance ``D`` from the centre the nodes are
    about ``step D`` apart; a refined table keeps that at most 0.275
    (errors below 1e-13) out to ``D = 11 refine``, and reaches 40 beyond.
    """
    step = 0.025 / refine
    t_max = max(5.0, math.asinh((11.0 * refine + 40.0) / math.pi))
    n = math.ceil(t_max / step)
    t = step * np.arange(-n, n + 1)
    return 0.5 * math.pi * np.sinh(t), step * 0.5 * math.pi * np.cosh(t)


def _u_laplace_times_xa(a, b, x, refine):
    """``x^a U(a, b, x)`` for ``b >= 1`` and finite ``x > 0``, by the exp-sinh rule.

    Substituting ``u = x t`` in
    ``U = (1/Gamma(a)) int_0^inf e^{-xt} t^(a-1) (1+t)^(b-a-1) dt``
    and then ``u = e^v`` gives ``x^a U = (1/Gamma(a)) int e^{h(v)} dv``
    with ``h(v) = -u + (b-a-1) ln(1 + u/x) + a ln u``, a single peak at
    ``u = c``, the positive root of ``u^2 + (x - b + 1) u = a x``.  The
    nodes ``v = ln c + sigma s`` sit on the peak with ``sigma`` the
    peak's width ``1 / sqrt(-h''(ln c))`` (at most 2), and ``e^{h(c)}``
    is factored out of the sum.  ``ln(1 + u/x)`` is taken as
    ``logaddexp(0, v - ln x)``, which keeps full relative accuracy
    however small ``x`` is.
    """
    d = b - a - 1.0
    lx = np.log(x)

    def h(v):
        return -np.exp(v) + d * np.logaddexp(0.0, v - lx) + a * v

    # Positive root; where q > 0, the cancellation-free form of
    # (root - q) / 2, written so that no intermediate overflows.
    q = x - (b - 1.0)
    root = np.hypot(q, 2.0 * math.sqrt(a) * np.sqrt(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(q > 0.0, a * (x / (0.5 * q + 0.5 * root)), 0.5 * (root - q))
    # -h'' at the peak, with x c / (x + c)^2 taken as two ratios
    curv = c - d * (x / (x + c)) * (c / (x + c))
    sigma = np.minimum(2.0, 1.0 / np.sqrt(curv))
    vc = np.log(c)
    hc = h(vc)
    nodes, weights = _exp_sinh_table(refine)
    terms = np.exp(h(vc + sigma * nodes[:, None]) - hc)
    # einsum: fixed accumulation order, as in the kernel-sum engine
    total = np.einsum("k,kp->p", weights, terms)
    with np.errstate(over="ignore"):
        return np.exp(hc - ln_gamma_int(a)) * sigma * total


def tricomi_u_times_xa(a, b, x):
    """``x^a U(a, b, x)`` evaluated without intermediate over/underflow.

    This combination is bounded (it tends to 1 as ``x -> inf``) even
    when the two factors separately leave the double range, which is
    exactly the situation in Laplace-transform evaluations near
    ``s -> 0``.  ``b = a + 1`` is exact (``U = x^-a``), and ``x = inf``
    gives the limit 1; every other point goes through one exp-sinh rule
    on the Laplace integral, all points at once, after Kummer's
    relation ``U(a, b, x) = x^(1-b) U(a-b+1, 2-b, x)`` has mapped
    ``b < 1`` to ``b >= 2``.  The library ``hyperu`` is not used: it
    returns NaN for small ``x`` with integer ``b >= 2`` and silently
    wrong values for first parameters beyond ~10 at moderate arguments.

    Parameters
    ----------
    a : int
        First parameter, ``a >= 1``.
    b : int
        Second parameter, any integer (the Laplace transform of a Gamma
        product produces ``b = 1 + m - mhat``, which may be <= 0).
    x : float or array_like
        Argument(s), strictly positive.
    """
    if not float(a).is_integer() or a < 1:
        raise ValueError("tricomi_u_times_xa requires integer a >= 1, got %r" % (a,))
    if not float(b).is_integer():
        raise ValueError("tricomi_u_times_xa requires integer b, got %r" % (b,))
    a = int(a)
    b = int(b)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not np.all(x > 0.0):
        raise ValueError("tricomi_u_times_xa requires x > 0")
    if b < 1:
        # x^a U(a, b, x) = x^(a+1-b) U(a+1-b, 2-b, x)
        a, b = a + 1 - b, 2 - b

    out = np.ones_like(x)  # U(a, a+1, x) = x^-a exactly; the limit at inf
    if b != a + 1:
        refine = np.ones(x.shape)
        if b == 1:
            # h is flat in v from ln x to ln a; the table must resolve
            # that stretch's ends at half its length from the centre.
            refine = np.maximum(1.0, np.ceil(0.5 * (math.log(a) - np.log(x)) / 11.0))
        finite = np.isfinite(x)
        for r in np.unique(refine[finite]):
            pick = finite & (refine == r)
            out[pick] = _u_laplace_times_xa(a, b, x[pick], int(r))
    return float(out[0]) if scalar else out


def ln_gamma_int(n):
    """``ln Gamma(n)`` for integer ``n >= 1``.

    Goes through the exact big-integer factorial while ``(n-1)!`` fits
    in a double (``n <= 171``), so small arguments are correctly
    rounded; beyond that it defers to ``lgamma``.
    """
    if not float(n).is_integer() or n < 1:
        raise ValueError("ln_gamma_int requires integer n >= 1, got %r" % (n,))
    n = int(n)
    if n <= _EXACT_FACTORIAL_MAX:
        return math.log(math.factorial(n - 1))
    return math.lgamma(n)

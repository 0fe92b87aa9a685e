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
"""

import math

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

# Below this argument U(a, b, x) goes through the ascending series;
# from it on, through one exp-sinh rule on the Laplace integral.  The
# library hyperu is not used at all: it returns NaN for small x with
# integer b >= 2 and silently wrong values for first parameters beyond
# ~10 at moderate arguments.
_U_SMALL_X_CUTOFF = 0.25
# Exp-sinh rule (Takahasi-Mori) above the cutoff: t = -5 .. 5 in steps
# of 0.05, nodes s = (pi/2) sinh t, weights 0.05 (pi/2) cosh t.
_DE_T = 0.05 * np.arange(-100, 101)
_DE_S = 0.5 * math.pi * np.sinh(_DE_T)
_DE_W = 0.05 * 0.5 * math.pi * np.cosh(_DE_T)
_EULER_GAMMA_LD = np.longdouble("0.57721566490153286060651209008240243104")

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

    The yielded arrays are reused between iterations; callers must
    copy (or consume immediately) rather than hold references.

    Parameters
    ----------
    x : array_like
        Argument(s), strictly positive.
    max_order : int
        Highest order to climb to, ``0 <= max_order <= MAX_BESSEL_ORDER``.
    """
    max_order = _check_order(max_order)
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("Bessel argument must be strictly positive")

    # ln K_0, ln K_1 from the exponentially scaled forms: no underflow
    # at large x, no special-casing at small x.
    lprev = np.log(special.k0e(x)) - x
    yield 0, lprev
    if max_order == 0:
        return
    lcur = np.log(special.k1e(x)) - x
    yield 1, lcur
    for k in range(1, max_order):
        lnext = lcur + np.log((2.0 * k) / x + np.exp(lprev - lcur))
        lprev, lcur = lcur, lnext
        yield k + 1, lcur


def _u_small_x_int(a, b, x, power=0):
    """Ascending series for ``x^power U(a, b, x)`` at small ``x``.

    Integer parameters, ``a >= 1``, ``b >= 1``.  Integer second
    parameter is the logarithmic case: with ``n = b - 1``,

        U(a, n+1, z) = (-1)^(n+1) / (n! (a-n-1)!)
                       * sum_k (a)_k / ((n+1)_k k!) z^k
                         * (ln z + psi(a+k) - psi(1+k) - psi(n+1+k))
                       + (n-1)! / (a-1)!
                       * sum_{k<n} (a-n)_k / ((1-n)_k k!) z^(k-n),

    where the first sum drops out when ``a <= n`` (its ``1/Gamma(a-n)``
    prefactor vanishes) and the second when ``n == 0``.  Accumulated in
    extended precision because the ascending terms alternate once
    ``a x`` is of order one.  ``power`` is folded into the powers of
    ``z`` so that balanced combinations like ``x^a U`` never overflow
    on the way out.
    """
    n = b - 1
    z = x.astype(np.longdouble)
    out = np.zeros_like(z)

    if n >= 1:
        # Gamma(n)/Gamma(a) sum_{k=0}^{n-1} (a-n)_k / ((1-n)_k k!) z^(k-n)
        coef = np.longdouble(math.factorial(n - 1)) / np.longdouble(math.factorial(a - 1))
        acc = np.zeros_like(z)
        zk = z ** np.longdouble(power - n)
        c = np.longdouble(1.0)
        for k in range(n):
            if k > 0:
                # (a-n)_k grows by (a-n+k-1); (1-n)_k k! by (k-n) k.
                c = c * np.longdouble(a - n + k - 1) / np.longdouble((k - n) * k)
                zk = zk * z
                if a - n + k - 1 == 0:
                    break  # (a-n)_k vanished; later terms are all zero
            acc = acc + c * zk
        out = out + coef * acc

    if a - n >= 1:
        sign = np.longdouble(-1.0 if n % 2 == 0 else 1.0)
        pref = sign / (
            np.longdouble(math.factorial(n)) * np.longdouble(math.factorial(a - n - 1))
        )
        lnz = np.log(z)
        # psi at integer arguments via harmonic numbers, tracked
        # incrementally: psi(j+1) = psi(j) + 1/j.
        psi_a = -_EULER_GAMMA_LD + sum(
            np.longdouble(1.0) / np.longdouble(i) for i in range(1, a)
        )
        psi_1 = -_EULER_GAMMA_LD
        psi_n1 = -_EULER_GAMMA_LD + sum(
            np.longdouble(1.0) / np.longdouble(i) for i in range(1, n + 1)
        )
        ck = np.longdouble(1.0)
        zk = z ** np.longdouble(power)
        acc = zk * (lnz + (psi_a - psi_1 - psi_n1))
        for k in range(1, 400):
            ck = ck * np.longdouble(a + k - 1) / np.longdouble((n + k) * k)
            zk = zk * z
            psi_a = psi_a + np.longdouble(1.0) / np.longdouble(a + k - 1)
            psi_1 = psi_1 + np.longdouble(1.0) / np.longdouble(k)
            psi_n1 = psi_n1 + np.longdouble(1.0) / np.longdouble(n + k)
            contrib = ck * zk * (lnz + (psi_a - psi_1 - psi_n1))
            acc = acc + contrib
            if np.all(np.abs(contrib) <= np.finfo(np.longdouble).eps * np.abs(acc)):
                break
        out = out + pref * acc

    # Values beyond double range cast to inf; that is an honest
    # overflow of U itself, not an artifact of the evaluation.
    with np.errstate(over="ignore"):
        return out.astype(float)


def _u_laplace_times_xa(a, b, x):
    """``x^a U(a, b, x)`` above the ascending cutoff, by the exp-sinh rule.

    Substituting ``u = x t`` in
    ``U = (1/Gamma(a)) int_0^inf e^{-xt} t^(a-1) (1+t)^(b-a-1) dt``
    gives ``x^a U = (1/Gamma(a)) int_0^inf e^{g(u)} du`` with
    ``g(u) = -u + (b-a-1) ln(1 + u/x) + (a-1) ln u``, peaked near
    ``u* = O(a)`` whatever ``x``.  The nodes ``u = c e^{sigma s}`` sit
    on the peak, whose width in ``ln u`` shrinks like ``1/sqrt(a)``,
    and ``e^{g(c)}`` is factored out of the sum.  Any integer ``b`` is
    taken directly, so no reflection is needed.
    """
    d = b - a - 1.0

    def g(u):
        return -u + d * np.log1p(u / x) + (a - 1.0) * np.log(u)

    # Stationary point of g: u^2 + (x - b + 2) u = (a-1) x.
    q = x - b + 2.0
    root = np.hypot(q, 2.0 * np.sqrt((a - 1.0) * x))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Cancellation-free form of (-q + root) / 2 where q > 0.
        ustar = np.where(q > 0.0, 2.0 * (a - 1.0) * x / (q + root), 0.5 * (root - q))
    # At a = 1 the peak sits at u = 0; the floor keeps the centre on
    # the scale where the (1 + u/x) factor turns over.
    c = np.maximum(ustar, x / (x + abs(d)))
    sigma = min(1.0, 2.0 / math.sqrt(a))
    u = c * np.exp(sigma * _DE_S)[:, None]
    gc = g(c)
    terms = np.exp(g(u) - gc) * u
    # einsum: fixed accumulation order, as in the kernel-sum engine
    total = np.einsum("k,kp->p", _DE_W, terms)
    with np.errstate(over="ignore"):
        return np.exp(gc - ln_gamma_int(a)) * sigma * total


def tricomi_u_times_xa(a, b, x):
    """``x^a U(a, b, x)`` evaluated without intermediate over/underflow.

    This combination is bounded (it tends to 1 as ``x -> inf``) even
    when the two factors separately leave the double range, which is
    exactly the situation in Laplace-transform evaluations near
    ``s -> 0``.  Two branches:

    * ``x < 0.25``: the ascending series with ``x^a`` folded in term by
      term (after the Kummer reflection
      ``U(a, b, x) = x^(1-b) U(a-b+1, 2-b, x)`` when ``b < 1``);
    * ``x >= 0.25``: a fixed-node exp-sinh rule on the peak-factored
      Laplace integral, all points at once.

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

    if b == a + 1:
        out = np.ones_like(x)  # U(a, a+1, x) = x^-a exactly
    else:
        out = np.empty_like(x)
        small = x < _U_SMALL_X_CUTOFF
        if np.any(small):
            # Fold x^a into the ascending series: the balanced combination
            # stays in range even where U alone would overflow.
            if b < 1:
                out[small] = _u_small_x_int(a - b + 1, 2 - b, x[small], power=a + 1 - b)
            else:
                out[small] = _u_small_x_int(a, b, x[small], power=a)
        if np.any(~small):
            out[~small] = _u_laplace_times_xa(a, b, x[~small])
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

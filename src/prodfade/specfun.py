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
every argument, for a whole (rows x points) batch of integer parameter
rows at once.  It is within 1e-13 relative of 30-digit mpmath on the
tested grid: ``a`` up to 150, integer ``b`` on both sides of 1, ``x``
from 1e-300 to 1e160 wherever the value is above 1e-300.  For ``a`` up
to 30 and ``x`` from 1e-6 to 1e4 its median error is a third of an ulp.
"""

import math
import types
from functools import lru_cache

import numpy as np

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

# Cap on nodes * cells of one exp-sinh sum in ``tricomi_u_times_xa``;
# larger requests are summed in chunks of cells.  Each chunk holds four
# (cells x nodes) work arrays, 0.8 MB at this cap: a 100k cap raised a
# process's peak RSS by 1.7 MB over L's cdf and pdf, and ran 6% faster.
_U_BLOCK_BUDGET = 25_000


def _load_special(name):
    """Fill :data:`special` from ``scipy.special`` and look ``name`` up.

    Runs once: it removes itself, so that later lookups are plain module
    attribute reads, as fast as in ``scipy.special``.  A name already
    set on :data:`special` (a test's stand-in) is kept.  Dunder lookups
    (``repr``, introspection) do not import scipy.
    """
    if name.startswith("__"):
        raise AttributeError(name)
    from scipy import special as scipy_special
    del special.__getattr__
    for key, value in vars(scipy_special).items():
        if not key.startswith("__"):
            special.__dict__.setdefault(key, value)
    return getattr(special, name)


#: ``scipy.special``, imported on the first lookup of one of its names:
#: that import is about half of the command line's start-up, and
#: ``sample`` and ``match-kappa`` never evaluate a special function.
#: Callers write ``special.<name>`` as with scipy's.
special = types.ModuleType("prodfade.specfun.special")
special.__getattr__ = _load_special

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
    Both are formed in long double and rounded once: double ``sinh``
    and ``cosh`` of a rounded ``t`` bias the rule by a third of an ulp.
    """
    t_max = max(5.0, math.asinh((11.0 * refine + 40.0) / math.pi))
    n = math.ceil(t_max * 40.0 * refine)
    step = np.longdouble(1.0) / (40 * refine)
    t = step * np.arange(-n, n + 1, dtype=np.longdouble)
    half_pi = 2.0 * np.arctan(np.longdouble(1.0))
    return (half_pi * np.sinh(t)).astype(float), (step * half_pi * np.cosh(t)).astype(float)


def _u_laplace_times_xa(a, b, x, ln_gamma_a, refine, work):
    """``x^a U(a, b, x)`` per cell, ``b >= 1`` and finite ``x > 0``, by the exp-sinh rule.

    ``a``, ``b`` and ``x`` are equal-length float arrays, one entry per
    cell, and ``ln_gamma_a = ln Gamma(a)`` in long double; ``work`` is
    scratch space of shape ``(4, cells, nodes)``.  Substituting
    ``u = x t`` in
    ``U = (1/Gamma(a)) int_0^inf e^{-xt} t^(a-1) (1+t)^(b-a-1) dt``
    and then ``u = e^v`` gives ``x^a U = (1/Gamma(a)) int e^{h(v)} dv``
    with ``h(v) = -u + (b-a-1) ln(1 + u/x) + a ln u``, a single peak at
    ``u = c``, the positive root of ``u^2 + (x - b + 1) u = a x``.  The
    nodes ``v = ln c + sigma s`` sit on the peak with ``sigma`` the
    peak's width ``1 / sqrt(-h''(ln c))`` (at most 2), and ``e^{h(c)}``
    is factored out of the sum.  With ``t = sigma s``, a node's exponent
    is taken relative to the peak without cancellation,
    ``h(v) - h(c) = -c expm1(t) + (b-a-1) ln(px + pc e^t) + a t``, where
    ``px = x / (x + c)`` and ``pc = c / (x + c)``; ``h(c)`` itself, one
    value per cell, is formed in long double, as are the node sums and
    the result.
    """
    d = b - a - 1.0
    # Positive root; where q > 0, the cancellation-free form of
    # (root - q) / 2, written so that no intermediate overflows.
    q = x - (b - 1.0)
    root = np.hypot(q, 2.0 * np.sqrt(a) * np.sqrt(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(q > 0.0, a * (x / (0.5 * q + 0.5 * root)), 0.5 * (root - q))
    # -h'' at the peak, with x c / (x + c)^2 taken as two ratios
    px, pc = x / (x + c), c / (x + c)
    curv = c - d * px * pc
    sigma = np.minimum(2.0, 1.0 / np.sqrt(curv))
    nodes, weights = _exp_sinh_table(refine)
    col = np.s_[:, None]
    t, ce, lr, tmp = work
    np.multiply(sigma[col], nodes, out=t)
    np.expm1(t, out=ce)
    ce *= c[col]
    # ln(px + pc e^t) is log1p(pc expm1(t)) where that argument is above
    # -1/2: around and right of the peak.  Further left, a prefix of each
    # cell's nodes, 1 + pc expm1(t) has lost the small px + pc e^t, which
    # is formed directly instead.
    np.divide(ce, (x + c)[col], out=lr)
    left = lr < -0.5
    with np.errstate(divide="ignore"):
        np.log1p(lr, out=lr)
    k = int(np.count_nonzero(left.any(axis=0)))
    if k:
        ln_r = np.exp(t[:, :k], out=tmp[:, :k])
        ln_r *= pc[col]
        ln_r += px[col]
        np.log(ln_r, out=ln_r)
        np.copyto(lr[:, :k], ln_r, where=left[:, :k])
    lr *= d[col]
    lr -= ce
    t *= a[col]
    lr += t
    terms = np.exp(lr, out=lr)
    # Each cell's node sum is a long double sum over one contiguous row,
    # which gives a cell the same bits however the cells are batched.
    total = np.multiply(terms, weights, out=terms).sum(axis=1, dtype=np.longdouble)
    cl = c.astype(np.longdouble)
    hc = a * np.log(cl) + d * np.log1p(cl / x) - cl
    return np.exp(hc - ln_gamma_a) * sigma * total


def _int_array(name, v):
    """``v`` as an int64 array, or ValueError unless every entry is a finite integer."""
    v = np.asarray(v)
    with np.errstate(invalid="ignore"):
        f = v.astype(float)
        ok = np.isfinite(f).all() and np.array_equal(f, np.round(f))
    if not ok:
        raise ValueError("tricomi_u_times_xa requires integer %s, got %r" % (name, v))
    return f.astype(np.int64)


def tricomi_u_times_xa(a, b, x):
    """``x^a U(a, b, x)`` evaluated without intermediate over/underflow.

    This combination is bounded (it tends to 1 as ``x -> inf``) even
    when the two factors separately leave the double range, which is
    exactly the situation in Laplace-transform evaluations near
    ``s -> 0``.  ``b = a + 1`` is exact (``U = x^-a``), and ``x = inf``
    gives the limit 1; every other (row, point) cell goes through one
    exp-sinh rule on the Laplace integral, all cells at once, after
    Kummer's relation ``U(a, b, x) = x^(1-b) U(a-b+1, 2-b, x)`` has
    mapped ``b < 1`` to ``b >= 2``.  The library ``hyperu`` is not used:
    it returns NaN for small ``x`` with integer ``b >= 2`` and silently
    wrong values for first parameters beyond ~10 at moderate arguments.

    Parameters
    ----------
    a : int or 1-D array of int
        First parameter(s), ``a >= 1``.
    b : int or 1-D array of int
        Second parameter(s), any integer, of the shape of ``a`` (the
        Laplace transform of a Gamma product produces ``b = 1 + m -
        mhat``, which may be <= 0).
    x : float or array_like
        Argument(s), strictly positive.

    Returns
    -------
    numpy.longdouble or ndarray of it
        Of shape ``a.shape + x.shape``: with arrays ``a`` and ``b``, row
        ``r`` holds ``x^a[r] U(a[r], b[r], x)``.  A cell's value does not
        depend on the other rows and points of the call.  The rule works
        in long double from its node sums on, and its result stays long
        double, so that sums of kernels that cancel keep the bits a
        rounding to double would drop.
    """
    a = _int_array("a", a)
    b = _int_array("b", b)
    if a.ndim > 1 or a.shape != b.shape:
        raise ValueError("tricomi_u_times_xa requires a and b of one shape, "
                         "scalars or 1-D arrays")
    if not a.min(initial=1) >= 1:
        raise ValueError("tricomi_u_times_xa requires a >= 1, got %r" % (a,))
    x = np.asarray(x, dtype=float)
    shape = a.shape + x.shape
    a, b, x = a.reshape(-1), b.reshape(-1), x.reshape(-1)
    if not x.min(initial=math.inf) > 0.0:
        raise ValueError("tricomi_u_times_xa requires x > 0")
    # x^a U(a, b, x) = x^(a+1-b) U(a+1-b, 2-b, x)
    a, b = np.where(b < 1, a + 1 - b, a), np.where(b < 1, 2 - b, b)

    # U(a, a+1, x) = x^-a exactly; the limit at inf
    out = np.ones((a.size, x.size), dtype=np.longdouble)
    row, col = np.nonzero((b != a + 1)[:, None] & np.isfinite(x))
    if row.size:
        # ln Gamma(n) = ln 1 + ... + ln(n - 1), in long double
        ln_gamma = np.zeros(int(a.max()), dtype=np.longdouble)
        np.cumsum(np.log(np.arange(1, a.max(), dtype=np.longdouble)), out=ln_gamma[1:])
        ln_gamma = ln_gamma[a - 1]
        ca, cb, cx = a[row].astype(float), b[row].astype(float), x[col]
        refine = np.ones(row.size)
        flat = cb == 1.0
        # At b = 1, h is flat in v from ln x to ln a; the table must
        # resolve that stretch's ends at half its length from the centre.
        refine[flat] = np.maximum(
            1.0, np.ceil(0.5 * (np.log(ca[flat]) - np.log(cx[flat])) / 11.0))
        vals = np.empty(row.size, dtype=np.longdouble)
        for r in np.unique(refine).tolist():
            pick = np.flatnonzero(refine == r)
            nodes = _exp_sinh_table(int(r))[0].size
            block = min(pick.size, max(1, _U_BLOCK_BUDGET // nodes))
            work = np.empty((4, block, nodes))
            for start in range(0, pick.size, block):
                i = pick[start:start + block]
                vals[i] = _u_laplace_times_xa(ca[i], cb[i], cx[i], ln_gamma[row[i]], int(r),
                                              work[:, :i.size])
        out[row, col] = vals
    out = out.reshape(shape)
    return out[()] if shape == () else out


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

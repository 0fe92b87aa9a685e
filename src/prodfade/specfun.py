"""Special-function kernel: integer-order Bessel K, Tricomi U, log-gamma.

Everything downstream (product densities, Laplace transforms, outage
sweeps) reduces to three scalar kernels evaluated at integer orders:

* ``K_n(x)``, the modified Bessel function of the second kind,
* ``U(a, b, x)``, Tricomi's confluent hypergeometric function,
* ``ln Gamma(n)``.

The Bessel routines are built on an upward recurrence carried in log
space, from any finite log argument ``ln(x/2)``, so that mixture sums
can be accumulated without over- or underflow even for orders of a few
hundred, and ``x`` itself need not be a double.  Accuracy targets
(relative): 1e-10 typical, 1e-8 guaranteed for ``x`` in ``[1e-8, 700]``;
the test suite pins both against integral-representation quadrature
oracles.  The recurrence starts
from ``ln K_0`` and ``ln K_1``, which numpy evaluates here without
scipy: the ascending series up to ``x = 2`` and a trapezoid rule on an
integral representation above.  Against 40-digit mpmath they are
within 10 eps of ``ln K`` times ``max(1, |ln K|)`` from ``x = 1e-300``
to ``1e300``, and exact at ``ln(x/2) = -800`` and ``-2000``.

``x^a U(a, b, x)`` is one exp-sinh rule on the Laplace integral at
every argument, for a whole (rows x points) batch of integer parameter
rows at once, each cell's terms formed only over the nodes that can
reach its sum.  It is within 1e-13 relative of 30-digit mpmath on the
tested grid: ``a`` up to 150, integer ``b`` on both sides of 1, ``x``
from 1e-300 to 1e160 wherever the value is above 1e-300.  For ``a`` up
to 30 and ``x`` from 1e-6 to 1e4 its median error is a third of an ulp.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_BESSEL_ORDER",
    "log_bessel_k_ladder",
    "tricomi_u_times_xa",
    "ln_gamma_int",
    "ln_gamma_ints",
]

#: Largest Bessel order accepted by the recurrence-based routines.  The
#: upward recurrence is stable for any order, but accuracy is only
#: certified (against quadrature) up to this bound, which is far beyond
#: anything the mixture expansions generate.
MAX_BESSEL_ORDER = 256

# Cap on nodes * cells of one exp-sinh sum in ``tricomi_u_times_xa``;
# larger requests are summed in chunks of cells.  Each chunk holds four
# (cells x window) work arrays and one (cells x nodes) row of terms, at
# most 1 MB at this cap: a 100k cap raised a process's peak RSS by
# 1.7 MB over L's cdf and pdf, and ran 6% faster.
_U_BLOCK_BUDGET = 25_000

# The window of a cell's exp-sinh sum (see _u_windows): the probes are
# every _U_STRIDE-th node out from the table's centre (times refine on a
# refined table), and a tail is dropped where its bound is at most
# _U_TAIL of a lower bound on the cell's sum.  A stride of 25 gives 8
# probes a side on the 401-node table, and the benchmark's transforms
# 4-7 distinct windows per call.
_U_STRIDE = 25
_U_TAIL = 2.0 ** -67


# Largest n for which ln Gamma(n) goes through the exact big-integer
# factorial; (171-1)! is the last factorial representable as a double.
_EXACT_FACTORIAL_MAX = 171

# The ladder's seeds ln K_0, ln K_1 (see _log_bessel_k01).  Arguments up
# to x = 2 (ln(x/2) = _SEED_SWITCH) take the ascending series, of degree
# _SERIES_DEGREE in x^2; above it the trapezoid rule takes _QUAD_NODES
# nodes (one half of the symmetric rule) of step _QUAD_STEP in s, where
# w = _QUAD_MAP sinh(s / _QUAD_MAP).  Tuned together against 40-digit mpmath: the
# series loses digits to cancellation as x grows (K_0 = 0.11 at x = 2
# out of terms near 0.6), and the rule's error is set by its
# integrand's branch points at w = +-i sqrt(2x), nearest at the switch.
# With the sinh map, 15 nodes keep the rule's own error near 1e-18 from
# x = 2 up; the rule in w needs 22 nodes for 3e-17.  Arguments are taken
# in blocks of _SEED_BLOCK, which bounds the work arrays (about 1 MB).
_SEED_SWITCH = 0.0
_SERIES_DEGREE = 11
_QUAD_NODES = 15
_QUAD_STEP = 0.305
_QUAD_MAP = 3.0
_SEED_BLOCK = 2048
# Bound on |ln(x/2)| in the ladder.  Above it the seeds clamp ln(x/2),
# exactly: every kernel term, near e^-x, is 0 in double there.  Below -it, where
# 2/x = exp(-ln(x/2)) nears overflow, K_{k-1}/K_k is below 1e-600 of
# 2k/x, and a rung is ln K_k + ln k - ln(x/2), exact in double.
_LOG_HALF_LIMIT = 700.0
_EULER_GAMMA = "0.57721566490153286060651209008240243104215933593992"

# A copy of the last climb's log arguments, if at most _SEED_BLOCK, and their
# seeds.  The pdf and the cdf of one model on one grid, as ``eval`` and a
# domain sweep tabulate them, climb from the same arguments; the second
# climb takes the first one's seeds, the bits it would compute, for the
# cost of a comparison.  Replaced whole, never written in place.
_last_seeds = (np.empty(0), np.empty((2, 0)))


def _check_order(n):
    if not float(n).is_integer():
        raise ValueError("Bessel order must be an integer, got %r" % (n,))
    n = int(n)
    if n < 0 or n > MAX_BESSEL_ORDER:
        raise ValueError(
            "Bessel order must satisfy 0 <= n <= %d, got %d" % (MAX_BESSEL_ORDER, n)
        )
    return n


@lru_cache(maxsize=None)
def _series_lanes():
    """Coefficient rows of the seeds' series, tiled over a block of arguments.

    Row ``k`` holds the coefficients of ``u^k``, ``u = x^2``, in three
    power series of ``y = u / 4`` (DLMF 10.25.2, 10.31.2):

    * ``I_0(x) = sum y^k / (k!)^2``,
    * ``K_0(x) + ln(x/2) I_0(x) = sum psi(k+1) y^k / (k!)^2``,
    * ``-x I_1(x) / 2 = -sum k y^k / (k!)^2``,

    interleaved, three to an argument, and repeated for
    ``_SEED_BLOCK`` arguments, so that a block's Horner steps add rows of
    the accumulator's shape.  Exact in rationals, rounded once; the
    ``fractions`` import waits for the first climb, as commands that
    climb no ladder do not need it.
    """
    from fractions import Fraction

    euler_gamma = Fraction(_EULER_GAMMA)
    rows = np.empty((_SERIES_DEGREE + 1, 3))
    harmonic, factorial = Fraction(0), 1
    for k in range(_SERIES_DEGREE + 1):
        if k:
            harmonic += Fraction(1, k)
            factorial *= k
        term = Fraction(1, 4 ** k * factorial * factorial)
        rows[k] = term, (harmonic - euler_gamma) * term, -k * term
    return np.tile(rows, (1, _SEED_BLOCK))


@lru_cache(maxsize=None)
def _quadrature_nodes():
    """Shifts ``c`` and weights ``g`` of the seeds' trapezoid rule.

    ``K_nu(x) e^x = int_0^inf e^{-x (cosh t - 1)} cosh(nu t) dt``
    (DLMF 10.32.9) becomes, with ``w = sqrt(2x) sinh(t/2)``,
    ``int_R e^{-w^2} (1 + w^2/x)^nu / sqrt(2x + w^2) dw`` for
    ``nu = 0, 1``, and then, with ``w = a sinh(s/a)``, an integral over
    ``s`` of an integrand that falls off doubly exponentially.  The
    rule's ``K_0 e^x`` is ``sum_k g[k, 0] / sqrt(x + c[k])``, and the
    ``K_1 e^x`` rule adds ``1/x`` times the same sum with weights
    ``g[k, 1]``.  Nodes run from the tail in to ``s = 0``, so that a sum
    in node order adds the small terms first.  Formed in long double,
    rounded once.
    """
    step, a = np.longdouble(_QUAD_STEP), np.longdouble(_QUAD_MAP)
    s = step * np.arange(_QUAD_NODES - 1, -1, -1, dtype=np.longdouble)
    w2 = (a * np.sinh(s / a)) ** 2
    g = step * np.exp(-w2) * np.cosh(s / a) * np.sqrt(np.longdouble(2.0))
    g[-1] *= 0.5   # the node at s = 0 is not doubled
    return (0.5 * w2).astype(float)[:, None], np.stack([g, g * w2], axis=1).astype(float)[:, :, None]


def _series_k01(ln_half, out):
    """``ln K_0`` and ``ln K_1`` into ``out[0]``, ``out[1]``, for ``x <= 2``
    of ``ln_half = ln(x/2)``, from ``x = 2 e^ln(x/2)``, 0 where it underflows.

    ``K_0 = S - ln(x/2) I_0``, with ``S`` the second series of
    :func:`_series_lanes`, and, by the Wronskian
    ``I_0 K_1 + I_1 K_0 = 1/x``, ``K_1 = (1 - x I_1 K_0) / (2 I_0) / (x/2)``,
    whose log subtracts ``ln(x/2)`` rather than divide by ``x``, which
    may be subnormal or 0.  At ``x = 2`` the sum ``S`` is ``K_0`` itself,
    so the cancellation between the two terms of ``K_0`` stays within the
    Horner sum; that of ``K_1`` is mild.
    """
    x = 2.0 * np.exp(ln_half)
    u = np.empty((x.size, 3))
    u[...] = (x * x)[:, None]
    u = u.reshape(-1)
    lanes = _series_lanes()[:, :u.size]
    acc = lanes[-1] * u
    for row in lanes[-2:0:-1]:
        acc += row
        acc *= u
    acc += lanes[0]
    i0, s, minus_half_xi1 = acc[0::3], acc[1::3], acc[2::3]
    k0, k1 = out
    np.multiply(ln_half, i0, k0)
    np.subtract(s, k0, k0)
    np.multiply(minus_half_xi1, k0, k1)
    k1 += 0.5
    k1 /= i0
    np.log(out, out)
    k1 -= ln_half


def _quadrature_k01(x):
    """``ln K_0`` and ``ln K_1`` of ``x > 2`` by the rule of :func:`_quadrature_nodes`.

    The node sums run over the leading axis of a (nodes, 2 x arguments)
    array, which numpy adds row by row: an argument's sum is the same
    whatever the others.
    """
    c, g = _quadrature_nodes()
    r = c + x
    np.sqrt(r, r)
    terms = g / r[:, None]
    out = terms.reshape(_QUAD_NODES, -1).sum(0).reshape(2, x.size)
    k0e, k1e = out
    k1e /= x
    k1e += k0e
    np.log(out, out)
    out -= x
    return out


def _log_bessel_k01(log_half):
    """``(ln K_0(x), ln K_1(x))`` of an array ``log_half = ln(x/2)``, each
    of its shape, taken at :data:`_LOG_HALF_LIMIT` above it.

    Each argument's pair depends on that argument alone, not on the
    others of the call or their order: every step is elementwise, and
    the one sum across values, over a rule's nodes, is per argument.
    In each block of :data:`_SEED_BLOCK` arguments the series runs on
    all of them, those above 2 clamped to 2, and the trapezoid rule
    then replaces the pairs of those above 2; a block with none above 2
    needs no clamp, and one with none at or below 2 no series.
    """
    flat = log_half.reshape(-1)
    out = np.empty((2, flat.size))
    for start in range(0, flat.size, _SEED_BLOCK):
        lb = flat[start:start + _SEED_BLOCK]
        ob = out[:, start:start + _SEED_BLOCK]
        big = (lb > _SEED_SWITCH).nonzero()[0]
        if big.size < lb.size:
            _series_k01(np.minimum(lb, _SEED_SWITCH) if big.size else lb, ob)
        if big.size:
            lk = _quadrature_k01(2.0 * np.exp(np.minimum(lb[big], _LOG_HALF_LIMIT)))
            ob[0, big] = lk[0]
            ob[1, big] = lk[1]
    return out.reshape((2,) + log_half.shape)


def log_bessel_k_ladder(log_half, max_order):
    """Yield ``(n, ln K_n(x))`` for ``n = 0 .. max_order`` in one climb,
    from the log arguments ``log_half = ln(x/2)``.

    Seeds from ``ln K_0`` and ``ln K_1`` of :func:`_log_bessel_k01`,
    numpy alone, and climbs the three-term recurrence
    ``K_{n+1} = K_{n-1} + (2n/x) K_n`` in log space, with ``2/x`` formed
    once as ``exp(-ln(x/2))``.  Since ``K_n`` is increasing in the
    order, the correction ``exp(l_{n-1} - l_n)`` never exceeds one and
    the recurrence cannot overflow, which is what makes high-order tail
    evaluations safe.  Past :data:`_LOG_HALF_LIMIT` at either end, the
    seeds take ``ln(x/2)`` at the limit (``x -> inf``) or each rung adds
    ``ln n - ln(x/2)``, so ``x`` need not be a double.
    Yielding every rung lets sum evaluators harvest a whole family of
    orders for the cost of the highest one.

    Each rung is yielded as a new array of the shape of ``log_half``,
    which is not written.  A climb from the same log arguments as the
    one before it, bit for bit, reuses that climb's seeds.

    Parameters
    ----------
    log_half : array_like
        ``ln(x/2)`` of the arguments ``x``: any float but NaN and -inf.
    max_order : int
        Highest order to climb to, ``0 <= max_order <= MAX_BESSEL_ORDER``.
    """
    max_order = _check_order(max_order)
    lh = np.asarray(log_half, dtype=float)
    lo = lh.min(initial=math.inf)
    # written so that NaN fails the check too
    if not lo > -math.inf:
        raise ValueError("Bessel log argument ln(x/2) must not be NaN or -inf")

    global _last_seeds
    last_lh, last_lk = _last_seeds
    if last_lh.shape == lh.shape and (last_lh == lh).all():
        lprev, lcur = last_lk.copy()
    else:
        lprev, lcur = lk = _log_bessel_k01(lh)
        if lh.size <= _SEED_BLOCK:
            _last_seeds = (lh.copy(), lk.copy())
    yield 0, lprev
    if max_order == 0:
        return
    yield 1, lcur
    two_over_x = np.negative(lh)
    tiny = None
    if lo < -_LOG_HALF_LIMIT:
        tiny = np.nonzero(two_over_x > _LOG_HALF_LIMIT)
        lh_tiny = lh[tiny]
        np.minimum(two_over_x, _LOG_HALF_LIMIT, out=two_over_x)
    np.exp(two_over_x, out=two_over_x)
    step = np.empty_like(lh)
    for k in range(1, max_order):
        # ln K_{k+1} = ln K_k + ln(2k/x + exp(ln K_{k-1} - ln K_k))
        lnext = np.subtract(lprev, lcur, out=np.empty_like(lh))
        np.exp(lnext, out=lnext)
        lnext += np.multiply(two_over_x, k, out=step)
        np.log(lnext, out=lnext)
        lnext += lcur
        if tiny is not None:
            lnext[tiny] = lcur[tiny] + (math.log(k) - lh_tiny)
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


@lru_cache(maxsize=None)
def _exp_sinh_probes(refine):
    """Probe nodes of :func:`_exp_sinh_table` that bound its tails.

    Every ``_U_STRIDE * refine``-th node out from the centre, the left
    probes first, up from the table's start, then the right ones out to
    its end, as many on each side; the centre is not a probe.  Returns
    the probes' indices and the log weight of each probe's tail,
    ``ln sum_{i <= j} w_i`` for a left probe ``j`` and
    ``ln sum_{i >= j} w_i`` for a right one.
    """
    weights = _exp_sinh_table(refine)[1].astype(np.longdouble)
    centre = weights.size // 2
    steps = _U_STRIDE * refine * np.arange(1, centre // (_U_STRIDE * refine) + 1)
    probes = np.concatenate([centre - steps[::-1], centre + steps])
    tails = np.concatenate([np.cumsum(weights)[:centre], np.cumsum(weights[::-1])[centre::-1]])
    return probes, np.log(tails[probes]).astype(float)


def _u_peaks(a, b, x):
    """Per cell of ``x^a U(a, b, x)``, ``b >= 1``: the rows ``a, d, c,
    x + c, px, pc, sigma`` of :func:`_u_laplace_times_xa`, ``d = b - a - 1``."""
    d = b - a - 1.0
    # Positive root; where q > 0, the cancellation-free form of
    # (root - q) / 2, written so that no intermediate overflows.
    q = x - (b - 1.0)
    root = np.hypot(q, 2.0 * np.sqrt(a) * np.sqrt(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(q > 0.0, a * (x / (0.5 * q + 0.5 * root)), 0.5 * (root - q))
    # -h'' at the peak, with x c / (x + c)^2 taken as two ratios
    xc = x + c
    px, pc = x / xc, c / xc
    sigma = np.minimum(2.0, 1.0 / np.sqrt(c - d * px * pc))
    return np.stack([a, d, c, xc, px, pc, sigma])


def _u_exponents(peaks, nodes, work):
    """``h(v) - h(c)`` of each cell of ``peaks`` (:func:`_u_peaks`) at the
    nodes ``v = ln c + sigma s``, into ``work[2]`` of the scratch ``work``
    of shape ``(4, cells, nodes)``.  Elementwise, so a (cell, node) value
    does not depend on the other cells and nodes of the call."""
    a, d, c, xc, px, pc, sigma = peaks[:, :, None]
    t, ce, lr, tmp = work
    np.multiply(sigma, nodes, out=t)
    np.expm1(t, out=ce)
    ce *= c
    # ln(px + pc e^t) is log1p(pc expm1(t)) where that argument is above
    # -1/2: around and right of the peak.  Further left, a prefix of each
    # cell's nodes, 1 + pc expm1(t) has lost the small px + pc e^t, which
    # is formed directly instead.
    np.divide(ce, xc, out=lr)
    left = lr < -0.5
    with np.errstate(divide="ignore"):
        np.log1p(lr, out=lr)
    k = int(np.count_nonzero(left.any(axis=0)))
    if k:
        ln_r = np.exp(t[:, :k], out=tmp[:, :k])
        ln_r *= pc
        ln_r += px
        np.log(ln_r, out=ln_r)
        np.copyto(lr[:, :k], ln_r, where=left[:, :k])
    lr *= d
    lr -= ce
    t *= a
    lr += t
    return lr


def _u_windows(peaks, refine, buf):
    """Each cell's node window ``[lo, hi)`` of the ``refine`` table, from
    its exponents at the probes of :func:`_exp_sinh_probes` alone.

    ``h`` has one peak, at the centre node, so a cell's exponent falls
    steadily from there out to each end of the table, and the terms
    from a probe ``j`` outward sum to at most ``e^{h(v_j) - h(c)}``
    times the weight of ``j``'s tail.  A side's window ends before the
    innermost probe of the outermost run of probes whose bound is at
    most ``_U_TAIL`` times the sum of the probes' and the centre's
    terms, itself below the cell's node sum ``S``.  The two tails a
    cell drops then total at most ``2^-66 S``, under a quarter of a
    long double ulp of ``S`` (an ulp exceeds ``2^-64 S``), with room for
    the rounding of the terms.  The probes depend on ``refine`` alone,
    so a window depends on its cell alone.  ``buf`` is flat scratch
    space of ``4 * max(_U_BLOCK_BUDGET, probes)`` floats or more.
    """
    probes, ln_tail = _exp_sinh_probes(refine)
    steps = probes.size // 2
    nodes, weights = _exp_sinh_table(refine)
    drop = np.empty((peaks.shape[1], probes.size), dtype=bool)
    block = max(1, _U_BLOCK_BUDGET // probes.size)
    for start in range(0, peaks.shape[1], block):
        cells = peaks[:, start:start + block]
        work = buf[:4 * cells.shape[1] * probes.size].reshape(4, cells.shape[1], probes.size)
        lr = _u_exponents(cells, nodes[probes], work)
        terms = np.multiply(np.exp(lr, out=work[0]), weights[probes], out=work[0])
        floor = terms.sum(axis=1)
        floor += weights[nodes.size // 2]
        np.log(floor, out=floor)
        floor += math.log(_U_TAIL)
        lr += ln_tail
        np.less_equal(lr, floor[:, None], out=drop[start:start + block])
    # runs of drops at each end: leading on the left, trailing on the right
    lead = np.logical_and.accumulate(drop[:, :steps], axis=1).sum(axis=1)
    trail = np.logical_and.accumulate(drop[:, :steps - 1:-1], axis=1).sum(axis=1)
    lo = np.concatenate([[0], probes[:steps] + 1])[lead]
    hi = np.concatenate([[nodes.size], probes[:steps - 1:-1]])[trail]
    return lo, hi


def _u_laplace_times_xa(a, b, x, ln_gamma_a, refine):
    """``x^a U(a, b, x)`` per cell, ``b >= 1`` and finite ``x > 0``, by the exp-sinh rule.

    ``a``, ``b`` and ``x`` are equal-length float arrays, one entry per
    cell, and ``ln_gamma_a = ln Gamma(a)`` in long double; every cell
    takes the table of ``refine``.  Substituting ``u = x t`` in
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

    Each cell's terms are formed only in its window of nodes
    (:func:`_u_windows`), which leaves out the tails that cannot reach
    its long double sum, about two fifths of the table on the
    benchmark's transforms.  The cells run in groups that share a
    window, in chunks of at most ``_U_BLOCK_BUDGET`` nodes x cells.  A
    cell's node sum is a long double sum over one contiguous row of the
    whole table, zero outside the window: so a cell gets the same bits
    however the cells are batched, and, on every grid tested, the bits
    of the whole table's sum.
    """
    nodes, weights = _exp_sinh_table(refine)
    peaks = _u_peaks(a, b, x)
    buf = np.empty(4 * max(_U_BLOCK_BUDGET, nodes.size))
    lo, hi = _u_windows(peaks, refine, buf)
    total = np.empty(a.size, dtype=np.longdouble)
    key = lo * (nodes.size + 1) + hi
    order = np.argsort(key, kind="stable")
    block = max(1, _U_BLOCK_BUDGET // nodes.size)
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        window = np.s_[lo[group[0]]:hi[group[0]]]
        width = window.stop - window.start
        rows = np.zeros((min(group.size, block), nodes.size))
        for start in range(0, group.size, block):
            i = group[start:start + block]
            work = buf[:4 * i.size * width].reshape(4, i.size, width)
            terms = np.exp(_u_exponents(peaks[:, i], nodes[window], work), out=work[2])
            np.multiply(terms, weights[window], out=rows[:i.size, window])
            total[i] = rows[:i.size].sum(axis=1, dtype=np.longdouble)
    d, c, sigma = peaks[1], peaks[2], peaks[6]
    cl = c.astype(np.longdouble)
    hc = a * np.log(cl) + d * np.log1p(cl / x) - cl
    return np.exp(hc - ln_gamma_a) * sigma * total


def _int_array(name, v):
    """``v`` as an int64 array; ``ValueError`` unless each entry is an integer in int64's range."""
    v = np.asarray(v)
    if np.can_cast(v.dtype, np.int64):
        return v.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        f = v.astype(float)
        ok = ((f >= -2.0 ** 63) & (f < 2.0 ** 63)).all() and np.array_equal(f, np.round(f))
    if not ok:
        raise ValueError("%s must hold integers within the int64 range, got %r" % (name, v))
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
    mapped ``b < 1`` to ``b >= 2``.  Each cell evaluates the rule's
    terms only in the window of nodes that can reach its sum, found
    from the cell alone: the tails it leaves out total under a quarter
    of a long double ulp of the sum.  The library ``hyperu`` is not used:
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
        Argument(s), strictly positive: with 1-D ``a``, a (rows x
        points) grid, row ``r`` the points of row ``r``, or a 0-d or 1-D
        grid shared by every row, which is broadcast to one.

    Returns
    -------
    numpy.longdouble or ndarray of it
        Of the grid's shape, ``a.shape + x.shape`` for a shared grid:
        cell ``(r, j)`` holds ``x^a[r] U(a[r], b[r], x)`` at point ``j``
        of row ``r``.  A cell's value does not depend on the other cells
        of the call.  The rule works in long double from its node sums
        on, and its result stays long double, so that sums of kernels
        that cancel keep the bits a rounding to double would drop.
    """
    a = _int_array("a", a)
    b = _int_array("b", b)
    if a.ndim > 1 or a.shape != b.shape:
        raise ValueError("tricomi_u_times_xa requires a and b of one shape, "
                         "scalars or 1-D arrays")
    if not a.min(initial=1) >= 1:
        raise ValueError("tricomi_u_times_xa requires a >= 1, got %r" % (a,))
    x = np.asarray(x, dtype=float)
    shape = a.shape + (x.shape if x.ndim < 2 else x.shape[-1:])
    if not x.min(initial=math.inf) > 0.0:
        raise ValueError("tricomi_u_times_xa requires x > 0")
    a, b = a.reshape(-1), b.reshape(-1)
    # a grid of another shape raises ValueError here
    x = np.broadcast_to(x, shape).reshape(a.size, -1 if a.size else x.size)
    # x^a U(a, b, x) = x^(a+1-b) U(a+1-b, 2-b, x)
    a, b = np.where(b < 1, a + 1 - b, a), np.where(b < 1, 2 - b, b)

    # U(a, a+1, x) = x^-a exactly; the limit at inf
    out = np.ones(x.shape, dtype=np.longdouble)
    row, col = np.nonzero((b != a + 1)[:, None] & np.isfinite(x))
    if row.size:
        # ln Gamma(n) = ln 1 + ... + ln(n - 1), in long double
        ln_gamma = np.zeros(int(a.max()), dtype=np.longdouble)
        np.cumsum(np.log(np.arange(1, a.max(), dtype=np.longdouble)), out=ln_gamma[1:])
        ln_gamma = ln_gamma[a - 1]
        ca, cb, cx = a[row].astype(float), b[row].astype(float), x[row, col]
        refine = np.ones(row.size)
        flat = cb == 1.0
        # At b = 1, h is flat in v from ln x to ln a; the table must
        # resolve that stretch's ends at half its length from the centre.
        refine[flat] = np.maximum(
            1.0, np.ceil(0.5 * (np.log(ca[flat]) - np.log(cx[flat])) / 11.0))
        vals = np.empty(row.size, dtype=np.longdouble)
        for r in np.unique(refine).tolist():
            i = np.flatnonzero(refine == r)
            vals[i] = _u_laplace_times_xa(ca[i], cb[i], cx[i], ln_gamma[row[i]], int(r))
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


@lru_cache(maxsize=None)
def _ln_gamma_table(size):
    """``ln Gamma(n)`` for ``n = 1 .. size`` by :func:`ln_gamma_int`."""
    return np.array([ln_gamma_int(n) for n in range(1, size + 1)])


def ln_gamma_ints(n):
    """:func:`ln_gamma_int` of each entry of an integer array ``n >= 1``.

    Looked up in a table of ``n = 1 ..`` the next power of two at or
    above ``max(n)``, made once per size.
    """
    n = _int_array("n", n)
    if n.size and not n.min() >= 1:
        raise ValueError("ln_gamma_ints requires integers n >= 1")
    top = int(n.max(initial=1))
    return _ln_gamma_table(1 << (top - 1).bit_length())[n - 1]

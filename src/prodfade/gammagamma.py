"""Weighted sums of product-of-two-Gammas (generalized-K) kernels.

If ``X ~ Gamma(m, Omega)`` and ``Xhat ~ Gamma(mhat, Omegahat)`` are
independent, the product ``Y = X Xhat`` has a Bessel-type density and,
for integer shapes, a finite-sum distribution function.  These kernels
are the building blocks of the full product law: expanding each
channel into its Gamma mixture turns the product's density and
distribution function into weighted sums of them, evaluated here.  A
single Gamma product is the one-pair case,
``ProductModel(ShadowedParams.nakagami(m, m * Omega),
ShadowedParams.nakagami(mhat, mhat * Omegahat))``.

The weighted-sum evaluators accept whole arrays of kernels at once and
work in log space throughout, so large shape parameters and scales
spanning many decades cannot overflow.  Only the scale *product*
``theta = Omega * Omegahat`` ever enters; it is carried as a log.

Each distinct kernel is evaluated once.  A link has one scale when
``mu <= m`` and two when ``mu > m``, so a product has at most four
distinct ``theta`` however many pairs it has, and many of its rows are
the same kernel.  A row plan, built from the integer shapes and the
pair-to-``theta`` index alone, merges such rows into one row whose
weight is the sum of theirs, and the Bessel ladder climbs once per
distinct ``theta``.  The density kernel is symmetric in its two shapes,
so its rows merge on the unordered pair.  Plans depend on the integer
layout alone and are cached, so a fit that revisits an integer cell at
many ``kappa`` plans it once; what each call still pays is the kernel
math (the ladder's ``K_0``/``K_1`` seeds above all) and the sum.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np
from scipy import special

from .specfun import log_bessel_k_ladder

__all__ = ["weighted_pdf_sum", "weighted_cdf_sum"]

_LN2 = math.log(2.0)

# Cap on rows*points, and on kept ladder rungs*points, handled in one
# vectorized block; larger requests are chunked over the evaluation grid
# to bound peak memory.
_BLOCK_BUDGET = 2_000_000

# Row plans kept per sum kind, one per distinct integer layout.  The
# 576 cells mu, m <= 12 at four kappa make 439 layouts of each kind,
# about 5 MB of plans in all.
_PLAN_CACHE = 1024

# Merged kernel rows of one sum.  ``np.bincount(merge, weights[source])``
# gives the row weights; row ``r`` is the kernel with log scale
# ``theta[r]`` (an index into the distinct log scales), Bessel order
# ``order[r]``, coefficient ``log_coef[r]`` and exponent ``expo[r]`` (the
# last two as columns); ``max_order`` is the highest order of any row.
_RowPlan = namedtuple("_RowPlan", "source merge theta order log_coef expo max_order")


def _row_plan(source, theta, a, b, log_coef, expo, order):
    """Merge rows that are the same kernel ``(theta, a, b)``.

    The other arguments give each unmerged row's source pair, log
    coefficient, exponent and Bessel order.  Merged rows keep the order
    in which each kernel first appears, so callers listing pairs by
    descending |weight| get roughly dominant-first accumulation.
    """
    span_a, span_b = int(a.max()) + 1, int(b.max()) + 1
    keys = (theta * span_a + a) * span_b + b
    _, first, merge = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    first = first[by_first]
    return _RowPlan(source, rank[merge], theta[first], order[first],
                    log_coef[first, None], expo[first, None], int(order.max()))


@lru_cache(maxsize=_PLAN_CACHE)
def _cdf_plan(shapes_a, shapes_b, theta_of_pair):
    """Plan of the cdf sum: pair ``p`` gives rows ``k = 0 .. shapes_a[p]-1``
    of kernel ``(theta, k, shapes_b[p])``.  Arguments are int64 bytes."""
    counts = np.frombuffer(shapes_a, dtype=np.int64)
    pair = np.repeat(np.arange(counts.size), counts)
    k = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
    mh = np.frombuffer(shapes_b, dtype=np.int64)[pair]
    theta = np.frombuffer(theta_of_pair, dtype=np.int64)[pair]
    log_coef = _LN2 - special.gammaln(k + 1.0) - special.gammaln(mh.astype(float))
    return _row_plan(pair, theta, k, mh, log_coef, 0.5 * (k + mh), np.abs(mh - k))


@lru_cache(maxsize=_PLAN_CACHE)
def _pdf_plan(shapes_a, shapes_b, theta_of_pair):
    """Plan of the pdf sum: one row of kernel ``(theta, ma, mb)`` per pair.

    The kernel is symmetric in its shapes (``K_{-nu} = K_nu``), so rows
    are merged on the unordered pair ``{ma, mb}``.
    """
    ma = np.frombuffer(shapes_a, dtype=np.int64)
    mb = np.frombuffer(shapes_b, dtype=np.int64)
    theta = np.frombuffer(theta_of_pair, dtype=np.int64)
    log_coef = _LN2 - special.gammaln(ma.astype(float)) - special.gammaln(mb.astype(float))
    return _row_plan(np.arange(ma.size), theta, np.minimum(ma, mb), np.maximum(ma, mb),
                     log_coef, 0.5 * (ma + mb) - 1.0, np.abs(ma - mb))


def _plan_of(shapes_a, shapes_b, log_scales, build):
    """Distinct log scales, and the cached plan of the pairs' integer layout.

    The distinct scales are those of ``np.unique``, found by a sort and
    a search: ``np.unique`` costs several times more on the few pairs of
    a fit's model.
    """
    log_scales = np.asarray(log_scales, dtype=float)
    ordered = log_scales.copy()
    ordered.sort()
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    log_thetas = ordered[first]
    theta_of_pair = log_thetas.searchsorted(log_scales)
    key = (np.asarray(shapes_a, dtype=np.int64).tobytes(),
           np.asarray(shapes_b, dtype=np.int64).tobytes(),
           theta_of_pair.astype(np.int64, copy=False).tobytes())
    return log_thetas, build(*key)


def _eval_blocks(plan, weights, log_thetas, x, shift=False):
    """``sum_r w_r coef_r (x/theta_r)^expo_r K_{order_r}(2 sqrt(x/theta_r))``.

    Shared engine for the pdf and cdf sums, over the plan's merged rows.
    With ``shift``, each row's ``ln theta`` is subtracted after the other
    terms.  Chunked over ``x`` so that neither the rows nor the kept
    ladder rungs exceed the block budget.
    """
    wt = np.bincount(plan.merge, weights=np.asarray(weights, dtype=float)[plan.source],
                     minlength=plan.theta.size)
    rungs_per_point = (plan.max_order + 1) * log_thetas.size
    block = max(1, _BLOCK_BUDGET // max(wt.size, rungs_per_point))
    if x.size <= block:
        return _eval_block(plan, wt, log_thetas, x, shift)
    return np.concatenate([_eval_block(plan, wt, log_thetas, x[start:start + block], shift)
                           for start in range(0, x.size, block)])


def _eval_block(plan, wt, log_thetas, x, shift):
    """One block of :func:`_eval_blocks`, with the merged row weights ``wt``.

    Every row of one ``theta`` shares the Bessel argument, so one
    log-space recurrence climb over the (distinct theta x points)
    argument matrix serves every row and order at once; each rung is
    kept, and every row then gathers its own.
    """
    lu = np.log(x) - log_thetas[:, None]   # (distinct theta, points)
    arg = np.multiply(lu, 0.5)
    np.exp(arg, out=arg)
    arg *= 2.0
    rungs = np.empty((plan.max_order + 1,) + arg.shape)
    for nu, lk in log_bessel_k_ladder(arg, plan.max_order):
        rungs[nu] = lk
    lt = lu[plan.theta]
    lt *= plan.expo
    lt += plan.log_coef
    lt += rungs[plan.order, plan.theta]
    if shift:
        lt -= log_thetas[plan.theta, None]
    np.exp(lt, out=lt)
    # einsum, not BLAS gemv, which re-blocks the reduction with matrix
    # size.  einsum's order is fixed for a given block width, so one grid
    # gives the same bits on every run; a point's last bit can still
    # differ between grids of different length, because a block's SIMD
    # lanes and its tail round differently.
    return np.einsum("r,rb->b", wt, lt)


def weighted_cdf_sum(weights, shapes_a, shapes_b, log_scales, x):
    """Signed-weighted product-kernel distribution function at ``x > 0``.

    Computes ``1 - sum_p w_p S_p(x)`` where ``S_p`` is the finite
    Bessel series of kernel ``p`` (``shapes_a[p]`` terms, truncation
    indices ``k = 0 .. shapes_a[p]-1``).  The ``1 - ...`` form is exact
    because the weights sum to one.  Series terms that are the same
    kernel ``(theta, k, shapes_b)`` are summed once, with their pair
    weights added.  Returns the raw signed result; the caller decides
    how to range-check it.
    """
    log_thetas, plan = _plan_of(shapes_a, shapes_b, log_scales, _cdf_plan)
    total = _eval_blocks(plan, weights, log_thetas, np.asarray(x, dtype=float))
    return np.subtract(1.0, total, out=total)


def weighted_pdf_sum(weights, shapes_a, shapes_b, log_scales, x):
    """Signed-weighted product-kernel density at ``x > 0``.

    One Bessel term per kernel, evaluated in log space; the exponent
    ``expo - 1`` and the trailing ``- ln theta`` reproduce
    ``x^(expo-1) / theta^expo`` without forming either power.  May dip
    a few ulp below zero where signed kernels cancel; returned as
    computed.
    """
    log_thetas, plan = _plan_of(shapes_a, shapes_b, log_scales, _pdf_plan)
    return _eval_blocks(plan, weights, log_thetas, np.asarray(x, dtype=float), shift=True)

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
"""

import math

import numpy as np
from scipy import special

from .specfun import log_bessel_k_ladder

__all__ = ["weighted_pdf_sum", "weighted_cdf_sum"]

_LN2 = math.log(2.0)

# Cap on rows*points handled in one vectorized block; larger requests
# are chunked over the evaluation grid to bound peak memory.
_BLOCK_BUDGET = 2_000_000


def _harvest_plan(order, pair_idx):
    """Precompute, per Bessel order, which rows want it and their pairs."""
    plan = {}
    for nu in np.unique(order):
        rows = np.nonzero(order == nu)[0]
        plan[int(nu)] = (rows, pair_idx[rows])
    return plan


def _eval_blocks(weights, log_coef, expo, order, pair_idx, log_scales, x, shift=None):
    """``sum_r w_r coef_r (x/theta_r)^expo_r K_{order_r}(2 sqrt(x/theta_r))``.

    Shared engine for the pdf and cdf sums.  All rows of a kernel share
    the same Bessel argument, so one log-space recurrence climb over
    the (pairs x points) argument matrix serves every order at once;
    rows harvest their rung as the ladder passes it.  ``shift``, when
    given, is a per-row log factor subtracted after the other terms.
    Chunked over ``x`` so rows * points stays within the block budget.
    """
    wt = weights[pair_idx]
    nrows = wt.size
    max_order = int(order.max()) if nrows else 0
    plan = _harvest_plan(order, pair_idx)
    block = max(1, _BLOCK_BUDGET // max(1, nrows))
    total = np.empty_like(x)
    for start in range(0, x.size, block):
        xb = x[start:start + block]
        lu = np.log(xb)[None, :] - log_scales[:, None]   # (pairs, block)
        arg = 2.0 * np.exp(0.5 * lu)
        logk = np.empty((nrows, xb.size))
        for nu, lk in log_bessel_k_ladder(arg, max_order):
            hit = plan.get(nu)
            if hit is not None:
                rows, pairs = hit
                logk[rows] = lk[pairs]
        lt = log_coef[:, None] + expo[:, None] * lu[pair_idx] + logk
        if shift is not None:
            lt -= shift[:, None]
        # einsum keeps a fixed per-element accumulation order, so results
        # do not depend on how callers batch their x grids (BLAS gemv
        # re-blocks the reduction with matrix size and breaks that).
        total[start:start + block] = np.einsum("r,rb->b", wt, np.exp(lt))
    return total


def weighted_cdf_sum(weights, shapes_a, shapes_b, log_scales, x):
    """Signed-weighted product-kernel distribution function at ``x > 0``.

    Computes ``1 - sum_p w_p S_p(x)`` where ``S_p`` is the finite
    Bessel series of kernel ``p`` (``shapes_a[p]`` terms, truncation
    indices ``k = 0 .. shapes_a[p]-1``).  The ``1 - ...`` form is exact
    because the weights sum to one.  Row order follows the pair order
    of the inputs, so callers passing pairs sorted by descending
    |weight| get dominant-first accumulation.  Returns the raw signed
    result; the caller decides how to range-check it.
    """
    weights = np.asarray(weights, dtype=float)
    counts = np.asarray(shapes_a, dtype=np.int64)
    shapes_b = np.asarray(shapes_b, dtype=np.int64)
    log_scales = np.asarray(log_scales, dtype=float)
    x = np.asarray(x, dtype=float)

    pair_idx = np.repeat(np.arange(counts.size), counts)
    kk = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    mh = shapes_b[pair_idx]
    log_coef = _LN2 - special.gammaln(kk + 1.0) - special.gammaln(mh.astype(float))
    expo = 0.5 * (kk + mh)
    order = np.abs(mh - kk).astype(np.int64)
    return 1.0 - _eval_blocks(weights, log_coef, expo, order, pair_idx, log_scales, x)


def weighted_pdf_sum(weights, shapes_a, shapes_b, log_scales, x):
    """Signed-weighted product-kernel density at ``x > 0``.

    One Bessel term per kernel, evaluated in log space; the exponent
    ``expo - 1`` and the trailing ``- ln theta`` reproduce
    ``x^(expo-1) / theta^expo`` without forming either power.  May dip
    a few ulp below zero where signed kernels cancel; returned as
    computed.
    """
    weights = np.asarray(weights, dtype=float)
    ma = np.asarray(shapes_a, dtype=float)
    mb = np.asarray(shapes_b, dtype=float)
    log_scales = np.asarray(log_scales, dtype=float)
    x = np.asarray(x, dtype=float)

    log_coef = _LN2 - special.gammaln(ma) - special.gammaln(mb)
    expo = 0.5 * (ma + mb) - 1.0
    order = np.abs(ma - mb).astype(np.int64)
    return _eval_blocks(weights, log_coef, expo, order, np.arange(weights.size),
                        log_scales, x, shift=log_scales)

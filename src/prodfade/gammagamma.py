"""Weighted sums of product-of-two-Gammas (generalized-K) kernels.

If ``X ~ Gamma(m, Omega)`` and ``Xhat ~ Gamma(mhat, Omegahat)`` are
independent, the product ``Y = X Xhat`` has a Bessel-type density, for
integer shapes a finite-sum distribution function, and a Tricomi-U
Laplace transform.  These kernels are the building blocks of the full
product law: expanding each channel into its Gamma mixture turns the
product's density, distribution function and transform into weighted
sums of them, evaluated here.  A single Gamma product is the one-pair
case, ``ProductModel(ShadowedParams.nakagami(m, m * Omega),
ShadowedParams.nakagami(mhat, mhat * Omegahat))``.

The weighted-sum evaluators accept whole arrays of kernels at once and
work in log space throughout, so large shape parameters and scales
spanning many decades cannot overflow.  Only the scale *product*
``theta = Omega * Omegahat`` ever enters; it is carried as a log.  The
density and distribution sums take their points as logs too, so neither
``x`` nor ``x/theta`` need be a double: the kernels take their limits.

Each distinct kernel is evaluated once, by one engine for all three
sums.  A link has one scale when ``mu <= m`` and two when ``mu > m``,
so a product has at most four distinct ``theta`` however many pairs it
has, and many of its rows are the same kernel.  A row plan, built from
the integer shapes and the pair-to-``theta`` index alone, merges such
rows into one row whose weight is the sum of theirs; the Bessel ladder
then climbs once per distinct ``theta``, and Tricomi U takes one call
per block of points, every set's rows at once, each row at its own
argument grid.  The density kernel is symmetric in its two shapes
(``K_{-nu} = K_nu``), and so is the transform's (Kummer's
transformation), so their rows merge on the unordered pair.  Plans
depend on the integer layout alone, and the :class:`Pairs` layout
builds each on first use and keeps it, so a fit that revisits an
integer cell at many ``kappa`` (through the cell's cached plan) plans
it once; what each call still pays is the kernel math (the ladder's
``K_0``/``K_1`` seeds, the exp-sinh sums of U) and the sum.

Nothing here calls scipy: a plan's log-gamma coefficients are exact
integer log-factorials (:func:`prodfade.specfun.ln_gamma_ints`), and
the ladder seeds itself in numpy.  So ``eval --dist prod`` and
``--dist gg``, ``wpc``, ``backscatter`` and ``fit-cdf`` never import
``scipy.special``, and ``fit-pdf`` loads it only with ``scipy.optimize``;
``eval --dist kms`` still does, for the single-link Gamma mixture
(:mod:`prodfade.mixture`), as does the Nakagami comparator of
:mod:`prodfade.sysmodels`.

Which pairs share a ``theta`` is given by the caller's :class:`Pairs`
layout (:func:`pair_layout`); a product model passes its cell plan's,
grouped by the links' scale choices (see :mod:`prodfade.pdist`).  The
weights and log scales may carry a leading axis of parameter sets over
one layout: one call then climbs the ladder over every set's arguments
at once and returns one row per set, each row the bits a call with
that set alone gives.
"""

import math
from collections import namedtuple
from functools import cached_property, partial

import numpy as np

from .specfun import ln_gamma_ints, log_bessel_k_ladder

__all__ = ["pair_layout", "weighted_pdf_sum", "weighted_cdf_sum", "weighted_mgf_sum"]

_LN2 = math.log(2.0)

# Cap on rows*points, and on kept ladder rungs*points, handled in one
# vectorized block; larger requests are chunked over the evaluation grid
# to bound peak memory.
_BLOCK_BUDGET = 2_000_000

# Merged kernel rows of the pdf and cdf sums.
# ``np.bincount(merge, weights[source])`` gives the row weights; row
# ``r`` is the kernel with log scale ``theta[r]`` (an index into the
# distinct log scales), coefficient ``log_coef[r]`` and exponent
# ``expo[r]`` (the last two as columns), and its Bessel order and theta
# are cell ``rung[r]`` of a ladder's (orders x distinct theta) rungs,
# flat; ``max_order`` is the highest order of any row, and ``width`` the
# cells a block holds per point: rows, or kept ladder rungs if more.
# ``merge_at`` holds the bincount index of a batch of parameter sets,
# per batch size, made on first use.
_BesselPlan = namedtuple("_BesselPlan",
                         "source merge theta rung log_coef expo max_order width merge_at")

# Merged kernel rows of the mgf sum, ``source`` and ``merge`` as above:
# row ``r`` is ``y^a U(a, b, y)`` at ``y = -1 / (s theta)``, with
# ``a[r]``, ``b[r]`` and the log scale ``theta[r]``, and ``width`` is
# the row count.
_UPlan = namedtuple("_UPlan", "source merge theta a b width merge_at")


def _merge_rows(theta, a, b):
    """Merge rows that are the same kernel ``(theta, a, b)``.

    Returns the merged row of each row and the first row of each
    merged row.  Merged rows keep the order in which each kernel first
    appears, so the sums accumulate in the callers' pair order.
    """
    span_a, span_b = int(a.max()) + 1, int(b.max()) + 1
    keys = (theta * span_a + a) * span_b + b
    _, first, merge = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    return rank[merge], first[by_first]


def _bessel_plan(source, merge, theta, order, log_coef, expo):
    """Plan of merged Bessel rows, the columns given per merged row."""
    max_order = int(order.max())
    n_theta = int(theta.max()) + 1
    return _BesselPlan(source, merge, theta, order * n_theta + theta, log_coef[:, None],
                       expo[:, None], max_order, max(theta.size, (max_order + 1) * n_theta), {})


class Pairs:
    """The pairs of a product in a kappa-free form, and their row plans.

    Pair ``p`` is the kernel of integer shapes ``shapes_a[p]`` and
    ``shapes_b[p]`` at distinct scale product ``theta[p]``, numbered
    ``0 .. T-1``; ``first[t]`` is a pair whose scale product is ``t``.
    Which pairs share a theta is the caller's choice (a product model
    groups them by the links' scale choices, and with two equal links
    puts unit x boosted and boosted x unit on one, see
    :mod:`prodfade.pdist`).  Pairs that share a theta must have one log
    scale product, bit for bit: the sums take each theta's value from
    its first pair.  The arrays are read-only, and each row plan is
    built on first use and kept with the layout, so a caller that keeps
    the layout (a cell plan, which a fit revisits at many ``kappa``)
    plans each sum once.
    """

    def __init__(self, shapes_a, shapes_b, theta_of_pair):
        self.shapes_a, self.shapes_b, self.theta = (
            np.array(v, dtype=np.int64) for v in (shapes_a, shapes_b, theta_of_pair))
        self.first = np.unique(self.theta, return_index=True)[1]
        for arr in (self.shapes_a, self.shapes_b, self.theta, self.first):
            arr.setflags(write=False)

    @cached_property
    def cdf(self):
        """Plan of the cdf sum: pair ``p`` gives rows ``k = 0 .. shapes_a[p]-1``
        of kernel ``(theta, k, shapes_b[p])``."""
        counts = self.shapes_a
        pair = np.repeat(np.arange(counts.size), counts)
        k = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
        mh, theta = self.shapes_b[pair], self.theta[pair]
        merge, first = _merge_rows(theta, k, mh)
        k, mh = k[first], mh[first]
        log_coef = _LN2 - ln_gamma_ints(k + 1) - ln_gamma_ints(mh)
        return _bessel_plan(pair, merge, theta[first], np.abs(mh - k), log_coef,
                            0.5 * (k + mh))

    @cached_property
    def pdf(self):
        """Plan of the pdf sum: one row of kernel ``(theta, ma, mb)`` per pair.

        The kernel is symmetric in its shapes (``K_{-nu} = K_nu``), so
        rows are merged on the unordered pair ``{ma, mb}``; a merged row's
        coefficient is formed in the shape order of its first pair.
        """
        ma, mb = self.shapes_a, self.shapes_b
        merge, first = _merge_rows(self.theta, np.minimum(ma, mb), np.maximum(ma, mb))
        ma, mb = ma[first], mb[first]
        log_coef = _LN2 - ln_gamma_ints(ma) - ln_gamma_ints(mb)
        return _bessel_plan(np.arange(merge.size), merge, self.theta[first], np.abs(ma - mb),
                            log_coef, 0.5 * (ma + mb) - 1.0)

    @cached_property
    def mgf(self):
        """Plan of the mgf sum: one row ``y^a U(a, b, y)`` per pair.

        A pair ``(ma, mb)`` has the kernel ``y^ma U(ma, 1 + ma - mb, y)``.
        Kummer's transformation (DLMF 13.2.40) makes it symmetric,
        ``y^ma U(ma, 1 + ma - mb, y) = y^mb U(mb, 1 + mb - ma, y)``, so
        rows are merged on the unordered pair, as ``a = max(ma, mb)`` and
        ``b = 1 + |ma - mb|``: the form U evaluates, with ``b >= 1``.
        """
        ma, mb = self.shapes_a, self.shapes_b
        a, b = np.maximum(ma, mb), 1 + np.abs(ma - mb)
        merge, first = _merge_rows(self.theta, a, b)
        return _UPlan(np.arange(merge.size), merge, self.theta[first], a[first], b[first],
                      first.size, {})


#: ``pair_layout(shapes_a, shapes_b, theta_of_pair)``: the :class:`Pairs`
#: the sums take.
pair_layout = Pairs


def _prepare(weights, log_scales, x, pairs):
    """Batched engine arguments of one of the three public sums.

    Returns the weights and distinct log scales of ``pairs`` with a
    leading batch axis, the points (``ln x`` or ``s``) as a flat float
    array, and whether the call was unbatched (1-d ``weights``).
    """
    weights = np.asarray(weights, dtype=float)
    log_scales = np.asarray(log_scales, dtype=float)
    single = weights.ndim == 1
    if single:
        weights, log_scales = weights[None], log_scales[None]
    return weights, log_scales.take(pairs.first, axis=1), np.asarray(x, dtype=float), single


def _eval_blocks(plan, weights, log_thetas, x, rows, dtype=float):
    """``sum_r w_r k_r(x)`` over the plan's merged rows, ``k = rows(plan, log_thetas, x)``.

    Shared engine for the pdf, cdf and mgf sums, batched over parameter
    sets of one plan: ``weights`` (sets x pairs) and ``log_thetas``
    (sets x distinct theta) give a (sets x points) result, and ``rows``
    gives the (sets x rows x points) array of kernel values at one
    block of points.  Merged row weights are summed in pair order, in
    ``dtype``: double through ``np.bincount``, long double through
    ``np.add.at``.  Chunked over ``x``, and then over the sets, so that a
    block holds at most the block budget of the plan's ``width`` cells
    per point and set; the chunks over ``x`` do not depend on the sets.
    """
    sets, rows_per_set = weights.shape[0], plan.theta.size
    w = weights.take(plan.source, axis=1)
    at = plan.merge_at.get(sets)
    if at is None:
        at = plan.merge_at[sets] = (np.arange(sets)[:, None] * rows_per_set + plan.merge).ravel()
    if dtype is float:
        wt = np.bincount(at, weights=w.ravel(), minlength=sets * rows_per_set)
    else:
        wt = np.zeros(sets * rows_per_set, dtype)
        np.add.at(wt, at, w.ravel())
    wt = wt.reshape(sets, rows_per_set)
    block = max(1, _BLOCK_BUDGET // plan.width)
    group = max(1, _BLOCK_BUDGET // (plan.width * max(1, min(block, x.size))))
    out = np.empty((sets, x.size), dtype)
    # einsum, not BLAS gemv, which re-blocks the reduction with matrix
    # size.  einsum's order is fixed for a given block width, so one grid
    # gives the same bits on every run and in every batch; a point's last
    # bit can still differ between grids of different length, because a
    # block's SIMD lanes and its tail round differently.
    for first_set in range(0, sets, group):
        sl = slice(first_set, first_set + group)
        for start in range(0, x.size, block):
            out[sl, start:start + block] = np.einsum(
                "sr,srb->sb", wt[sl], rows(plan, log_thetas[sl], x[start:start + block]))
    return out


def _bessel_rows(plan, log_thetas, log_x, shift=False):
    """``coef_r (x/theta_r)^expo_r K_{order_r}(2 sqrt(x/theta_r))`` per set and merged row,
    at the log points ``log_x``.

    Every row of one ``theta`` shares the Bessel argument, whose half
    has the log ``(ln x - ln theta) / 2``, so one log-space recurrence
    climb over the ((sets x distinct theta) x points) matrix of those
    logs serves every set, row and order at once; each rung is kept,
    and every row then gathers its own.  With ``shift``, each row's
    ``ln theta`` is subtracted after the other terms.
    """
    lu = log_x - log_thetas[:, :, None]   # (sets, distinct theta, points)
    rungs = np.empty((lu.shape[0], plan.max_order + 1) + lu.shape[1:])
    for nu, lk in log_bessel_k_ladder(np.multiply(lu, 0.5).reshape(-1, log_x.size),
                                      plan.max_order):
        rungs[:, nu] = lk.reshape(lu.shape)
    lt = lu.take(plan.theta, axis=1)
    lt *= plan.expo
    lt += plan.log_coef
    lt += rungs.reshape(lu.shape[0], -1, log_x.size).take(plan.rung, axis=1)
    if shift:
        lt -= log_thetas.take(plan.theta, axis=1)[:, :, None]
    return np.exp(lt, out=lt)


_shifted_bessel_rows = partial(_bessel_rows, shift=True)


def weighted_cdf_sum(weights, shapes_a, shapes_b, log_scales, log_x, pairs):
    """Signed-weighted product-kernel distribution function at the log points ``log_x``.

    ``log_x`` holds ``ln x`` of points ``x > 0``, any finite float.
    Computes ``1 - sum_p w_p S_p(x)`` where ``S_p`` is the finite
    Bessel series of kernel ``p`` (``shapes_a[p]`` terms, truncation
    indices ``k = 0 .. shapes_a[p]-1``).  The ``1 - ...`` form is exact
    because the weights sum to one.  Series terms that are the same
    kernel ``(theta, k, shapes_b)`` are summed once, with their pair
    weights added.  Returns the raw signed result; the caller decides
    how to range-check it.

    ``pairs`` (from :func:`pair_layout`) is the layout of the pairs'
    shapes ``shapes_a``/``shapes_b`` and says which pairs share a
    ``theta``; the first pair of each shared ``theta`` gives its log
    scale.  ``weights`` and ``log_scales`` may carry a leading axis of
    parameter sets over the one layout, and the result then has one row
    per set.
    """
    w, log_thetas, log_x, single = _prepare(weights, log_scales, log_x, pairs)
    total = _eval_blocks(pairs.cdf, w, log_thetas, log_x, _bessel_rows)
    np.subtract(1.0, total, out=total)
    return total[0] if single else total


def weighted_pdf_sum(weights, shapes_a, shapes_b, log_scales, log_x, pairs):
    """Signed-weighted product-kernel density at the log points ``log_x``.

    One Bessel term per kernel, evaluated in log space; the exponent
    ``expo - 1`` and the trailing ``- ln theta`` reproduce
    ``x^(expo-1) / theta^expo`` without forming either power.  May dip
    a few ulp below zero where signed kernels cancel; returned as
    computed.  Points, ``pairs`` and batches as in :func:`weighted_cdf_sum`.
    """
    w, log_thetas, log_x, single = _prepare(weights, log_scales, log_x, pairs)
    total = _eval_blocks(pairs.pdf, w, log_thetas, log_x, _shifted_bessel_rows)
    return total[0] if single else total


def weighted_mgf_sum(weights, shapes_a, shapes_b, log_scales, s, u_times_xa, pairs):
    """Signed-weighted product-kernel Laplace transform ``E[exp(s Z)]`` at ``s < 0``.

    Pair ``p`` contributes ``y^ma U(ma, 1 + ma - mb, y)`` at
    ``y = -1 / (s theta_p)``.  Pairs that are the same kernel, on the
    unordered shape pair, are summed once.  ``u_times_xa`` is the
    row-batched evaluator of ``x^a U(a, b, x)``
    (:func:`prodfade.specfun.tricomi_u_times_xa`, or a wrapper of it);
    it is called once per block of points and sets, with every set's
    merged rows and a (rows x points) grid of each row's ``y``.  Where
    ``y`` overflows to inf it gives the limit 1.  The row weights, the
    kernels and their sum are kept in long double and rounded once:
    where signed pairs cancel (a thousandfold and more at large
    ``|s|``), double rounding of each merged weight and kernel would
    cost digits.  Returns the raw signed result.  ``pairs`` and batches as in
    :func:`weighted_cdf_sum`.
    """
    def rows(plan, log_thetas, s):
        sets = log_thetas.shape[0]
        # y rounded once from long double; it overflows to inf near s = 0
        with np.errstate(over="ignore"):
            y = (np.exp(-log_thetas.astype(np.longdouble))[:, plan.theta, None]
                 / -s.astype(np.longdouble)).astype(float)
        u = u_times_xa(np.tile(plan.a, sets), np.tile(plan.b, sets), y.reshape(-1, s.size))
        return u.reshape(y.shape)

    w, log_thetas, s, single = _prepare(weights, log_scales, s, pairs)
    total = _eval_blocks(pairs.mgf, w, log_thetas, s, rows, np.longdouble).astype(float)
    return total[0] if single else total

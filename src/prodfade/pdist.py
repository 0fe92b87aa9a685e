"""Exact statistics of a product of two squared kappa-mu shadowed channels.

``Z = X * Xhat`` with the factors independent and each following a
squared kappa-mu shadowed law with integer ``mu`` and ``m``.  Expanding
both factors into their finite Gamma mixtures reduces every statistic
of ``Z`` to a doubly indexed weighted sum of Gamma-product kernels:

    f_Z(z) = sum_{j,h} C_j Chat_h * f_GG(z; m_j, mhat_h, Omega_j Omegahat_h)

and likewise for the distribution function, Laplace transform and moments.
The pair weights are signed whenever a factor has ``mu > m``; their absolute
sum is the cancellation indicator exposed as ``abs_weight_sum``.

The pairs depend on the two links' forms alone.  One rule,
:func:`_plan_key`, picks a parameter set's plan, for a model and for each
set of a batch alike: the links' layout keys, integer pairs from the one
form rule :func:`~prodfade.mixture._link_form`, and whether they are tied.
Each key has a cached plan (:class:`_CellPlan`) of the pairs' layout,
which keeps the engine's row plans (:class:`~prodfade.gammagamma.Pairs`),
and each scale product's columns.
Parameter sets only re-weigh it, by one call of the long-double weight
formula for both links and one loop of checks (:meth:`_CellPlan.weigh`),
so a :class:`ProductModel` builds no mixture.  Both fits weigh each
round's candidates in one pass, through the evaluators that
:func:`_cdf_rows_at` and :func:`_envelope_rows_at` build once per fit
on points checked and logged there.

Also provided is the envelope view ``R = c sqrt(Z)`` used to match
measured amplitude histograms, with ``E[R]`` a prescribed level.
"""

import math
from functools import cached_property, lru_cache, partial

import numpy as np

from .gammagamma import Pairs, weighted_cdf_sum, weighted_mgf_sum, weighted_pdf_sum
from .mixture import (
    _LOG_DBL_MAX, CDF_RANGE_TOL, ShadowedParams, _all_finite, _cdf_in_range, _clip_unit,
    _link_form, _link_layout, _link_refusal, _link_terms, _links_layout, _log_gains, _log_points,
    _log_sums, _moment, _moment_refusal, _points, _positive, _worst_cdf, expand, sample_single,
)
from .specfun import tricomi_u_times_xa

__all__ = ["ProductModel", "EnvelopeModel"]


class _CellPlan:
    """Kappa-free plan of the products of two links' forms.

    One plan per :func:`_plan_key` ``(link_a, link_b, tied)``: each link's
    layout key ``(mu, m)`` (:func:`~prodfade.mixture._link_form`) and the
    tie.  Pair ``p`` is term ``p // n_b`` of link a and ``p % n_b``
    of link b, each link's terms in layout order, or reversed where ``mu >
    m``.  ``pairs``, the layout (:class:`~prodfade.gammagamma.Pairs`), holds
    the pairs' shapes and builds and keeps the engine's row plans.  Pairs of
    one choice of the two terms' scales (unit or boosted) share a ``theta``
    of it, which :meth:`weigh` forms once from two scale columns; a tied
    plan, of two equal links, gives unit x boosted and boosted x unit one
    ``theta``, as they are one scale product bit for bit.  The arrays are
    read-only, as every model and candidate of the two forms shares them.
    """

    def __init__(self, link_a, link_b, tied):
        lay_a, lay_b = _link_layout(*link_a), _link_layout(*link_b)
        self._joint = _links_layout((link_a, link_b))
        # a mu > m link's terms in reverse layout order, in which its
        # weights fall in magnitude (strictly at small kappa): the signed
        # sums then add dominant terms first, as the mixtures' order did
        term_a, term_b = (np.arange(lay.shapes.size)[::-1 if mu > m else 1]
                          for (mu, m), lay in ((link_a, lay_a), (link_b, lay_b)))
        self.ia = np.repeat(term_a, term_b.size)
        ib = np.tile(term_b, term_a.size)
        choice_a, choice_b = lay_a.boosted[self.ia], lay_b.boosted[ib]
        choice = choice_a + choice_b if tied else 2 * choice_a + choice_b
        _, first, theta = np.unique(choice, return_index=True, return_inverse=True)
        self.pairs = Pairs(lay_a.shapes[self.ia], lay_b.shapes[ib], theta)
        # link b's pair columns in the joint weights, each theta's two columns
        # of the (sets x 4) scales, from its first pair, and each link's first
        # and last used scale column
        self._na = lay_a.shapes.size
        self._wb = self._na + ib
        self._ta, self._tb = choice_a[first], 2 + choice_b[first]
        self._used = [(2 * i + int(lay.boosted.min()), 2 * i + int(lay.boosted.max()))
                      for i, lay in enumerate((lay_a, lay_b))]
        self._log_gains = {}
        for arr in (self.ia, self._wb, self._ta, self._tb):
            arr.setflags(write=False)

    def log_gain(self, order):
        """Per pair, ``ln Gamma(ka + order) Gamma(kb + order) / (Gamma(ka) Gamma(kb))``
        at ``order`` 1/2 (the links' ``_log_gains``) or an integer >= 1 (the rising
        factorials' ``ln (ka + j)(kb + j)``, accumulated), made once, read-only."""
        gain = self._log_gains.get(order)
        if gain is None:
            ka, kb = self.pairs.shapes_a, self.pairs.shapes_b
            if order == 0.5:
                gain = _log_gains(ka, 0.5) + _log_gains(kb, 0.5)
            else:
                gain = np.log(ka * kb)
                for j in range(1, order):
                    gain += np.log((ka + j) * (kb + j))
            gain.setflags(write=False)
            self._log_gains[order] = gain
        return gain

    def log_moments(self, w, lth, order):
        """``ln E[Z^order]`` of sets weighed on this plan: per set, the
        :func:`~prodfade.mixture._log_sums` of the pairs' log terms ``order ln
        theta`` plus their :meth:`log_gain`, NaN where the sum is not > 0.
        ``w`` and ``lth`` are as :meth:`weigh` gives them."""
        lt = lth.take(self.pairs.theta, axis=1)
        if order != 1:
            lt *= order
        lt += self.log_gain(order)
        return _log_sums(w, lt)

    def weigh(self, means, kappas):
        """Pair weights (sets x pairs) and log scale products (sets x distinct
        theta of ``pairs``) of parameter sets, what the kernel sums take, and
        per set ``None`` or the exception that refuses it.

        ``means`` and ``kappas`` (2 x sets) hold each link's mean powers and
        kappas, and one :func:`~prodfade.mixture._link_terms` call weighs
        both links.  One loop over the sets refuses a set as building its
        model would: :func:`_link_refusal` of link a, then of link b, or a
        closed-form mean (:meth:`log_moments` of order 1, a mean below the
        least double included) that :func:`~prodfade.mixture._moment_refusal`
        refuses, past the largest double or a pair sum not > 0, or whose
        log leaves 1e-12 of ``ln mean_a + ln mean_b``.
        """
        with np.errstate(all="ignore"):     # refused sets' terms (past doubles too) and means
            terms, scales = _link_terms(self._joint, means.T, kappas.T)
            terms, scales = terms.astype(float), scales.reshape(-1, 4)
            w = terms.take(self.ia, axis=1) * terms.take(self._wb, axis=1)
            log_scales = np.log(scales)
            lth = log_scales.take(self._ta, axis=1) + log_scales.take(self._tb, axis=1)
            log_means, ln_means = self.log_moments(w, lth, 1), np.log(means).tolist()
        na, (a0, a1), (b0, b1) = self._na, *self._used
        refusals = []
        for row, sc, mean_a, mean_b, kappa_a, kappa_b, log_mean, ln_a, ln_b in zip(
                terms.tolist(), scales.tolist(), *means.tolist(), *kappas.tolist(), log_means,
                *ln_means):
            refusal = (_link_refusal(sc[a0] > 0.0 < sc[a1], row[:na], mean_a, kappa_a)
                       or _link_refusal(sc[b0] > 0.0 < sc[b1], row[na:], mean_b, kappa_b))
            # written so that NaN fails the check too
            if refusal is None and not log_mean <= _LOG_DBL_MAX:
                refusal = _moment_refusal(log_mean, 1)
            elif refusal is None and not abs(log_mean - (ln_a + ln_b)) <= 1e-12:
                refusal = ArithmeticError("product log mean %.17g deviates from %.17g beyond "
                                          "1e-12" % (log_mean, ln_a + ln_b))
            refusals.append(refusal)
        return w, lth, refusals


#: The cached :class:`_CellPlan` of a :func:`_plan_key`.
_cell_plan = lru_cache(maxsize=1024)(_CellPlan)


def _plan_key(cell, mean_a, kappa_a, mean_b, kappa_b):
    """The rule that picks a product's plan, for a parameter set of the
    integer ``cell``, of floats (a model's, or each one of a batch): the key
    ``(link_a, link_b, tied)`` of the links' layout keys, from
    :func:`~prodfade.mixture._link_form`, and whether the two links are
    equal and of a ``mu > m`` layout, where unit x boosted and boosted x
    unit are one scale product."""
    mu_a, m_a, mu_b, m_b = cell
    link_a, link_b = _link_form(mu_a, m_a, kappa_a), _link_form(mu_b, m_b, kappa_b)
    return link_a, link_b, (link_a == link_b and link_a[0] > link_a[1]
                            and mean_a == mean_b and kappa_a == kappa_b)


@lru_cache(maxsize=1024)
def _weighed_model(cell, mean_a, kappa_a, mean_b, kappa_b):
    """A model's plan and one-set :meth:`_CellPlan.weigh` (read-only one-row
    weights and log scale products, and refusal), cached for models that
    revisit sets."""
    plan = _cell_plan(*_plan_key(cell, mean_a, kappa_a, mean_b, kappa_b))
    means, kappas = np.array([[mean_a], [mean_b]]), np.array([[kappa_a], [kappa_b]])
    w, lth, (refusal,) = plan.weigh(means, kappas)
    for arr in w, lth:
        arr.setflags(write=False)
    return plan, w, lth, refusal


def _cell_rows(cell, sets, rows, size):
    """The one pass of both fits' evaluators.

    The rows of ``sets`` hold the means and kappas of link a, of link b,
    and any further values, a parameter set per column.  A batch of one
    plan (:func:`_plan_key`), a fit round's usual case (a candidate at
    kappa 0 keeps a ``mu <= m`` link's plan; only the collapse of a ``mu >
    m`` link starts another), is weighed by one
    :meth:`_CellPlan.weigh`, with its checks, and its sets that pass go
    to one ``rows(plan, w, lth, *further)`` call (one Bessel climb and one
    einsum), giving their (sets x ``size``) values and whether each is
    valid; a call that raises (a Bessel order past ``MAX_BESSEL_ORDER``)
    refuses them all.  When every set passes and is valid, that call's
    values are returned as they are; otherwise they are placed in a zeroed
    array.  A batch of several plans is split into one such batch per
    plan, as they first appear; no plan's rows depend on another's.  Returns
    the values, 0.0 where a set is refused, and whether each set was
    evaluated.
    """
    keys = [_plan_key(cell, *column) for column in zip(*sets[:4].tolist())]
    if not keys or keys.count(keys[0]) < len(keys):
        out, ok = np.zeros((len(keys), size)), np.zeros(len(keys), dtype=bool)
        for key in dict.fromkeys(keys):
            group = [i for i, k in enumerate(keys) if k == key]
            out[group], ok[group] = _cell_rows(cell, sets[:, group], rows, size)
        return out, ok
    plan = _cell_plan(*keys[0])
    w, lth, refusals = plan.weigh(sets[0:4:2], sets[1:4:2])
    passed = [i for i, refusal in enumerate(refusals) if refusal is None]
    if len(passed) < len(keys):
        w, lth, sets = w[passed], lth[passed], sets[:, passed]
    try:
        values, keep = rows(plan, w, lth, *sets[4:])
    except (ArithmeticError, ValueError):
        values, keep = np.zeros((len(passed), size)), np.zeros(len(passed), dtype=bool)
    if len(passed) == len(keys) and keep.all():
        return values, keep
    out, ok = np.zeros((len(keys), size)), np.zeros(len(keys), dtype=bool)
    kept = np.array(passed, dtype=np.intp)[keep]
    out[kept], ok[kept] = values[keep], True
    return out, ok


def _cdf_rows_at(z):
    """The cdf fit's evaluator at the points ``z``: ``rows(cell, sets)``.

    ``z`` is checked as ``ProductModel.cdf`` checks its points, finite
    and > 0 here (``ValueError``), and logged once.  ``cell`` is
    ``(mu_a, m_a, mu_b, m_b)`` and ``sets`` a (4 x sets) array of link
    a's mean powers and kappas, then link b's.  Returns a (sets x points)
    array and whether each set was evaluated: row ``i`` is, bit for bit,
    ``ProductModel(link_a, link_b).cdf(z)`` at set ``i``, and 0.0 where
    that model, or its cdf, raises a numerical or validation error.
    """
    log_z = np.log(_points(z, "> 0", "cdf rows require finite z > 0")[0])

    def rows(plan, w, lth):
        raw = weighted_cdf_sum(w, plan.pairs.shapes_a, plan.pairs.shapes_b, lth, log_z,
                               plan.pairs)
        keep = _cdf_in_range(raw)
        return _clip_unit(raw), keep

    return partial(_cell_rows, rows=rows, size=log_z.size)


def _envelope_pdf(plan, w, lth, scales, r, log_r2):
    """Densities of ``R = c sqrt(Z)``, ``c = scale / E[sqrt(Z)]``, at ``r``
    (``log_r2 = 2 ln r``) of sets weighed on ``plan``, and whether each is
    valid (``c`` finite and > 0, density finite): ``f_R(r) = 2 r f_{c^2
    Z}(r^2)``, with ``2 ln c`` added to each set's log scale products, so
    that every set shares the log points and no ``r^2`` need be a double."""
    c = [scale / math.exp(half)
         for scale, half in zip(scales.tolist(), plan.log_moments(w, lth, 0.5))]
    good = [0.0 < v < math.inf for v in c]
    lt = lth + np.array([2.0 * math.log(v) if ok else 0.0 for v, ok in zip(c, good)])[:, None]
    out = weighted_pdf_sum(w, plan.pairs.shapes_a, plan.pairs.shapes_b, lt, log_r2, plan.pairs)
    out *= r
    out *= 2.0
    return out, np.array(good, dtype=bool) & np.isfinite(out).all(axis=-1)


#: :func:`~prodfade.mixture._points` of an envelope density, finite ``r > 0``.
_envelope_points = partial(_points, domain="> 0", message="envelope pdf requires finite r > 0")


def _envelope_rows_at(r):
    """The pdf fit's evaluator at the points ``r``: ``rows(cell, sets)``.

    As :func:`_cdf_rows_at`, with ``r`` checked as ``EnvelopeModel.pdf``
    checks its points, and a fifth row of ``sets`` holding each set's
    envelope scale: row ``i`` is, bit for bit,
    ``EnvelopeModel(ProductModel(link_a, link_b), scale).pdf(r)``, and
    0.0 where that model, or its pdf, raises.
    """
    r = _envelope_points(r)[0]
    return partial(_cell_rows, rows=partial(_envelope_pdf, r=r, log_r2=2.0 * np.log(r)),
                   size=r.size)


class ProductModel:
    """Product of two independent squared kappa-mu shadowed channels.

    The pairs and their engine plans come from the cached
    :class:`_CellPlan` of the links' forms, in a fixed order, and
    the parameters only weigh them; the fits weigh whole batches of
    parameter sets on the same plans (:func:`_cdf_rows_at`,
    :func:`_envelope_rows_at`).

    Parameters
    ----------
    link_a, link_b : ShadowedParams
        The two factors.  Construction checks each link's weights as
        :class:`~prodfade.mixture.GammaMixture` does, and the
        closed-form mean against the product of the per-link mean
        powers, in log terms to 1e-12, which catches any weight-table
        defect immediately; a mean that passes the largest double raises
        ``OverflowError``.

    Attributes
    ----------
    mixture_a, mixture_b : GammaMixture
        The per-link expansions, built by :func:`expand` on first use.
    """

    def __init__(self, link_a, link_b):
        if not isinstance(link_a, ShadowedParams) or not isinstance(link_b, ShadowedParams):
            raise TypeError("ProductModel expects two ShadowedParams")
        self.link_a = link_a
        self.link_b = link_b
        self._plan, self._w, self._lth, refusal = _weighed_model(
            (link_a.mu, link_a.m, link_b.mu, link_b.m),
            link_a.mean_power, link_a.kappa, link_b.mean_power, link_b.kappa)
        if refusal is not None:
            raise type(refusal)(*refusal.args)

    @cached_property
    def mixture_a(self):
        return expand(self.link_a)

    @cached_property
    def mixture_b(self):
        return expand(self.link_b)

    @property
    def mean_power(self):
        """E[Z]: the product of the two per-link mean powers."""
        return self.link_a.mean_power * self.link_b.mean_power

    @property
    def pair_count(self):
        return self._w.size

    @property
    def abs_weight_sum(self):
        """Sum of |pair weights|; 1 when all weights are positive.

        Since the signed weights sum to exactly one, this is also the
        condition estimate for the signed summations: absolute errors
        are amplified by roughly this factor.
        """
        return float(np.sum(np.abs(self._w)))

    def __repr__(self):
        return "ProductModel(%r, %r)" % (self.link_a, self.link_b)

    def pdf(self, z):
        """Density of the product over ``z > 0``.

        The signed sum can undershoot zero by a few parts in 1e16 of
        the local scale where kernels cancel; values are returned as
        computed rather than clipped.
        """
        z, _, shaped = _points(z, "> 0", "pdf requires finite z > 0")
        pairs = self._plan.pairs
        (out,) = weighted_pdf_sum(self._w, pairs.shapes_a, pairs.shapes_b, self._lth, np.log(z),
                                  pairs)
        if not _all_finite(out):
            raise ArithmeticError(
                "product pdf is not finite; abs_weight_sum=%.3g" % (self.abs_weight_sum,)
            )
        return shaped(out)

    def cdf(self, z):
        """Distribution function of the product over ``z >= 0``.

        Finite Bessel series per kernel pair; raw values are verified
        to lie in [0, 1] within ``CDF_RANGE_TOL`` and then clipped.
        """
        z, lo, shaped = _points(z, ">= 0", "cdf requires finite z >= 0")
        log_z, place = _log_points(z, lo)
        return shaped(place(self._cdf_at_logs(log_z)))

    def _cdf_at_logs(self, log_z):
        """Range-checked and clipped cdf at the points ``exp(log_z)``, of
        finite logs ``log_z``."""
        pairs = self._plan.pairs
        (raw,) = weighted_cdf_sum(self._w, pairs.shapes_a, pairs.shapes_b, self._lth, log_z, pairs)
        if not _cdf_in_range(raw):
            raise ArithmeticError("product cdf left [0, 1] beyond %g (worst %r); abs_weight_sum"
                                  "=%.3g" % (CDF_RANGE_TOL, _worst_cdf(raw), self.abs_weight_sum))
        return _clip_unit(raw)

    def mgf(self, s):
        """``E[exp(s Z)]`` over ``s < 0``.

        Tricomi-U closed form: pairs that are the same kernel are merged
        into one row, and one U call takes every row, each at its own
        grid ``y = -1/(s theta)``.  Near ``s = 0`` that argument may
        overflow to inf, where ``x^a U`` takes its limit 1.
        """
        s, _, shaped = _points(s, "< 0", "mgf requires finite s < 0")
        pairs = self._plan.pairs
        (out,) = weighted_mgf_sum(self._w, pairs.shapes_a, pairs.shapes_b, self._lth, s,
                                  tricomi_u_times_xa, pairs)
        if not _all_finite(out):
            raise ArithmeticError(
                "product mgf is not finite; abs_weight_sum=%.3g" % (self.abs_weight_sum,)
            )
        return shaped(out)

    def moment(self, n):
        """Integer moment ``E[Z^n]`` in closed form.

        Per pair, ``theta^n (ka)_n (kb)_n`` with the rising factorials
        taken as exact integer products, summed in log space, and refused
        by :func:`~prodfade.mixture._moment` (heavy-tailed products overflow
        quickly in ``n``).
        """
        if not float(n).is_integer() or int(n) < 1:
            raise ValueError("moment order must be an integer >= 1, got %r" % (n,))
        return _moment(self._plan.log_moments(self._w, self._lth, int(n))[0], int(n))

    @cached_property
    def sqrt_mean(self):
        """``E[sqrt(Z)]`` in closed form: the pairs' half moments summed on
        the cell plan, as the pdf fit sums them (:func:`_envelope_rows_at`)."""
        return math.exp(self._plan.log_moments(self._w, self._lth, 0.5)[0])

    def sample(self, rng, n):
        """Draw ``n`` product variates.

        The two factors are drawn from independent child streams spawned
        off ``rng``, so a single seed reproduces the whole product draw.
        """
        rng_a, rng_b = rng.spawn(2)
        return sample_single(self.link_a, rng_a, n) * sample_single(self.link_b, rng_b, n)


class EnvelopeModel:
    """Envelope-domain view ``R = c sqrt(Z)`` of a product model.

    ``c`` is fixed by requiring ``E[R] = envelope_scale``, the usual
    normalization when matching measured amplitude data whose reference
    level is reported separately from the fading shape.

    Parameters
    ----------
    product : ProductModel
    envelope_scale : float
        Target mean envelope, > 0.  A ``c`` that is not finite and > 0
        raises ``ArithmeticError``.
    """

    def __init__(self, product, envelope_scale):
        if not isinstance(product, ProductModel):
            raise TypeError("EnvelopeModel expects a ProductModel")
        envelope_scale = _positive("envelope_scale", envelope_scale)
        self.product = product
        self.envelope_scale = envelope_scale
        self._c = envelope_scale / product.sqrt_mean
        if not 0.0 < self._c < math.inf:
            raise ArithmeticError("envelope constant is not finite and > 0")

    @property
    def mean(self):
        """``E[R]``, equal to ``envelope_scale`` by construction."""
        return self.envelope_scale

    def pdf(self, r):
        """Envelope density over finite ``r > 0``, the one-set sum of the
        pdf fit's rows (:func:`_envelope_rows_at`): ``r^2`` need not be a
        double, and the density is 0 where ``(r/c)^2`` passes the largest
        double."""
        r, _, shaped = _envelope_points(r)
        p = self.product
        out, ok = _envelope_pdf(p._plan, p._w, p._lth, np.array([self.envelope_scale]), r,
                                2.0 * np.log(r))
        if not ok.all():
            raise ArithmeticError("envelope pdf is not finite; abs_weight_sum=%.3g"
                                  % (p.abs_weight_sum,))
        return shaped(out.ravel())

    def cdf(self, r):
        """Envelope distribution function ``F_Z(r^2 / c^2)`` over ``r >= 0``,
        at the log points ``2 ln r - 2 ln c``: 1 where the quotient passes
        the largest double, and 0 at ``r = 0``."""
        r, lo, shaped = _points(r, ">= 0", "envelope cdf requires finite r >= 0")
        log_r, place = _log_points(r, lo)
        return shaped(place(self.product._cdf_at_logs(2.0 * (log_r - math.log(self._c)))))

    def sample(self, rng, n):
        """Draw ``n`` envelope variates."""
        return self._c * np.sqrt(self.product.sample(rng, n))

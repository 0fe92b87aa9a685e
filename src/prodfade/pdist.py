"""Exact statistics of a product of two squared kappa-mu shadowed channels.

``Z = X * Xhat`` with the factors independent and each following a
squared kappa-mu shadowed law with integer ``mu`` and ``m``.  Expanding
both factors into their finite Gamma mixtures reduces every statistic
of ``Z`` to a doubly indexed weighted sum of Gamma-product kernels:

    f_Z(z) = sum_{j,h} C_j Chat_h * f_GG(z; m_j, mhat_h, Omega_j Omegahat_h)

and likewise for the distribution function, Laplace transform and
moments.  The pair weights are signed whenever a factor has
``mu > m``; their absolute sum is the cancellation indicator exposed as
``abs_weight_sum``.

The pairs depend on the integer cell alone.  One rule,
:func:`_plan_key`, picks a parameter set's plan within its cell, for a
model and for each set of a batch alike: each link's form (a link
collapses to one Gamma term at kappa near 0,
:func:`~prodfade.mixture._collapsed`) and whether the links are tied.
Each cell and key has a cached plan: the pairs in the links' layout
order (reversed for a ``mu > m`` link), each pair's scale choice, and
their layout, which builds and keeps the engine's merged row plans
(:class:`~prodfade.gammagamma.Pairs`).  Two equal links share a tied
plan, on which unit x boosted and boosted x unit pairs share one scale
product.  A parameter set only re-weights the plan, with the links'
long-double weight formula, so a :class:`ProductModel` builds no
mixture objects (its ``mixture_a``/``mixture_b`` are built on first
use), and both fits weigh whole batches of candidates on one plan
(:func:`product_cdf_rows`, :func:`envelope_pdf_rows`).

Also provided is the envelope-domain view ``R = c sqrt(Z)`` used when
matching measured amplitude histograms: ``c`` is chosen so that
``E[R]`` equals a prescribed reference level.
"""

import math
from functools import cached_property, lru_cache, partial

import numpy as np

from .gammagamma import pair_layout, weighted_cdf_sum, weighted_mgf_sum, weighted_pdf_sum
from .mixture import (
    WEIGHT_SUM_TOL, ShadowedParams, _all_finite, _collapsed, _link_layout, _link_terms,
    _log_points, _points, _positive, expand, sample_single,
)
from .specfun import tricomi_u_times_xa

__all__ = ["ProductModel", "EnvelopeModel"]

_LOG_DBL_MAX = float(np.log(np.finfo(float).max))

#: Tolerated excursion of the raw signed distribution function outside
#: [0, 1] before it is treated as a numerical failure.
CDF_RANGE_TOL = 1e-10


class _CellPlan:
    """Kappa-free plan of the products of one integer cell.

    One plan per integer ``cell`` ``(mu_a, m_a, mu_b, m_b)`` and
    ``key`` of :func:`_plan_key`: the form of each link (a collapsed one
    is the single term Gamma(mu)) and the tie.  ``links`` holds each
    link's ``(mu, m, collapsed)``.  Pair ``p`` is term ``p // n_b`` of
    link a and term ``p % n_b`` of link b, each link's terms in layout
    order, or reversed where ``mu > m``.  A pair's scale product is fixed
    by the two terms' scale choices (unit or boosted), and pairs of one
    choice share a ``theta`` of ``pairs``, the layout
    (:class:`~prodfade.gammagamma.Pairs`) that builds the engine's row
    plans on first use and keeps them as long as this plan.  A tied plan
    serves parameter sets whose two links are equal: there unit x
    boosted and boosted x unit are one scale product, bit for bit, and
    share one ``theta``.  A parameter set only re-weights
    the plan, whose arrays are read-only, as every model and candidate of
    the cell shares them.
    """

    def __init__(self, cell, key):
        mu_a, m_a, mu_b, m_b = cell
        self.links = (mu_a, m_a, key & 2 > 0), (mu_b, m_b, key & 1 > 0)
        lay_a, lay_b = (_link_layout(*link) for link in self.links)
        # a mu > m link's terms in reverse layout order, in which its
        # weights fall in magnitude (strictly at small kappa): the signed
        # sums then add dominant terms first, as the mixtures' order did
        term_a, term_b = (np.arange(lay.shapes.size)[::-1 if mu > m else 1]
                          for (mu, m, _), lay in zip(self.links, (lay_a, lay_b)))
        self.ia = np.repeat(term_a, term_b.size)
        self.ib = np.tile(term_b, term_a.size)
        self.shapes_a, self.shapes_b = lay_a.shapes[self.ia], lay_b.shapes[self.ib]
        self.choice_a, self.choice_b = lay_a.boosted[self.ia], lay_b.boosted[self.ib]
        choice = self.choice_a + self.choice_b if key >= 4 else 2 * self.choice_a + self.choice_b
        self.pairs = pair_layout(self.shapes_a, self.shapes_b,
                                 np.unique(choice, return_inverse=True)[1])
        self._log_gains = {}
        for arr in (self.ia, self.ib, self.shapes_a, self.shapes_b, self.choice_a, self.choice_b):
            arr.setflags(write=False)

    def log_gain(self, order):
        """Per pair, ``ln Gamma(ka + order) Gamma(kb + order) / (Gamma(ka) Gamma(kb))``
        at ``order`` 1/2 (from ``lgamma``) or an integer >= 1 (the rising
        factorials' ``ln (ka + j)(kb + j)``, accumulated), made once, read-only."""
        gain = self._log_gains.get(order)
        if gain is None:
            ka, kb = self.shapes_a, self.shapes_b
            if order == 0.5:
                gain = np.array([sum(math.lgamma(k + 0.5) - math.lgamma(k) for k in pair)
                                 for pair in zip(ka.tolist(), kb.tolist())])
            else:
                gain = np.log(ka * kb)
                for j in range(1, order):
                    gain += np.log((ka + j) * (kb + j))
            gain.setflags(write=False)
            self._log_gains[order] = gain
        return gain

    def log_moments(self, w, lth, order):
        """``ln E[Z^order]`` of sets weighed on this plan: per set, the largest
        of the pairs' log terms ``order ln theta`` plus their :meth:`log_gain`,
        plus the log of the pairs' ``w exp(term - largest)`` summed by
        ``math.fsum``, which no scale can overflow; NaN where it is not > 0."""
        lt = order * lth + self.log_gain(order)
        top = lt.max(axis=1, initial=-math.inf)
        sums = [math.fsum(row) for row in (w * np.exp(lt - top[:, None])).tolist()]
        return [t + math.log(v) if v > 0.0 else math.nan for t, v in zip(top.tolist(), sums)]

    def weigh(self, terms_a, terms_b):
        """Pair weights and log scale products of parameter sets, and their refusals.

        ``terms_a`` and ``terms_b`` are the two links' terms at the sets,
        as :func:`_link_terms_of` returns them.  Returns the weights and
        log scale products (sets x pairs) and, per set, ``None`` or the
        exception that refuses it, as building its model would: a link's
        own refusal, or a closed-form mean (:meth:`log_moments` of order
        1) that passes the largest double, or whose log leaves 1e-12 of
        ``ln mean_a + ln mean_b``.  A mean below the least double is
        checked as any other.  The refusals are formed only when a set
        fails a check.
        """
        (w_a, log_a, lm_a, refused_a), (w_b, log_b, lm_b, refused_b) = terms_a, terms_b
        w = w_a[:, self.ia] * w_b[:, self.ib]
        lth = log_a[:, self.choice_a] + log_b[:, self.choice_b]
        none = [None] * w.shape[0]
        refusals = []
        for log_mean, ln_a, ln_b, ref_a, ref_b in zip(
                self.log_moments(w, lth, 1), lm_a.tolist(), lm_b.tolist(),
                refused_a or none, refused_b or none):
            refusal = ref_a or ref_b
            if refusal is None and log_mean > _LOG_DBL_MAX:
                refusal = OverflowError("moment of order 1 overflows double precision")
            # written so that NaN fails the check too
            elif refusal is None and not abs(log_mean - (ln_a + ln_b)) <= 1e-12:
                refusal = ArithmeticError("product log mean %.17g deviates from %.17g beyond "
                                          "1e-12" % (log_mean, ln_a + ln_b))
            refusals.append(refusal)
        return w, lth, refusals


#: The cached :class:`_CellPlan` of an integer cell and :func:`_plan_key`.
_cell_plan = lru_cache(maxsize=1024)(_CellPlan)


def _plan_key(cell, mean_a, kappa_a, mean_b, kappa_b):
    """The rule that picks a product's plan, for parameter sets of the
    integer ``cell``: floats give a model's key, arrays a batch's.

    The key is ``2 zero_a + zero_b + 4 tied``: each link's form, from
    :func:`~prodfade.mixture._collapsed`, and whether the two links are
    equal, ``mu > m`` and not collapsed, where unit x boosted and boosted
    x unit are one scale product.  The operators serve floats and arrays.
    """
    mu_a, m_a, mu_b, m_b = cell
    zero_a = _collapsed(kappa_a)
    key = 2 * zero_a + _collapsed(kappa_b)
    if mu_a == mu_b and m_a == m_b and mu_a > m_a:
        key += 4 * ((mean_a == mean_b) & (kappa_a == kappa_b) & (zero_a ^ True))
    return key


def _link_terms_of(link, means, kappas):
    """Terms of ``link = (mu, m, zero)`` links at parameter sets.

    ``means`` and ``kappas`` are float arrays, a set per element.
    Returns the double weights (sets x terms, layout order), the logs of
    the ``(unit, boosted)`` scales (sets x 2), the logs of the means and
    the refusals: None when every set passes, otherwise, per set,
    ``None`` or the ``ValueError`` that refuses it, as
    :class:`ShadowedParams` or :class:`~prodfade.mixture.GammaMixture`
    would: the parameters are out of range, a term's scale is not > 0,
    or the weights miss one by more than ``WEIGHT_SUM_TOL``.  A refused
    set's logs that are not finite are 0.  The weights are summed set by
    set (``math.fsum``); the refusals are formed only when a set fails a
    check.
    """
    layout, w, scales = _link_terms(*link, means, kappas)
    w = w.astype(float)
    rows, mean_list, kappas = w.tolist(), means.tolist(), kappas.tolist()
    devs = [abs(math.fsum(row) - 1.0) for row in rows]
    # written so that NaN fails the checks too; a set passes them all
    # when both of its scales are > 0, used by its terms or not
    if (scales.min(initial=math.inf) > 0.0 and all(0.0 < v < math.inf for v in mean_list)
            and all(0.0 <= v < math.inf for v in kappas)
            and all(dev <= WEIGHT_SUM_TOL for dev in devs)):
        return w, np.log(scales), np.log(means), None
    scales_ok = (scales[:, layout.boosted] > 0.0).all(axis=1).tolist()
    refusals = []
    for mean, kappa, ok, dev in zip(mean_list, kappas, scales_ok, devs):
        if not (math.isfinite(mean) and mean > 0.0 and math.isfinite(kappa) and kappa >= 0.0):
            refusals.append(ValueError("mean power %r and kappa %r must be finite, > 0 and >= 0"
                                       % (mean, kappa)))
        elif not ok:
            refusals.append(ValueError("all scales must be > 0"))
        elif dev > WEIGHT_SUM_TOL:
            refusals.append(ValueError("mixture weights must sum to 1 within %g (deviation %g)"
                                       % (WEIGHT_SUM_TOL, dev)))
        else:
            refusals.append(None)
    with np.errstate(divide="ignore", invalid="ignore"):   # refused sets' scales and means
        logs = np.log(scales), np.log(means)
    return w, *(np.nan_to_num(v, nan=0.0, posinf=0.0, neginf=0.0) for v in logs), refusals


@lru_cache(maxsize=4096)
def _link_terms_at(link, mean_power, kappa):
    """:func:`_link_terms_of` one parameter set, of the form its plan
    gives, cached for models that revisit parameter sets."""
    terms = _link_terms_of(link, np.array([mean_power]), np.array([kappa]))
    for arr in terms[:3]:
        arr.setflags(write=False)
    return terms


def _cdf_in_range(raw):
    """Whether raw cdf values lie in [0, 1] within ``CDF_RANGE_TOL``, per
    row of the last axis; NaN fails."""
    return ((raw.min(axis=-1, initial=math.inf) >= -CDF_RANGE_TOL)
            & (raw.max(axis=-1, initial=-math.inf) <= 1.0 + CDF_RANGE_TOL))


def _cell_rows(cell, sets, rows, size, fill):
    """The one pass of both fits' evaluators.

    ``sets`` holds the means and kappas of link a, of link b, and any
    further values, one parameter set per element.  Sets are grouped by
    the rule that picks a model's plan (:func:`_plan_key`); each group is
    weighed once on its cached :class:`_CellPlan`, which refuses a set as
    its model would, and its other sets go to one ``rows(plan, w, lth,
    *further)`` call, giving their (sets x ``size``) values and whether
    each is valid.  No set's values make that call raise, so a call that
    raises is a fault of its plan (a Bessel order past
    ``MAX_BESSEL_ORDER``) and refuses the group.  Returns the values,
    ``fill`` where a set is refused, and whether each set was evaluated.
    """
    keys = _plan_key(cell, *sets[:4])
    out, ok = np.full((keys.size, size), fill), np.zeros(keys.size, dtype=bool)
    for key in sorted(set(keys.tolist())):
        group = (keys == key).nonzero()[0]
        plan = _cell_plan(cell, key)
        means_a, kappas_a, means_b, kappas_b, *further = (v[group] for v in sets)
        w, lth, refusals = plan.weigh(_link_terms_of(plan.links[0], means_a, kappas_a),
                                      _link_terms_of(plan.links[1], means_b, kappas_b))
        weighed = np.array([i for i, r in enumerate(refusals) if r is None], dtype=int)
        try:
            values, keep = rows(plan, w[weighed], lth[weighed], *(v[weighed] for v in further))
        except (ArithmeticError, ValueError):
            continue
        kept = group[weighed[keep]]
        out[kept], ok[kept] = values[keep], True
    return out, ok


def product_cdf_rows(cell, means_a, kappas_a, means_b, kappas_b, z):
    """Distribution functions of many products of one integer cell.

    ``cell`` is ``(mu_a, m_a, mu_b, m_b)``; the other arguments but
    ``z`` are float arrays of one length, one parameter set per
    element, and ``z`` a flat float array of finite points ``> 0``,
    checked as the model checks its points (``ValueError``).  Returns a
    (sets x points) array and, per set, whether it could be evaluated:
    row ``i`` is ``ProductModel(link_a, link_b).cdf(z)`` at set ``i``,
    range-checked and clipped as there, or all ones where that model,
    or its cdf, raises a numerical or validation error.
    """
    z = _points(z, "> 0", "cdf rows require finite z > 0")[0]
    log_z = np.log(z)

    def rows(plan, w, lth):
        raw = weighted_cdf_sum(w, plan.shapes_a, plan.shapes_b, lth, log_z, plan.pairs)
        keep = _cdf_in_range(raw)
        return np.clip(raw, 0.0, 1.0, out=raw), keep

    return _cell_rows(cell, (means_a, kappas_a, means_b, kappas_b), rows, z.size, 1.0)


def _envelope_pdf(plan, w, lth, scales, r):
    """Densities of ``R = c sqrt(Z)``, ``c = scale / E[sqrt(Z)]``, at ``r``
    for sets weighed on ``plan``, and whether each is valid: ``f_R(r) =
    2 r f_{c^2 Z}(r^2)``, with ``2 ln c`` added to each set's log scale
    products, so that every set shares the log points ``2 ln r``, and no
    ``r^2`` need be a double.  A set whose ``c`` is not finite and > 0, or
    whose density is not finite, is not valid, and the other sets keep
    their rows."""
    c = [scale / math.exp(half)
         for scale, half in zip(scales.tolist(), plan.log_moments(w, lth, 0.5))]
    good = [0.0 < v < math.inf for v in c]
    lt = lth + np.array([2.0 * math.log(v) if ok else 0.0 for v, ok in zip(c, good)])[:, None]
    out = weighted_pdf_sum(w, plan.shapes_a, plan.shapes_b, lt, 2.0 * np.log(r), plan.pairs)
    out *= r
    out *= 2.0
    return out, np.array(good, dtype=bool) & np.isfinite(out).all(axis=-1)


#: :func:`~prodfade.mixture._points` of an envelope density, finite ``r > 0``.
_envelope_points = partial(_points, domain="> 0", message="envelope pdf requires finite r > 0")


def envelope_pdf_rows(cell, kappas_a, kappas_b, scales, r):
    """Envelope densities of many unit-mean products of one integer cell.

    As :func:`product_cdf_rows`, with links of mean power 1 and each
    set's envelope scale in ``scales``: row ``i`` is, bit for bit,
    ``EnvelopeModel(ProductModel(link_a, link_b), scales[i]).pdf(r)``,
    or NaN where that model, or its pdf, raises.  The points are checked
    as that model checks them (``ValueError``).
    """
    r = _envelope_points(r)[0]
    ones = np.ones(scales.size)
    return _cell_rows(cell, (ones, kappas_a, ones, kappas_b, scales),
                      partial(_envelope_pdf, r=r), r.size, math.nan)


class ProductModel:
    """Product of two independent squared kappa-mu shadowed channels.

    The pairs and their engine plans come from the cached
    :class:`_CellPlan` of the links' integer cell, in a fixed order, and
    the parameters only weigh them; the fits weigh whole
    batches of parameter sets on the same plans
    (:func:`product_cdf_rows`, :func:`envelope_pdf_rows`).

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
        cell = link_a.mu, link_a.m, link_b.mu, link_b.m
        plan = self._plan = _cell_plan(cell, _plan_key(cell, link_a.mean_power, link_a.kappa,
                                                       link_b.mean_power, link_b.kappa))
        w, lth, (refusal,) = plan.weigh(
            _link_terms_at(plan.links[0], link_a.mean_power, link_a.kappa),
            _link_terms_at(plan.links[1], link_b.mean_power, link_b.kappa))
        if refusal is not None:
            raise refusal.with_traceback(None)
        self._w, self._lth = w[0], lth[0]
        self._ka, self._kb = plan.shapes_a, plan.shapes_b

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
        out = weighted_pdf_sum(self._w, self._ka, self._kb, self._lth, np.log(z),
                               self._plan.pairs)
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
        raw = weighted_cdf_sum(self._w, self._ka, self._kb, self._lth, log_z, self._plan.pairs)
        if not _cdf_in_range(raw):
            worst = raw[np.argmax(np.abs(raw - 0.5))]
            raise ArithmeticError(
                "product cdf left [0, 1] beyond %g (worst %r); "
                "abs_weight_sum=%.3g" % (CDF_RANGE_TOL, worst, self.abs_weight_sum)
            )
        return np.clip(raw, 0.0, 1.0, out=raw)

    def mgf(self, s):
        """``E[exp(s Z)]`` over ``s < 0``.

        Tricomi-U closed form: pairs that are the same kernel are merged
        into one row, and one U call takes every row, each at its own
        grid ``y = -1/(s theta)``.  Near ``s = 0`` that argument may
        overflow to inf, where ``x^a U`` takes its limit 1.
        """
        s, _, shaped = _points(s, "< 0", "mgf requires finite s < 0")
        out = weighted_mgf_sum(self._w, self._ka, self._kb, self._lth, s, tricomi_u_times_xa,
                               self._plan.pairs)
        if not _all_finite(out):
            raise ArithmeticError(
                "product mgf is not finite; abs_weight_sum=%.3g" % (self.abs_weight_sum,)
            )
        return shaped(out)

    def moment(self, n):
        """Integer moment ``E[Z^n]`` in closed form.

        Per pair, ``theta^n (ka)_n (kb)_n`` with the rising factorials
        taken as exact integer products, summed in log space.  Raises
        OverflowError if the moment leaves the double range (heavy-tailed
        products overflow quickly in ``n``).
        """
        if not float(n).is_integer() or int(n) < 1:
            raise ValueError("moment order must be an integer >= 1, got %r" % (n,))
        (log_total,) = self._plan.log_moments(self._w[None], self._lth[None], int(n))
        if not log_total <= _LOG_DBL_MAX:
            raise OverflowError("moment of order %d overflows double precision" % (n,))
        return math.exp(log_total)

    @cached_property
    def sqrt_mean(self):
        """``E[sqrt(Z)]`` in closed form: the pairs' half moments summed on
        the cell plan, as the pdf fit sums them (:func:`envelope_pdf_rows`)."""
        return math.exp(self._plan.log_moments(self._w[None], self._lth[None], 0.5)[0])

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
        """Envelope density over finite ``r > 0``, a one-set
        :func:`envelope_pdf_rows`: ``r^2`` need not be a double, and the
        density is 0 where ``(r/c)^2`` passes the largest double."""
        r, _, shaped = _envelope_points(r)
        p = self.product
        out, ok = _envelope_pdf(p._plan, p._w[None], p._lth[None],
                                np.array([self.envelope_scale]), r)
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

"""Finite signed Gamma-mixture form of the squared kappa-mu shadowed law.

For integer ``mu`` and ``m`` the power (squared envelope) of a kappa-mu
shadowed channel is an exact finite mixture of Gamma densities,

    f(x) = sum_j C_j * Gamma(x; m_j, Omega_j),

where the weights ``C_j`` sum to one but are not all positive when
``mu > m``.  The expansion is what makes the product of two such
channels tractable: every pairwise product of Gamma kernels has a
closed Bessel-type law, so the product density is again a finite
weighted sum.

Weights are generated in extended precision and rounded once at the
end.  A link whose rounded sum misses one by more than ``WEIGHT_SUM_TOL``
is refused, as some mu > m links at kappa <= 0.1 are.

A link's expansion has a kappa-free layout per integer ``(mu, m)``: the
signed integer coefficient, the powers of ``base`` and ``dom``, the
shape and the scale choice of each term.  One vectorized long-double
expression, :func:`_link_terms`, gives the weights and the two scales at
any ``kappa``, for a whole array of parameter sets and for several links
side by side at once; it is the one weight formula, shared by
:func:`expand` and by the pair plans of :mod:`prodfade.pdist`, which
weigh both links of a product in one call, without building mixtures.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from operator import index as _as_index

import numpy as np

from .specfun import _int_array, ln_gamma_ints

_LOG_DBL_MAX = float(np.log(np.finfo(float).max))

__all__ = [
    "CDF_RANGE_TOL",
    "KAPPA_ZERO_TOL",
    "RICIAN_PROXY_M",
    "WEIGHT_SUM_TOL",
    "ShadowedParams",
    "GammaMixture",
    "expand",
    "pdf_single",
    "cdf_single",
    "sample_single",
]

#: At or below this, a ``mu > m`` link, whose expansion divides by kappa,
#: takes its Nakagami limit Gamma(mu), the ``(mu, mu)`` layout.
KAPPA_ZERO_TOL = 1e-12

#: Finite shadowing order used as a stand-in for an unshadowed
#: deterministic line-of-sight component (the m -> infinity limit).
RICIAN_PROXY_M = 20

#: Tolerance on |sum of weights - 1| after rounding to double.
WEIGHT_SUM_TOL = 1e-12

#: Tolerated excursion of a raw signed distribution function, a link's or
#: a product's, outside [0, 1] before it is treated as a numerical failure.
CDF_RANGE_TOL = 1e-10


def _span(v):
    """``(min, max)`` of the array ``v``, ``(inf, -inf)`` when empty.

    Both are NaN when any element is NaN, so a range check written as
    ``lo >= a and hi <= b`` fails on NaN too.
    """
    return v.min(initial=math.inf), v.max(initial=-math.inf)


#: Domain checks of :func:`_points`, on the ``(min, max)`` of the points.
_DOMAINS = {
    ">= 0": lambda lo, hi: lo >= 0.0 and hi < math.inf,
    "> 0": lambda lo, hi: lo > 0.0 and hi < math.inf,
    "< 0": lambda lo, hi: lo > -math.inf and hi < 0.0,
}


def _points(x, domain, message):
    """The array contract of every elementwise evaluator.

    ``x`` becomes a flat float array, and one ``(min, max)`` reduction
    checks that every point is finite and lies in ``domain``: ``">= 0"``,
    ``"> 0"`` or ``"< 0"``.  NaN anywhere fails the check, which raises
    ``ValueError(message)``.

    Returns ``(flat, lo, shaped)``: the flat points, their minimum, and a
    function that gives a flat result the form of ``x``, a Python float
    for a 0-d ``x`` and otherwise an array of ``x``'s shape (empty shapes
    included).  A result that must be finite is checked with
    :func:`_all_finite`, whose failure the caller raises as
    ``ArithmeticError``.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    flat = x.ravel()
    lo, hi = _span(flat)
    if not _DOMAINS[domain](lo, hi):
        raise ValueError(message)

    def shaped(out):
        return out.reshape(shape) if shape else float(out[0])

    return flat, lo, shaped


def _all_finite(v):
    """Whether every element of the array ``v`` is finite, by one reduction."""
    lo, hi = _span(v)
    return lo > -math.inf and hi < math.inf


def _log_points(x, lo):
    """The logs of the points ``x > 0`` among flat points ``x >= 0`` of minimum
    ``lo``, and the function that places a cdf's values at them, with the
    cdf's 0 at the points that are 0."""
    if lo > 0.0:
        return np.log(x), lambda values: values
    pos = x > 0.0

    def place(values):
        out = np.zeros(x.shape)
        out[pos] = values
        return out

    return np.log(x[pos]), place


def _as_int(name, value):
    if not float(value).is_integer():
        raise ValueError("%s must be an integer, got %r" % (name, value))
    value = int(value)
    if value < 1:
        raise ValueError("%s must be >= 1, got %d" % (name, value))
    return value


def _positive(name, value):
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("%s must be finite and > 0, got %r" % (name, value))
    return value


def _non_negative(name, value):
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError("%s must be finite and >= 0, got %r" % (name, value))
    return value


@dataclass(frozen=True)
class ShadowedParams:
    """One squared kappa-mu shadowed channel.

    Parameters
    ----------
    mean_power : float
        Mean of the power variable (gamma-bar), > 0.
    kappa : float
        Ratio of dominant to scattered power, >= 0.
    mu : int
        Number of multipath clusters, >= 1.
    m : int
        Shadowing severity of the dominant component, >= 1.
    """

    mean_power: float
    kappa: float
    mu: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "mean_power", _positive("mean_power", self.mean_power))
        object.__setattr__(self, "kappa", _non_negative("kappa", self.kappa))
        object.__setattr__(self, "mu", _as_int("mu", self.mu))
        object.__setattr__(self, "m", _as_int("m", self.m))

    @classmethod
    def rayleigh(cls, mean_power=1.0):
        """Rayleigh power: kappa = 0, mu = 1 (m is then irrelevant)."""
        return cls(mean_power, 0.0, 1, 1)

    @classmethod
    def nakagami(cls, mu, mean_power=1.0):
        """Nakagami-m power with integer shape ``mu``: the kappa = 0 limit."""
        return cls(mean_power, 0.0, mu, 1)

    @classmethod
    def rician(cls, k_factor, mean_power=1.0, m=RICIAN_PROXY_M):
        """Rician power with K-factor ``k_factor``.

        Exact Rice is the m -> infinity limit; ``m`` defaults to a
        large finite proxy that keeps the expansion size bounded.
        """
        return cls(mean_power, k_factor, 1, m)


# Kappa-free part of the expansion of one integer (mu, m): per term, the
# signed integer coefficient, the powers of ``base`` and ``dom``, the
# Gamma shape, and whether the term takes the boosted scale (else the
# unit one).  The weight of a term is ``coef * base**base_pow *
# dom**dom_pow``.
_Layout = namedtuple("_Layout", "coef base_pow dom_pow shapes boosted")


def _link_form(mu, m, kappa):
    """The rule that picks a link's form: its :func:`_link_layout` key, the
    integer pair ``(mu, m)``, or ``(mu, mu)`` for a ``mu > m`` link at a float
    kappa near 0, where its expansion divides by kappa: that layout is the
    single term Gamma(mu) at every kappa, the link's Nakagami limit.  A ``mu
    <= m`` link keeps its layout at every kappa: at kappa 0 its terms but
    Gamma(mu, unit) weigh exactly 0, and its boosted scale is the unit one."""
    return (mu, mu) if mu > m and kappa <= KAPPA_ZERO_TOL else (mu, m)


@lru_cache(maxsize=1024)
def _link_layout(mu, m):
    """Term layout of the expansion of an integer ``(mu, m)`` link.

    The mu > m table's leading term has an exact zero weight; it is left
    out here, as :func:`expand` would prune it.  The arrays are read-only.
    """
    if mu <= m:
        rows = [(math.comb(m - mu, i), i, m - mu - i, m - i, True)
                for i in range(m - mu + 1)]
    else:
        rows = [((-1) ** m * math.comb(m + i - 2, i - 1), m, -m - i + 1, mu - m - i + 1, False)
                for i in range(1, mu - m + 1)]
        rows += [((-1) ** (i - mu + m - 1) * math.comb(i - 2, i - mu + m - 1),
                  i - mu + m - 1, -i + 1, mu - i + 1, True)
                 for i in range(mu - m + 1, mu + 1)]
    coef, base_pow, dom_pow, shapes, boosted = zip(*rows)
    layout = _Layout(np.array(coef, dtype=np.longdouble), np.array(base_pow, dtype=np.int64),
                     np.array(dom_pow, dtype=np.int64), np.array(shapes, dtype=np.int64),
                     np.array(boosted, dtype=np.intp))
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _links_layout(links):
    """The layout of one :func:`_link_terms` call over ``links``, :func:`_link_form`
    keys: their :func:`_link_layout` coefficients and powers side by side, each
    term's link, and each link's ``mu`` and ``m`` (long double)."""
    layouts = [_link_layout(*link) for link in links]
    mu, m = np.array(links, dtype=np.longdouble).T
    return (*(np.concatenate([lay[i] for lay in layouts]) for i in range(3)),
            np.repeat(np.arange(len(links)), [lay.shapes.size for lay in layouts]), mu, m)


def _link_terms(links, mean_power, kappa):
    """Weights and scales of the links of a :func:`_links_layout`.

    ``mean_power`` and ``kappa`` are arrays of one shape whose last axis
    runs over the links.  Returns the long-double weights, the last axis
    over the links' terms in layout order, and the double ``(unit,
    boosted)`` scales, with an axis of two more; a term's scale is
    ``scales[..., link, boosted]``.
    """
    coef, base_pow, dom_pow, link, mu, m = links
    gbar = np.asarray(mean_power, dtype=np.longdouble)
    kap = np.asarray(kappa, dtype=np.longdouble)
    mk = mu * kap
    total = mk + m
    base = m / total                    # m / (mu kappa + m)
    dom = mk / total                    # mu kappa / (mu kappa + m)
    scales = np.empty(kap.shape + (2,))
    unit = scales[..., 0] = gbar / (mu * (np.longdouble(1.0) + kap))
    scales[..., 1] = unit / base        # (mu kappa + m) / m * unit, the boosted scale
    w = coef * base.take(link, axis=-1) ** base_pow * dom.take(link, axis=-1) ** dom_pow
    return w, scales


def _weight_sum(terms):
    """``math.fsum`` of a list of signed terms, NaN where one is not finite or
    the sum overflows (where fsum would raise or give an infinity)."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):     # past the largest double, or inf + -inf
        return math.nan
    return total if math.isfinite(total) else math.nan


def _link_refusal(scales_ok, weights, mean=1.0, kappa=0.0):
    """``None`` or the ``ValueError`` that refuses a link: a ``mean`` power or ``kappa``
    that :class:`ShadowedParams` would refuse, scales not all > 0 (``scales_ok``
    false), or ``weights`` (a list) whose :func:`_weight_sum` misses 1 by more than
    ``WEIGHT_SUM_TOL``, or is NaN.  :class:`GammaMixture` takes the default mean and kappa."""
    if not (0.0 < mean < math.inf and 0.0 <= kappa < math.inf):
        return ValueError("mean power %r and kappa %r must be finite, > 0 and >= 0" % (mean, kappa))
    if not scales_ok:
        return ValueError("all scales must be > 0")
    dev = abs(_weight_sum(weights) - 1.0)
    return (ValueError("mixture weights must sum to 1 within %g (deviation %g)"
                       % (WEIGHT_SUM_TOL, dev)) if not dev <= WEIGHT_SUM_TOL else None)


def _cdf_in_range(raw):
    """Whether each row of raw cdf values lies in [0, 1] within ``CDF_RANGE_TOL``; NaN fails."""
    return ((raw.min(axis=-1, initial=math.inf) >= -CDF_RANGE_TOL)
            & (raw.max(axis=-1, initial=-math.inf) <= 1.0 + CDF_RANGE_TOL))


def _clip_unit(raw):
    """Raw cdf values clipped into [0, 1] in place, by two ufuncs, not ``np.clip``'s
    Python wrapper: they differ from it only at -0.0, which no cdf sum gives."""
    return np.minimum(np.maximum(raw, 0.0, out=raw), 1.0, out=raw)


def _worst_cdf(raw):
    """The raw cdf value furthest from 1/2: what a failed :func:`_cdf_in_range` reports."""
    return raw[np.argmax(np.abs(raw - 0.5))]


def _log_gains(shapes, order):
    """Per integer shape ``k``, ``ln Gamma(k + order) / Gamma(k)`` by ``math.lgamma``."""
    return np.array([math.lgamma(k + order) - math.lgamma(k) for k in shapes.tolist()])


def _log_sums(w, lt):
    """Per row of weights ``w`` and log terms ``lt``, ``ln sum w exp(lt)``: the
    largest term plus the log of the ``w exp(lt - largest)`` summed by
    :func:`_weight_sum`, which no scale can overflow; NaN where the sum is not > 0."""
    top = lt.max(axis=-1, initial=-math.inf)
    sums = [_weight_sum(row) for row in (w * np.exp(lt - top[:, None])).tolist()]
    return [t + math.log(v) if v > 0.0 else math.nan for t, v in zip(top.tolist(), sums)]


def _moment_refusal(log_total, order):
    """``None`` or the exception that refuses the moment of ``order`` whose
    :func:`_log_sums` is ``log_total``: ``OverflowError`` past the largest
    double, ``ArithmeticError`` if NaN (a sum not > 0)."""
    if log_total > _LOG_DBL_MAX:
        return OverflowError("moment of order %s overflows double precision" % (order,))
    if not log_total <= _LOG_DBL_MAX:
        return ArithmeticError("moment of order %s is not > 0" % (order,))
    return None


def _moment(log_total, order):
    """The moment of ``order`` whose :func:`_log_sums` is ``log_total``, or the
    :func:`_moment_refusal` raised."""
    if (refusal := _moment_refusal(log_total, order)) is not None:
        raise refusal
    return math.exp(log_total)


class GammaMixture:
    """A finite signed mixture of Gamma distributions.

    Attributes
    ----------
    weights : ndarray of float
        Signed weights, summing to one, ordered by descending absolute
        value so that accumulations add the dominant terms first.
    shapes : ndarray of int
        Integer Gamma shape per component, >= 1.
    scales : ndarray of float
        Gamma scale per component, > 0.
    """

    __slots__ = ("weights", "shapes", "scales")

    def __init__(self, weights, shapes, scales):
        weights = np.asarray(weights, dtype=float)
        shapes = _int_array("shapes", shapes)
        scales = np.asarray(scales, dtype=float)
        if not (weights.shape == shapes.shape == scales.shape) or weights.ndim != 1:
            raise ValueError("weights, shapes, scales must be 1-d arrays of equal length")
        if weights.size == 0:
            raise ValueError("mixture must have at least one component")
        if shapes.min() < 1:
            raise ValueError("all shapes must be >= 1")
        # written so that NaN fails the check too
        if (refusal := _link_refusal(scales.min() > 0.0, weights.tolist())) is not None:
            raise refusal
        for arr in (weights, shapes, scales):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "scales", scales)

    def __setattr__(self, name, value):
        raise AttributeError("GammaMixture is immutable")

    def __len__(self):
        return self.weights.size

    def __repr__(self):
        return "GammaMixture(%d terms, sum|w|=%.3g)" % (len(self), self.abs_weight_sum)

    @property
    def abs_weight_sum(self):
        """Sum of |weights|: the cancellation (conditioning) indicator."""
        return float(np.sum(np.abs(self.weights)))

    def pdf(self, x):
        """Mixture density over ``x >= 0`` (log-space terms).

        Individual terms are formed as ``exp(log term)`` so that large
        shapes and tiny scales cannot overflow; the signed sum itself
        may come out a hair below zero in cancellation-heavy corners,
        on the order of 1e-16, and is returned as computed.
        """
        x, _, shaped = _points(x, ">= 0", "pdf requires finite x >= 0")
        out = np.zeros(x.shape)
        pos = x > 0.0
        if np.any(pos):
            xp = x[pos]
            const = self.shapes * np.log(self.scales) + ln_gamma_ints(self.shapes)
            with np.errstate(over="ignore"):    # x / scale past the double range: term 0
                lt = (
                    np.multiply.outer(self.shapes - 1.0, np.log(xp))
                    - np.outer(1.0 / self.scales, xp)
                    - const[:, None]
                )
            # einsum reduces as the product's kernel sums do; a value's
            # last bits may depend on the points around it
            out[pos] = np.einsum("r,rb->b", self.weights, np.exp(lt))
        if np.any(~pos):
            unit = self.shapes == 1
            out[~pos] = float(np.sum(self.weights[unit] / self.scales[unit]))
        if not _all_finite(out):
            raise ArithmeticError("mixture pdf is not finite")
        return shaped(out)

    def cdf(self, x):
        """Mixture distribution function over ``x >= 0``.

        Uses the lower regularized incomplete gamma per component.  The
        signed sum telescopes to the complementary (upper) form because
        the weights sum to one, but the lower form is the better
        conditioned of the two near the origin, where the deep-tail
        diversity behaviour is read off.
        """
        from scipy import special

        x, _, shaped = _points(x, ">= 0", "cdf requires finite x >= 0")
        with np.errstate(over="ignore"):    # x / scale past the double range: term 1
            per = special.gammainc(self.shapes[:, None], x[None, :] / self.scales[:, None])
        raw = np.einsum("r,rb->b", self.weights, per)   # as in pdf
        if not _cdf_in_range(raw):
            raise ArithmeticError("mixture cdf left [0, 1] beyond tolerance; worst value %r"
                                  % (_worst_cdf(raw),))
        return shaped(_clip_unit(raw))

    def moment(self, order):
        """Fractional moment ``E[X^order]`` in closed form.

        Valid for any real ``order`` with ``order > -min(shapes)``;
        downstream users need integers (power moments) and 1/2
        (envelope normalization).  Summed and refused as the product's are.
        """
        order = float(order)
        if not (math.isfinite(order) and order > -float(self.shapes.min())):
            raise ValueError("moment order must be finite and exceed -min(shape)")
        lt = order * np.log(self.scales) + _log_gains(self.shapes, order)
        return _moment(_log_sums(self.weights[None], lt[None])[0], order)


@lru_cache(maxsize=4096)
def expand(params):
    """Finite Gamma-mixture of a squared kappa-mu shadowed channel.

    Forms the weights in extended precision from the cached kappa-free
    layout of the link's form (:func:`_link_form`, :func:`_link_terms`),
    drops exact zero weights, orders by descending |weight| and rounds to
    double once.  Finished mixtures are cached per parameter set; a product
    model builds its own lazily, and the fits build none.

    Parameters
    ----------
    params : ShadowedParams

    Returns
    -------
    GammaMixture
    """
    if not isinstance(params, ShadowedParams):
        raise TypeError("expand expects ShadowedParams, got %r" % type(params).__name__)
    link = _link_form(params.mu, params.m, params.kappa)
    w, (scales,) = _link_terms(_links_layout([link]), [params.mean_power], [params.kappa])
    shapes, which = _link_layout(*link)[3:]
    if np.count_nonzero(w) < w.size:
        keep = w != 0.0
        w, shapes, which = w[keep], shapes[keep], which[keep]
    order = (-np.abs(w)).argsort(kind="stable")
    with np.errstate(over="ignore"):    # weights past the double range: their sum is NaN
        return GammaMixture(w[order].astype(float), shapes[order], scales[which[order]])


def pdf_single(params, x):
    """Density of one squared kappa-mu shadowed channel over ``x >= 0``."""
    return expand(params).pdf(x)


def cdf_single(params, x):
    """Distribution function of one squared kappa-mu shadowed channel over ``x >= 0``."""
    return expand(params).cdf(x)


def sample_single(params, rng, n):
    """Draw ``n`` variates of the squared kappa-mu shadowed law.

    Uses the conditional construction rather than mixture inversion:
    the dominant-component power is Gamma(m, 1/m) distributed, and
    conditioned on it the channel power is a scaled noncentral
    chi-square with 2 mu degrees of freedom.  This stays exact for all
    kappa, including zero.

    Parameters
    ----------
    params : ShadowedParams
    rng : numpy.random.Generator
    n : int
        Number of draws, >= 1.
    """
    n = _as_index(n)
    if n < 1:
        raise ValueError("sample count must be >= 1, got %d" % (n,))
    shadow = rng.gamma(shape=params.m, scale=1.0 / params.m, size=n)
    noncentrality = 2.0 * params.mu * params.kappa * shadow
    body = rng.noncentral_chisquare(2.0 * params.mu, noncentrality, size=n)
    return body * (params.mean_power / (2.0 * params.mu * (1.0 + params.kappa)))

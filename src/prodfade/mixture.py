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
end; the rounded sum stays within 1e-12 of one across the supported
parameter range, which downstream summations rely on.

Two caches serve fits, which revisit an integer ``(mu, m)`` at many
``kappa``: a kappa-free layout per ``(mu, m)`` (the signed integer
coefficient, the powers of ``base`` and ``dom``, the shape and the scale
choice of each term), from which one vectorized long-double expression
gives the weights at a new ``kappa``; and :func:`expand`'s cache of
finished mixtures per parameter set.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from operator import index as _as_index

import numpy as np
from scipy import special

_LOG_DBL_MAX = float(np.log(np.finfo(float).max))

__all__ = [
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

#: Below this, kappa is treated as exactly zero (Nakagami-m limit of the
#: expansion; the general branch would divide by kappa).
KAPPA_ZERO_TOL = 1e-12

#: Finite shadowing order used as a stand-in for an unshadowed
#: deterministic line-of-sight component (the m -> infinity limit).
RICIAN_PROXY_M = 20

#: Tolerance on |sum of weights - 1| after rounding to double.
WEIGHT_SUM_TOL = 1e-12


def _span(v):
    """``(min, max)`` of the array ``v``, ``(inf, -inf)`` when empty.

    Both are NaN when any element is NaN, so a range check written as
    ``lo >= a and hi <= b`` fails on NaN too.
    """
    return v.min(initial=math.inf), v.max(initial=-math.inf)


def _as_int(name, value):
    if not float(value).is_integer():
        raise ValueError("%s must be an integer, got %r" % (name, value))
    value = int(value)
    if value < 1:
        raise ValueError("%s must be >= 1, got %d" % (name, value))
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
        mp = float(self.mean_power)
        if not math.isfinite(mp) or mp <= 0.0:
            raise ValueError("mean_power must be finite and > 0, got %r" % (self.mean_power,))
        kap = float(self.kappa)
        if not math.isfinite(kap) or kap < 0.0:
            raise ValueError("kappa must be finite and >= 0, got %r" % (self.kappa,))
        object.__setattr__(self, "mean_power", mp)
        object.__setattr__(self, "kappa", kap)
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


@lru_cache(maxsize=1024)
def _layout(mu, m):
    """Term layout of the expansion of an integer ``(mu, m)`` link.

    The mu > m table's leading term has an exact zero weight; it is left
    out here, as :func:`expand` would prune it.
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
        shapes = np.asarray(shapes, dtype=np.int64)
        scales = np.asarray(scales, dtype=float)
        if not (weights.shape == shapes.shape == scales.shape) or weights.ndim != 1:
            raise ValueError("weights, shapes, scales must be 1-d arrays of equal length")
        if weights.size == 0:
            raise ValueError("mixture must have at least one component")
        if shapes.min() < 1:
            raise ValueError("all shapes must be >= 1")
        # written so that NaN fails the check too
        if not scales.min() > 0.0:
            raise ValueError("all scales must be > 0")
        dev = abs(math.fsum(weights.tolist()) - 1.0)
        if dev > WEIGHT_SUM_TOL:
            raise ValueError(
                "mixture weights must sum to 1 within %g (deviation %g)"
                % (WEIGHT_SUM_TOL, dev)
            )
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
        """Mixture density, elementwise over ``x >= 0`` (log-space terms).

        Individual terms are formed as ``exp(log term)`` so that large
        shapes and tiny scales cannot overflow; the signed sum itself
        may come out a hair below zero in cancellation-heavy corners,
        on the order of 1e-16, and is returned as computed.  A
        non-finite sum raises ArithmeticError.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        lo, hi = _span(x)
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError("pdf requires finite x >= 0")
        out = np.zeros(x.shape)
        pos = x > 0.0
        if np.any(pos):
            xp = x[pos]
            const = (
                self.shapes * np.log(self.scales)
                + special.gammaln(self.shapes)
            )
            lt = (
                np.multiply.outer(self.shapes - 1.0, np.log(xp))
                - np.outer(1.0 / self.scales, xp)
                - const[:, None]
            )
            # einsum: accumulation order per element is fixed regardless
            # of batch size, keeping results bit-stable under chunking
            out[pos] = np.einsum("r,rb->b", self.weights, np.exp(lt))
        if np.any(~pos):
            unit = self.shapes == 1
            out[~pos] = float(np.sum(self.weights[unit] / self.scales[unit]))
        lo, hi = _span(out)
        if not (lo > -math.inf and hi < math.inf):
            raise ArithmeticError("mixture pdf is not finite")
        return float(out[0]) if scalar else out

    def cdf(self, x):
        """Mixture distribution function, elementwise over ``x >= 0``.

        Uses the lower regularized incomplete gamma per component.  The
        signed sum telescopes to the complementary (upper) form because
        the weights sum to one, but the lower form is the better
        conditioned of the two near the origin, where the deep-tail
        diversity behaviour is read off.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        lo, hi = _span(x)
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError("cdf requires finite x >= 0")
        per = special.gammainc(self.shapes[:, None], x[None, :] / self.scales[:, None])
        # fixed accumulation order keeps the signed sum bit-stable
        # under any caller-side chunking of x
        raw = np.einsum("r,rb->b", self.weights, per)
        lo, hi = _span(raw)
        if not (lo >= -WEIGHT_SUM_TOL and hi <= 1.0 + WEIGHT_SUM_TOL):
            raise ArithmeticError(
                "mixture cdf left [0, 1] beyond tolerance; worst value %r"
                % (raw[np.argmax(np.abs(raw - 0.5))],)
            )
        out = np.clip(raw, 0.0, 1.0)
        return float(out[0]) if scalar else out

    def moment(self, order):
        """Fractional moment ``E[X^order]`` in closed form.

        Valid for any real ``order`` with ``order > -min(shapes)``;
        downstream users need integers (power moments) and 1/2
        (envelope normalization).
        """
        order = float(order)
        if order <= -float(self.shapes.min()):
            raise ValueError("moment order must exceed -min(shape)")
        lt = (
            order * np.log(self.scales)
            + special.gammaln(self.shapes + order)
            - special.gammaln(self.shapes)
        )
        if lt.max() > _LOG_DBL_MAX:
            raise OverflowError("mixture moment of order %g overflows" % (order,))
        return math.fsum((self.weights * np.exp(lt)).tolist())


@lru_cache(maxsize=4096)
def expand(params):
    """Finite Gamma-mixture of a squared kappa-mu shadowed channel.

    Forms the weights in extended precision from the cached kappa-free
    layout of the link's ``(mu, m)``, drops exact zero weights, orders by
    descending |weight| and rounds to double once.  Both levels are
    cached: parameter sets are revisited during grid fits, and a fit
    that moves ``kappa`` within one integer cell builds its layout once.

    Parameters
    ----------
    params : ShadowedParams

    Returns
    -------
    GammaMixture
    """
    if not isinstance(params, ShadowedParams):
        raise TypeError("expand expects ShadowedParams, got %r" % type(params).__name__)
    gbar = np.longdouble(params.mean_power)
    mu, m = params.mu, params.m
    if params.kappa <= KAPPA_ZERO_TOL:
        return GammaMixture([1.0], [mu], [float(gbar / mu)])

    kap = np.longdouble(params.kappa)
    mk = mu * kap
    base = np.longdouble(m) / (mk + m)  # m / (mu kappa + m)
    dom = mk / (mk + m)                 # mu kappa / (mu kappa + m)
    unit = gbar / (mu * (np.longdouble(1.0) + kap))
    boosted = unit / base               # (mu kappa + m) / m * unit
    layout = _layout(mu, m)
    w = layout.coef * base ** layout.base_pow * dom ** layout.dom_pow
    shapes, which = layout.shapes, layout.boosted
    if np.count_nonzero(w) < w.size:
        keep = w != 0.0
        w, shapes, which = w[keep], shapes[keep], which[keep]
    order = (-np.abs(w)).argsort(kind="stable")
    scales = np.array([unit, boosted], dtype=float)
    return GammaMixture(w[order].astype(float), shapes[order], scales[which[order]])


def pdf_single(params, x):
    """Density of one squared kappa-mu shadowed channel at ``x``."""
    return expand(params).pdf(x)


def cdf_single(params, x):
    """Distribution function of one squared kappa-mu shadowed channel."""
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

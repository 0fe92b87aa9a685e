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

Also provided is the envelope-domain view ``R = c sqrt(Z)`` used when
matching measured amplitude histograms: ``c`` is chosen so that
``E[R]`` equals a prescribed reference level.
"""

import math
from functools import cached_property

import numpy as np

from .gammagamma import weighted_cdf_sum, weighted_mgf_sum, weighted_pdf_sum
from .mixture import ShadowedParams, _all_finite, _points, _positive, _span, expand, sample_single
from .specfun import tricomi_u_times_xa

__all__ = ["ProductModel", "EnvelopeModel"]

_LOG_DBL_MAX = float(np.log(np.finfo(float).max))

#: Tolerated excursion of the raw signed distribution function outside
#: [0, 1] before it is treated as a numerical failure.
CDF_RANGE_TOL = 1e-10


class ProductModel:
    """Product of two independent squared kappa-mu shadowed channels.

    Parameters
    ----------
    link_a, link_b : ShadowedParams
        The two factors.  Construction checks the closed-form mean
        against the product of the per-link mean powers to 1e-12
        relative, which catches any weight-table defect immediately.

    Attributes
    ----------
    mixture_a, mixture_b : GammaMixture
        The per-link expansions actually used.
    """

    def __init__(self, link_a, link_b):
        if not isinstance(link_a, ShadowedParams) or not isinstance(link_b, ShadowedParams):
            raise TypeError("ProductModel expects two ShadowedParams")
        self.link_a = link_a
        self.link_b = link_b
        self.mixture_a = expand(link_a)
        self.mixture_b = expand(link_b)

        mix_a, mix_b = self.mixture_a, self.mixture_b
        w = np.multiply.outer(mix_a.weights, mix_b.weights).ravel()
        order = (-np.abs(w)).argsort(kind="stable")
        # pair p is term p // len(b) of link a and term p % len(b) of link b
        ia, ib = order // mix_b.weights.size, order % mix_b.weights.size
        self._w = w[order]
        self._ka = mix_a.shapes[ia]
        self._kb = mix_b.shapes[ib]
        self._lth = np.log(mix_a.scales)[ia] + np.log(mix_b.scales)[ib]

        mean = self.moment(1)
        target = self.mean_power
        if not abs(mean - target) <= 1e-12 * target:
            raise ArithmeticError(
                "product mean %.17g deviates from %.17g beyond 1e-12 relative"
                % (mean, target)
            )

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
        out = weighted_pdf_sum(self._w, self._ka, self._kb, self._lth, z)
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
        if lo > 0.0:
            out = self._positive_cdf(z)
        else:
            out = np.zeros(z.shape)
            pos = z > 0.0
            if np.any(pos):
                out[pos] = self._positive_cdf(z[pos])
        return shaped(out)

    def _positive_cdf(self, z):
        """Range-checked and clipped cdf at points ``z > 0``."""
        raw = weighted_cdf_sum(self._w, self._ka, self._kb, self._lth, z)
        lo, hi = _span(raw)
        if not (lo >= -CDF_RANGE_TOL and hi <= 1.0 + CDF_RANGE_TOL):
            worst = raw[np.argmax(np.abs(raw - 0.5))]
            raise ArithmeticError(
                "product cdf left [0, 1] beyond %g (worst %r); "
                "abs_weight_sum=%.3g" % (CDF_RANGE_TOL, worst, self.abs_weight_sum)
            )
        return raw if (lo >= 0.0 and hi <= 1.0) else np.clip(raw, 0.0, 1.0)

    def mgf(self, s):
        """``E[exp(s Z)]`` over ``s < 0``.

        Tricomi-U closed form: pairs that are the same kernel are merged
        into one row, and each distinct scale product takes one
        row-batched U call.  Near ``s = 0`` the argument ``-1/(s theta)``
        may overflow to inf, where ``x^a U`` takes its limit 1.
        """
        s, _, shaped = _points(s, "< 0", "mgf requires finite s < 0")
        out = weighted_mgf_sum(self._w, self._ka, self._kb, self._lth, s, tricomi_u_times_xa)
        if not _all_finite(out):
            raise ArithmeticError(
                "product mgf is not finite; abs_weight_sum=%.3g" % (self.abs_weight_sum,)
            )
        return shaped(out)

    def moment(self, n):
        """Integer moment ``E[Z^n]`` in closed form.

        Per pair, ``theta^n (ka)_n (kb)_n`` with the rising factorials
        taken as exact integer products, summed in log space.  Raises
        OverflowError if any pair contribution leaves the double range
        (heavy-tailed products overflow quickly in ``n``).
        """
        if not float(n).is_integer() or int(n) < 1:
            raise ValueError("moment order must be an integer >= 1, got %r" % (n,))
        n = int(n)
        log_rising = np.log(self._ka * self._kb)
        for j in range(1, n):
            log_rising += np.log((self._ka + j) * (self._kb + j))
        lt = n * self._lth + log_rising
        if lt.max() > _LOG_DBL_MAX:
            raise OverflowError("moment of order %d overflows double precision" % (n,))
        return math.fsum((self._w * np.exp(lt)).tolist())

    @cached_property
    def sqrt_mean(self):
        """``E[sqrt(Z)]`` from the per-link half moments (closed form)."""
        return self.mixture_a.moment(0.5) * self.mixture_b.moment(0.5)

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
        Target mean envelope, > 0.
    """

    def __init__(self, product, envelope_scale):
        if not isinstance(product, ProductModel):
            raise TypeError("EnvelopeModel expects a ProductModel")
        envelope_scale = _positive("envelope_scale", envelope_scale)
        self.product = product
        self.envelope_scale = envelope_scale
        self._c = envelope_scale / product.sqrt_mean

    @property
    def mean(self):
        """``E[R]``, equal to ``envelope_scale`` by construction."""
        return self.envelope_scale

    def pdf(self, r):
        """Envelope density ``f_R(r) = (2 r / c^2) f_Z(r^2 / c^2)`` over ``r > 0``."""
        r, _, shaped = _points(r, "> 0", "envelope pdf requires finite r > 0")
        c2 = self._c * self._c
        return shaped((2.0 * r / c2) * self.product.pdf(r * r / c2))

    def cdf(self, r):
        """Envelope distribution function ``F_Z(r^2 / c^2)`` over ``r >= 0``."""
        r, _, shaped = _points(r, ">= 0", "envelope cdf requires finite r >= 0")
        c2 = self._c * self._c
        return shaped(self.product.cdf(r * r / c2))

    def sample(self, rng, n):
        """Draw ``n`` envelope variates."""
        return self._c * np.sqrt(self.product.sample(rng, n))

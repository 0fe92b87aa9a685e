"""Product-of-two-Gammas (generalized-K) kernel distributions.

If ``X ~ Gamma(m, Omega)`` and ``Xhat ~ Gamma(mhat, Omegahat)`` are
independent, the product ``Y = X Xhat`` has a Bessel-type density and,
for integer shapes, a finite-sum distribution function and a Tricomi-U
Laplace transform.  These kernels are the building blocks of the full
product law: expanding each channel into its Gamma mixture turns every
statistic of the product into a weighted sum of the functions below.

The weighted-sum evaluators accept whole arrays of kernels at once and
work in log space throughout, so large shape parameters and scales
spanning many decades cannot overflow.  Only the scale *product*
``theta = Omega * Omegahat`` ever enters; it is carried as a log.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .specfun import log_bessel_k_ladder, tricomi_u_times_xa

__all__ = [
    "GammaGammaParams",
    "gg_pdf",
    "gg_cdf",
    "gg_mgf",
    "gg_moment",
    "weighted_pdf_sum",
    "weighted_cdf_sum",
]

_LN2 = math.log(2.0)

# Cap on rows*points handled in one vectorized block; larger requests
# are chunked over the evaluation grid to bound peak memory.
_BLOCK_BUDGET = 2_000_000


def _as_positive_int(name, value):
    if not float(value).is_integer() or int(value) < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (name, value))
    return int(value)


@dataclass(frozen=True)
class GammaGammaParams:
    """Product of two independent Gamma variables with integer shapes.

    Parameters
    ----------
    m, m_hat : int
        Shapes of the two factors, >= 1.
    omega, omega_hat : float
        Scales of the two factors, > 0.
    """

    m: int
    m_hat: int
    omega: float
    omega_hat: float

    def __post_init__(self):
        object.__setattr__(self, "m", _as_positive_int("m", self.m))
        object.__setattr__(self, "m_hat", _as_positive_int("m_hat", self.m_hat))
        for name in ("omega", "omega_hat"):
            val = float(getattr(self, name))
            if not np.isfinite(val) or val <= 0.0:
                raise ValueError("%s must be finite and > 0, got %r" % (name, val))
            object.__setattr__(self, name, val)

    @property
    def log_scale(self):
        """log of the scale product Omega * Omegahat."""
        return math.log(self.omega) + math.log(self.omega_hat)


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


def gg_pdf(params, x):
    """Density of the Gamma product, elementwise over ``x > 0``."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("gg_pdf requires finite x > 0")
    out = weighted_pdf_sum(
        np.array([1.0]),
        np.array([params.m]),
        np.array([params.m_hat]),
        np.array([params.log_scale]),
        x,
    )
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("gg_pdf is not finite")
    return float(out[0]) if scalar else out


def gg_cdf(params, x):
    """Distribution function of the Gamma product, elementwise over ``x >= 0``.

    Finite series: integer first shape truncates the expansion after
    ``m`` Bessel terms.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("gg_cdf requires finite x >= 0")
    out = np.zeros(x.shape)
    pos = x > 0.0
    if np.any(pos):
        raw = weighted_cdf_sum(
            np.array([1.0]),
            np.array([params.m]),
            np.array([params.m_hat]),
            np.array([params.log_scale]),
            x[pos],
        )
        # written so that NaN fails the check too
        if not np.all((raw >= -1e-10) & (raw <= 1.0 + 1e-10)):
            raise ArithmeticError("gg_cdf left [0, 1] beyond tolerance")
        out[pos] = np.clip(raw, 0.0, 1.0)
    return float(out[0]) if scalar else out


def gg_mgf(params, s):
    """Moment generating function ``E[exp(s Y)]`` on the negative axis.

    Closed form through Tricomi's U:  with ``y = -1 / (s theta)``,
    ``E[exp(s Y)] = y^m U(m, 1 + m - mhat, y)``, evaluated through the
    overflow-safe combined routine.  Symmetric in the two shapes even
    though the formula does not look it (Kummer reflection).

    Parameters
    ----------
    params : GammaGammaParams
    s : float or array_like
        Strictly negative transform argument(s).
    """
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if not np.all(np.isfinite(s)) or np.any(s >= 0.0):
        raise ValueError("gg_mgf requires finite s < 0")
    y = -1.0 / (s * math.exp(params.log_scale))
    out = tricomi_u_times_xa(params.m, 1 + params.m - params.m_hat, y)
    out = np.atleast_1d(out)
    return float(out[0]) if scalar else out


def gg_moment(params, n):
    """Integer moment ``E[Y^n]`` via the exact rising-factorial product.

    Raises
    ------
    OverflowError
        If the moment exceeds the double-precision range.
    """
    if not float(n).is_integer() or int(n) < 1:
        raise ValueError("moment order must be an integer >= 1, got %r" % (n,))
    n = int(n)
    ratio = 1
    for j in range(n):
        ratio *= (params.m + j) * (params.m_hat + j)
    try:
        scaled = float(ratio) * math.exp(n * params.log_scale)
    except OverflowError:
        raise OverflowError("gg_moment order %d overflows double precision" % (n,))
    if math.isinf(scaled):
        raise OverflowError("gg_moment order %d overflows double precision" % (n,))
    return scaled

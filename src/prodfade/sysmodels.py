"""System-level performance models built on the product distribution.

Two application layers reduce end-to-end to the product law:

* Harvest-then-transmit wireless-powered links: a multi-antenna power
  beacon charges a node for a fraction ``tau`` of each block; the node
  then transmits to its destination.  The end SNR is proportional to
  the product of the beamformed beacon-to-node gain (kappa-mu with
  ``mu = N`` antennas) and the node-to-destination gain, so outage is
  one evaluation of the product CDF.

* RF-modulated backscatter: the received power is the transmit power
  times the product of forward and reverse normalized fading gains.

A Nakagami-based approximation of the beacon link (shape
``(1+K)^2/(1+2K)`` per antenna) is shipped alongside as an explicit
comparator: it is accurate at moderate SNR but misses the true
diversity slope when both hops carry a dominant component, and the
divergence between the two curves in the deep tail is itself a result
worth reproducing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mixture import (
    RICIAN_PROXY_M, ShadowedParams, _as_int, _log_points, _non_negative, _points, _positive,
)
from .pdist import ProductModel

__all__ = [
    "WpcConfig",
    "BackscatterConfig",
    "wpc_product",
    "wpc_outage",
    "wpc_throughput",
    "wpc_sweep",
    "nakagami_shape",
    "nakagami_wpc_outage",
    "gamma_product_cdf",
    "backscatter_model",
    "backscatter_power_cdf",
    "backscatter_sweep",
    "NAKAGAMI_COMPARATOR_METHOD",
]


#: How the real-shape Nakagami comparator is computed; recorded in
#: output metadata wherever comparator values are emitted.
NAKAGAMI_COMPARATOR_METHOD = "gamma-product-quadrature"


@dataclass(frozen=True)
class WpcConfig:
    """Harvest-then-transmit link budget.

    Parameters
    ----------
    tx_power_over_noise : float
        Beacon transmit power over noise density, linear (P / N0).
    pb_antennas : int
        Beacon antennas N; beamforming gives the charging link a
        kappa-mu law with mu = N.
    rician_k : float
        K-factor of each beacon-to-node antenna element.
    s_d_model : str or ShadowedParams
        Node-to-destination fading: "rayleigh", "rician" (uses
        ``s_d_rician_k``), or an explicit unit-mean ShadowedParams.
    s_d_rician_k : float
        K-factor for the "rician" choice; ignored otherwise.
    harvest_fraction : float
        tau, fraction of the block spent harvesting, in (0, 1).
    efficiency : float
        RF-to-DC conversion efficiency eta, in (0, 1).
    path_loss_exponent, d1, d2 : float
        Power-law path loss over the charging (d1) and data (d2) hops.
    rate : float
        Target rate R_c in bits/s/Hz; outage threshold is 2^R_c - 1.
    m_proxy : int
        Finite shadowing order standing in for exact Rician links.
    """

    tx_power_over_noise: float
    pb_antennas: int
    rician_k: float
    s_d_model: object = "rayleigh"
    s_d_rician_k: float = None
    harvest_fraction: float = 0.5
    efficiency: float = 0.4
    path_loss_exponent: float = 2.5
    d1: float = 8.0
    d2: float = 15.0
    rate: float = 1.0
    m_proxy: int = RICIAN_PROXY_M

    def __post_init__(self):
        object.__setattr__(self, "tx_power_over_noise",
                           _positive("tx_power_over_noise", self.tx_power_over_noise))
        object.__setattr__(self, "pb_antennas", _as_int("pb_antennas", self.pb_antennas))
        object.__setattr__(self, "rician_k", _non_negative("rician_k", self.rician_k))
        for name in ("harvest_fraction", "efficiency"):
            v = float(getattr(self, name))
            if not 0.0 < v < 1.0:
                raise ValueError("%s must lie strictly inside (0, 1), got %r" % (name, v))
            object.__setattr__(self, name, v)
        for name in ("path_loss_exponent", "d1", "d2", "rate"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        object.__setattr__(self, "m_proxy", _as_int("m_proxy", self.m_proxy))
        # resolve the S-D choice eagerly so bad configs fail at build time
        object.__setattr__(self, "s_d_model", self._resolve_sd(self.s_d_model))

    def _resolve_sd(self, choice):
        if isinstance(choice, ShadowedParams):
            if choice.mean_power != 1.0:
                raise ValueError("s_d_model must have unit mean power; "
                                 "the link budget carries the scale")
            return choice
        if choice == "rayleigh":
            return ShadowedParams.rayleigh()
        if choice == "rician":
            if self.s_d_rician_k is None:
                raise ValueError("s_d_model='rician' requires s_d_rician_k")
            return ShadowedParams.rician(float(self.s_d_rician_k), m=self.m_proxy)
        raise ValueError("s_d_model must be 'rayleigh', 'rician' or ShadowedParams, "
                         "got %r" % (choice,))

    @property
    def snr_threshold(self):
        """gamma_th = 2^rate - 1."""
        return 2.0 ** self.rate - 1.0

    def pb_link(self):
        """Beamformed beacon-to-node power statistic.

        N unit-variance antenna elements give mean power N; the sum of
        their noncentral powers is kappa-mu with mu = N.  This builds the
        kappa-mu shadowed link of shadowing order ``m_proxy`` instead, a
        finite stand-in for that unshadowed (m -> infinity) law: at the
        default order, ``wpc_outage`` with a Rayleigh data hop is 2.5-4.8%
        off the exact law from 60 to 110 dB (ROADMAP item 16).
        """
        return ShadowedParams(
            float(self.pb_antennas), self.rician_k, self.pb_antennas, self.m_proxy
        )

    def threshold_scale(self):
        """Numerator of the outage argument: divide by P/N0 to get it.

        P_out = F_Z(threshold_scale / (P/N0)) with Z the product gain.
        """
        alpha = self.path_loss_exponent
        return (
            (1.0 - self.harvest_fraction)
            * self.d1**alpha * self.d2**alpha * self.snr_threshold
            / (self.harvest_fraction * self.efficiency)
        )


def wpc_product(cfg):
    """Product model of beacon-link times data-link power gains."""
    return ProductModel(cfg.pb_link(), cfg.s_d_model)


def wpc_outage(cfg, p_over_n0=None):
    """Outage probability over linear ``p_over_n0 > 0``.

    Defaults to the configured operating point when no sweep values
    are passed.  The cdf takes the log ``ln threshold - ln p``.
    """
    if p_over_n0 is None:
        p_over_n0 = cfg.tx_power_over_noise
    p, _, shaped = _points(p_over_n0, "> 0", "p_over_n0 must be finite and > 0")
    return shaped(wpc_product(cfg)._cdf_at_logs(math.log(cfg.threshold_scale()) - np.log(p)))


def wpc_throughput(cfg, p_over_n0=None):
    """Delay-constrained throughput (1 - P_out) R_c (1 - tau)."""
    out = wpc_outage(cfg, p_over_n0)
    return (1.0 - out) * cfg.rate * (1.0 - cfg.harvest_fraction)


def wpc_sweep(cfg, p_over_n0_db):
    """Outage and throughput over a dB grid of P/N0.

    Returns ``(p_over_n0_db, outage, throughput)`` arrays ready for
    CSV serialization.
    """
    db = np.asarray(p_over_n0_db, dtype=float)
    lin = 10.0 ** (db / 10.0)
    outage = wpc_outage(cfg, lin)
    throughput = (1.0 - outage) * cfg.rate * (1.0 - cfg.harvest_fraction)
    return db, outage, throughput


def nakagami_shape(k_factor):
    """Real Nakagami shape matching a Rician K: (1+K)^2 / (1+2K)."""
    k_factor = _non_negative("k_factor", k_factor)
    return (1.0 + k_factor) ** 2 / (1.0 + 2.0 * k_factor)


def gamma_product_cdf(shape_a, scale_a, shape_b, scale_b, x):
    """CDF of a product of two independent Gammas with *real* shapes, over ``x >= 0``.

    Conditioning on the first factor gives a one-dimensional integral
    of a Gamma density against a Gamma CDF, evaluated by adaptive
    quadrature.  Slow but shape-exact; used only by the comparator,
    which is why ``scipy.integrate`` and ``scipy.special`` are imported
    here and not with the module.
    """
    for name, v in (("shape_a", shape_a), ("scale_a", scale_a),
                    ("shape_b", shape_b), ("scale_b", scale_b)):
        _positive(name, v)
    x, lo, shaped = _points(x, ">= 0", "x must be finite and >= 0")
    log_x, place = _log_points(x, lo)
    return shaped(place(_gamma_product_cdf_at_logs(shape_a, scale_a, shape_b, scale_b, log_x)))


def _gamma_product_cdf_at_logs(shape_a, scale_a, shape_b, scale_b, log_x):
    """:func:`gamma_product_cdf` at finite logs ``log_x``: given the first factor
    ``w``, the second's cdf is at ``exp(ln x - ln w - ln scale_b)``, that log held
    at most 700, where ``gammainc`` is 1 for any shape far below ``e^700``."""
    from scipy import integrate, special

    ln_gamma_a = special.gammaln(shape_a)
    ln_scale_b = math.log(scale_b)

    def pdf_a(w):
        t = w / scale_a
        return np.exp(special.xlogy(shape_a - 1.0, t) - t - ln_gamma_a) / scale_a

    out = np.zeros(log_x.shape)
    for i, lx in enumerate(log_x.tolist()):
        val, _ = integrate.quad(
            lambda w: pdf_a(w) * special.gammainc(
                shape_b, math.exp(min(lx - math.log(w) - ln_scale_b, 700.0))),
            0.0, np.inf, limit=200,
        )
        out[i] = min(val, 1.0)
    return out


def nakagami_wpc_outage(cfg, p_over_n0=None):
    """Outage under the Nakagami approximation of both hops.

    The beamformed beacon link becomes Gamma with shape
    ``nakagami_shape(K) * N`` and mean N, and the data link, by the same
    moment match, Gamma with shape ``nakagami_shape(kappa) * mu`` and mean
    1 (Rayleigh stays shape 1, and kappa 0 gives shape ``mu``).  Real
    shapes are kept exact via quadrature -- see
    ``NAKAGAMI_COMPARATOR_METHOD``.
    """
    if p_over_n0 is None:
        p_over_n0 = cfg.tx_power_over_noise
    p, _, shaped = _points(p_over_n0, "> 0", "p_over_n0 must be finite and > 0")

    n = cfg.pb_antennas
    shape_a = nakagami_shape(cfg.rician_k) * n
    scale_a = float(n) / shape_a  # mean N

    sd = cfg.s_d_model
    shape_b = sd.mu * nakagami_shape(sd.kappa)
    scale_b = 1.0 / shape_b

    log_z = math.log(cfg.threshold_scale()) - np.log(p)
    return shaped(_gamma_product_cdf_at_logs(shape_a, scale_a, shape_b, scale_b, log_z))


@dataclass(frozen=True)
class BackscatterConfig:
    """RF-modulated backscatter received-power statistic.

    ``mean_rx_power`` carries the whole link budget; the forward and
    reverse fading laws must both have unit mean power.
    """

    mean_rx_power: float
    forward: ShadowedParams
    reverse: ShadowedParams

    def __post_init__(self):
        object.__setattr__(self, "mean_rx_power",
                           _positive("mean_rx_power", self.mean_rx_power))
        for name in ("forward", "reverse"):
            link = getattr(self, name)
            if not isinstance(link, ShadowedParams):
                raise ValueError("%s must be ShadowedParams" % (name,))
            if link.mean_power != 1.0:
                raise ValueError(
                    "%s must be normalized to unit mean power "
                    "(mean_rx_power carries the scale), got %r" % (name, link.mean_power)
                )


def backscatter_model(cfg):
    """Product model of the forward times reverse normalized gains."""
    return ProductModel(cfg.forward, cfg.reverse)


def backscatter_power_cdf(cfg, power):
    """P(received power <= power) over ``power > 0``, at ``ln power - ln mean_rx_power``."""
    p, _, shaped = _points(power, "> 0", "power must be finite and > 0")
    return shaped(backscatter_model(cfg)._cdf_at_logs(np.log(p) - math.log(cfg.mean_rx_power)))


def backscatter_sweep(cfg, power_db):
    """Received-power CDF over a dB grid; returns (power_db, cdf)."""
    db = np.asarray(power_db, dtype=float)
    lin = 10.0 ** (db / 10.0)
    return db, backscatter_power_cdf(cfg, lin)

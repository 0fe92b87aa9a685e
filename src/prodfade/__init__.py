"""Statistics of products of squared kappa-mu shadowed fading channels.

The package provides the exact finite-sum law of the product of two
independent, not necessarily identical, squared kappa-mu shadowed
variables with integer shape parameters: density, distribution
function, Laplace transform, moments and samplers, plus the layers
that make it useful in practice -- deep-tail asymptotics and
cross-family parameter matching, measurement fitting, and
wireless-powered / backscatter link performance.

Quick start::

    from prodfade import ShadowedParams, ProductModel

    link_a = ShadowedParams(mean_power=1.0, kappa=2.6, mu=1, m=4)
    link_b = ShadowedParams(mean_power=1.0, kappa=2.6, mu=1, m=4)
    model = ProductModel(link_a, link_b)
    model.cdf(0.1)

A command-line front-end is installed as ``prodfade``.
"""

from .asym import asym_cdf, asym_cdf_kappa_mu, match_kappa, tail_offset, tail_offset_kappa_mu
from .errors import IngestionError, NoRootError
from .fit import (
    EmpiricalDistribution,
    FitResult,
    SearchConfig,
    empirical_from_samples,
    fit_cdf,
    fit_pdf_mse,
    histogram_pdf_from_samples,
    ks_error,
    thin_empirical,
)
from .mixture import (
    GammaMixture,
    ShadowedParams,
    cdf_single,
    expand,
    pdf_single,
    sample_single,
)
from .pdist import EnvelopeModel, ProductModel
from .sysmodels import (
    BackscatterConfig,
    WpcConfig,
    backscatter_power_cdf,
    nakagami_wpc_outage,
    wpc_outage,
    wpc_sweep,
    wpc_throughput,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ShadowedParams", "GammaMixture", "expand",
    "pdf_single", "cdf_single", "sample_single",
    "ProductModel", "EnvelopeModel",
    "tail_offset", "tail_offset_kappa_mu", "asym_cdf", "asym_cdf_kappa_mu",
    "match_kappa",
    "EmpiricalDistribution", "SearchConfig", "FitResult",
    "empirical_from_samples", "histogram_pdf_from_samples",
    "thin_empirical", "ks_error", "fit_cdf", "fit_pdf_mse",
    "WpcConfig", "BackscatterConfig",
    "wpc_outage", "wpc_throughput", "wpc_sweep", "nakagami_wpc_outage",
    "backscatter_power_cdf",
    "NoRootError", "IngestionError",
]

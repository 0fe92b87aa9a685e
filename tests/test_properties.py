"""Properties of the product law that need no reference values."""

import math
import warnings

import numpy as np
import pytest

from prodfade.mixture import KAPPA_ZERO_TOL, ShadowedParams
from prodfade.pdist import EnvelopeModel, ProductModel

EPS = np.finfo(float).eps

# (mean_power, kappa, mu, m) of links a and b.  The third product is
# signed (mu > m on both links, abs_weight_sum 54).
SCALE_CELLS = [
    ((1.0, 0.0, 1, 1), (1.0, 0.0, 1, 1)),
    ((1.0, 2.0, 3, 5), (1.0, 0.7, 1, 4)),
    ((1.0, 1.0, 6, 2), (1.0, 0.5, 4, 1)),
    ((2.0, 0.3, 2, 2), (0.5, 5.0, 3, 8)),
]
# Points in the body of each law (F >= 0.007): further into the lower
# tail the signed product's density is a cancelling sum, whose relative
# error no bound of this form covers.
Z = np.geomspace(0.1, 10.0, 9)
SCALES = 10.0 ** np.arange(-300, 301, 25)


@pytest.mark.parametrize("link_a, link_b", SCALE_CELLS)
def test_scale_law_over_the_double_range(link_a, link_b):
    # Z scales with link a's mean power: F(c z; c mean_a) = F(z; mean_a)
    # and f(c z; c mean_a) = f(z; mean_a) / c.  The envelope R = k sqrt(Z)
    # of mean c has EnvelopeModel.cdf(r) = ProductModel.cdf((r / k)^2).
    # Each holds for c from 1e-300 to 1e300, with no warning.  The logs
    # of c z and c mean_a round by about an ulp of |ln c| each, so the
    # bound is 8 eps (|ln c| + 8) abs_weight_sum, absolute on F (the
    # cdf's complement form 1 - sum rounds in absolute terms) and
    # relative on f.
    base = ProductModel(ShadowedParams(*link_a), ShadowedParams(*link_b))
    cdf, pdf = base.cdf(Z), base.pdf(Z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in SCALES.tolist():
            bound = 8 * EPS * (abs(math.log(c)) + 8) * base.abs_weight_sum
            scaled = ProductModel(ShadowedParams(c * link_a[0], *link_a[1:]),
                                  ShadowedParams(*link_b))
            assert np.all(np.abs(scaled.cdf(c * Z) - cdf) <= bound), c
            assert np.all(np.abs(c * scaled.pdf(c * Z) / pdf - 1) <= bound), c
            k = c / base.sqrt_mean
            r = k * np.sqrt(Z)
            envelope = EnvelopeModel(base, c).cdf(r)
            assert np.all(np.abs(envelope - base.cdf((r / k) ** 2)) <= bound), c


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="a mu > m link just above KAPPA_ZERO_TOL misses the weight sum, "
                          "so the collapse is a cliff, not a limit (ROADMAP item 1)")
@pytest.mark.parametrize("mu, m", [(6, 2), (3, 1), (3, 2)])
def test_kappa_continuity_across_the_collapse(mu, m):
    # A kappa of 1e-13 takes the collapsed form Gamma(mu) and the next
    # double above KAPPA_ZERO_TOL the full expansion; the law moves by
    # about 1e-12 between them, so the cdfs agree to 1e-9.
    other = ShadowedParams.rayleigh()
    below = ProductModel(ShadowedParams(1.0, 1e-13, mu, m), other)
    above = ProductModel(ShadowedParams(1.0, float(np.nextafter(KAPPA_ZERO_TOL, 1.0)), mu, m),
                         other)
    assert np.all(np.abs(above.cdf(Z) - below.cdf(Z)) <= 1e-9)

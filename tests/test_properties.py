"""Properties of the product law that need no reference values."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodfade.mixture import KAPPA_ZERO_TOL, ShadowedParams, expand
from prodfade.pdist import CDF_RANGE_TOL, EnvelopeModel, ProductModel

EPS = np.finfo(float).eps

# (mean_power, kappa, mu, m) of links a and b.  The third product is
# signed (mu > m on both links, abs_weight_sum 54).
SCALE_CELLS = [
    ((1.0, 0.0, 1, 1), (1.0, 0.0, 1, 1)),
    ((1.0, 2.0, 3, 5), (1.0, 0.7, 1, 4)),
    ((1.0, 1.0, 6, 2), (1.0, 0.5, 4, 1)),
    ((2.0, 0.3, 2, 2), (0.5, 5.0, 3, 8)),
]
# Two more plans of the signed cell: two equal mu > m links (the tied
# plan, abs_weight_sum 89) and link a collapsed to Gamma(mu) (kappa below
# KAPPA_ZERO_TOL).
PROPERTY_CELLS = SCALE_CELLS + [
    ((1.0, 1.0, 6, 2), (1.0, 1.0, 6, 2)),
    ((1.0, 1e-13, 6, 2), (1.0, 0.5, 4, 1)),
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


def _model(link_a, link_b):
    return ProductModel(ShadowedParams(*link_a), ShadowedParams(*link_b))


@pytest.mark.parametrize("link_a, link_b", PROPERTY_CELLS)
def test_swapping_the_links_gives_the_same_law(link_a, link_b):
    # The swapped product has the same pair weights and scale products,
    # summed in another order, and its cdf series runs over the other
    # link's shapes: both agree to 8 eps abs_weight_sum, absolute on F
    # and relative on f.
    model, swapped = _model(link_a, link_b), _model(link_b, link_a)
    bound = 8 * EPS * model.abs_weight_sum
    assert np.all(np.abs(swapped.cdf(Z) - model.cdf(Z)) <= bound)
    assert np.all(np.abs(swapped.pdf(Z) / model.pdf(Z) - 1) <= bound)


@pytest.mark.parametrize("link_a, link_b", PROPERTY_CELLS)
def test_pdf_integrates_to_the_cdf_increments(link_a, link_b):
    # The pdf rows (one Bessel term per kernel) and the cdf rows (a finite
    # Bessel series per pair) are separate code.  A 20-node Gauss-Legendre
    # rule on f over each [z_i, z_i+1] of Z, whose nearest singularity
    # (z = 0) leaves it an error far below eps, matches F(z_i+1) - F(z_i)
    # to 16 eps abs_weight_sum, absolute: each F rounds in absolute terms.
    model = _model(link_a, link_b)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half, mid = np.diff(Z) / 2, (Z[1:] + Z[:-1]) / 2
    integral = half * (model.pdf(mid[:, None] + half[:, None] * nodes) @ weights)
    assert np.all(np.abs(integral - np.diff(model.cdf(Z))) <= 16 * EPS * model.abs_weight_sum)


@pytest.mark.parametrize("envelope_scale", [1e-3, 1.3, 1e3])
@pytest.mark.parametrize("link_a, link_b", PROPERTY_CELLS)
def test_envelope_pdf_is_the_power_pdf_transformed(link_a, link_b, envelope_scale):
    # R = c sqrt(Z) with c = envelope_scale / E[sqrt(Z)] has density
    # f_R(r) = 2 r / c^2 f_Z(r^2 / c^2).  The envelope adds 2 ln c to the
    # log scale products and the reference divides r^2 by c^2, so the two
    # log points differ by about an ulp of |ln c| each: relative bound
    # 8 eps (|ln c| + 8) abs_weight_sum, as for the scale law.
    model = _model(link_a, link_b)
    c = envelope_scale / model.sqrt_mean
    r = c * np.sqrt(Z)
    expected = 2 * r / c ** 2 * model.pdf(r ** 2 / c ** 2)
    bound = 8 * EPS * (abs(math.log(c)) + 8) * model.abs_weight_sum
    assert np.all(np.abs(EnvelopeModel(model, envelope_scale).pdf(r) / expected - 1) <= bound)


@pytest.mark.parametrize("envelope_scale", [1e-3, 1.3, 1e3])
@pytest.mark.parametrize("link_a, link_b", PROPERTY_CELLS)
def test_envelope_cdf_is_the_power_cdf_transformed(link_a, link_b, envelope_scale):
    # R = c sqrt(Z) has F_R(r) = F_Z(r^2 / c^2).  The envelope takes the
    # log point 2 ln r - 2 ln c and the reference squares r / c, so the
    # scale law's bound holds, absolute on F: 8 eps (|ln c| + 8)
    # abs_weight_sum.
    model = _model(link_a, link_b)
    c = envelope_scale / model.sqrt_mean
    r = c * np.sqrt(Z)
    bound = 8 * EPS * (abs(math.log(c)) + 8) * model.abs_weight_sum
    envelope = EnvelopeModel(model, envelope_scale).cdf(r)
    assert np.all(np.abs(envelope - model.cdf((r / c) ** 2)) <= bound)


# Continuity in kappa away from the collapse: link a's kappa and the
# next kappa (1 + 1e-9), against link b (1.0, 0.5, 1, 3), on z over
# 1e-4..20.  Link a is positive ((1, 4), (2, 5)) or signed (mu > m).
KAPPA_STEP = 1e-9
CONTINUITY_Z = np.geomspace(1e-4, 20.0, 25)
CONTINUITY_LINKS = [(1, 4), (2, 5), (6, 2), (3, 1), (4, 1), (12, 1)]
# Signed links refused at small kappa, with the class each raises: their
# weights miss the sum (ValueError), or the product's log mean leaves
# ln mean_a + ln mean_b by more than 1e-12 (ArithmeticError).
CONTINUITY_REFUSED = {
    (6, 2, 1e-6): ValueError, (6, 2, 1e-3): ValueError,
    (3, 1, 1e-6): ValueError, (3, 1, 1e-3): ValueError,
    (4, 1, 1e-6): ValueError, (4, 1, 1e-3): ArithmeticError,
    (12, 1, 1e-6): ValueError, (12, 1, 1e-3): ValueError,
}


def _strict_xfails(cells, reason):
    """``(params, exc)`` pairs as parameters, those with an ``exc`` marked
    to fail with exactly that class."""
    return [pytest.param(*params, marks=pytest.mark.xfail(raises=exc, strict=True,
                                                          reason=reason))
            if exc else params for params, exc in cells]


@pytest.mark.parametrize("mu, m, kappa", _strict_xfails(
    (((mu, m, kappa), CONTINUITY_REFUSED.get((mu, m, kappa)))
     for mu, m in CONTINUITY_LINKS for kappa in (1e-6, 1e-3, 0.1, 1.0, 10.0)),
    "a mu > m link is refused at small kappa (ROADMAP item 1)"))
def test_cdf_is_continuous_in_kappa(mu, m, kappa):
    # F moves by its sensitivity |d ln F / d ln kappa| times the step,
    # below 0.6 on these cells, so 4 KAPPA_STEP F bounds it, plus the
    # signed sum's absolute rounding, 8 eps abs_weight_sum (the signed
    # (6, 2) at kappa 0.1 moves 2e-8 relative to F, 4e-12 absolute, which
    # is that rounding at abs_weight_sum 9.4e3).
    other = ShadowedParams(1.0, 0.5, 1, 3)
    model = ProductModel(ShadowedParams(1.0, kappa, mu, m), other)
    moved = ProductModel(ShadowedParams(1.0, kappa * (1 + KAPPA_STEP), mu, m), other)
    cdf = model.cdf(CONTINUITY_Z)
    bound = 4 * KAPPA_STEP * cdf + 8 * EPS * model.abs_weight_sum
    assert np.all(np.abs(moved.cdf(CONTINUITY_Z) - cdf) <= bound)


# The domain grids of the ROADMAP Baseline: single-link cdfs at kappa in
# {0.01, 0.1, 1} and ProductModel(p, p) cdfs at kappa in {0.1, 1, 5, 20},
# mu, m <= 12, unit mean, on 200 log points over 1e-7..20.
DOMAIN_Z = np.geomspace(1e-7, 20.0, 200)
SINGLE_KAPPAS, PRODUCT_KAPPAS = (0.01, 0.1, 1.0), (0.1, 1.0, 5.0, 20.0)
# The cells that fail today, as (kappa, mu, m values, class): the weights
# of a mu > m link miss the sum (ValueError), or the cdf leaves [0, 1] by
# more than CDF_RANGE_TOL or the product's log mean its closed form
# (ArithmeticError).  Every one has mu > m and kappa <= 0.1; ROADMAP item
# 1 should flip them.
SINGLE_DEFECTS = [
    (0.01, 5, [2, 3], ArithmeticError),
    (0.01, 5, [4], ValueError),
    *[(0.01, mu, range(1, mu), ValueError) for mu in range(6, 13)],
    (0.1, 6, [5], ValueError),
    (0.1, 7, range(3, 7), ValueError),
    (0.1, 8, range(2, 8), ValueError),
    (0.1, 9, range(3, 9), ValueError),
    *[(0.1, mu, range(2, mu), ValueError) for mu in (10, 11, 12)],
]
PRODUCT_DEFECTS = [row for row in SINGLE_DEFECTS if row[0] == 0.1] + [
    (0.1, 4, [2, 3], ArithmeticError),
    (0.1, 5, [2, 3, 4], ArithmeticError),
    (0.1, 6, [2, 3, 4], ArithmeticError),
    (0.1, 7, [2], ArithmeticError),
    (0.1, 9, [2], ArithmeticError),
    *[(0.1, mu, [1], ArithmeticError) for mu in (8, 9, 10, 11, 12)],
]
KNOWN_DEFECTS = {(kind, mu, m, kappa): exc
                 for kind, rows in (("single", SINGLE_DEFECTS), ("product", PRODUCT_DEFECTS))
                 for kappa, mu, ms, exc in rows for m in ms}


def _domain_cdf(kind, mu, m, kappa):
    """The cdf of a domain-grid cell on DOMAIN_Z, checked: in [0, 1] and
    falling by no more than CDF_RANGE_TOL between points."""
    link = ShadowedParams(1.0, kappa, mu, m)
    model = expand(link) if kind == "single" else ProductModel(link, link)
    cdf = model.cdf(DOMAIN_Z)
    assert 0.0 <= cdf.min() and cdf.max() <= 1.0, (kind, mu, m, kappa)
    assert np.all(np.diff(cdf) >= -CDF_RANGE_TOL), (kind, mu, m, kappa)


@pytest.mark.parametrize("kind, mu, m, kappa", _strict_xfails(
    KNOWN_DEFECTS.items(), "a mu > m cell that fails today (ROADMAP item 1)"))
def test_known_domain_defect(kind, mu, m, kappa):
    # Strict: a cell that stops failing, or raises what its listed class
    # does not cover, fails the run, and leaves KNOWN_DEFECTS.  pytest
    # formats the traceback of every failure, an expected one too, so the
    # refusal is raised anew from here: one frame to format, not the
    # library's.
    try:
        _domain_cdf(kind, mu, m, kappa)
    except (ValueError, ArithmeticError) as exc:
        raise type(exc)(*exc.args) from None


def test_every_other_domain_cell_gives_a_cdf():
    cells = [("single", mu, m, kappa) for kappa in SINGLE_KAPPAS
             for mu in range(1, 13) for m in range(1, 13)]
    cells += [("product", mu, m, kappa) for kappa in PRODUCT_KAPPAS
              for mu in range(1, 13) for m in range(1, 13)]
    for cell in cells:
        if cell not in KNOWN_DEFECTS:
            _domain_cdf(*cell)
    # 103 of the 432 single-link cells and 59 of the 576 products fail
    assert sum(cell in KNOWN_DEFECTS for cell in cells) == len(KNOWN_DEFECTS) == 103 + 59


# ROADMAP item 12's domain strategy, shared with item 8's sweep.  A link
# is (mu, m, kappa) with mu, m in 1..16 and kappa 0, KAPPA_ZERO_TOL, the
# next double above it, or log-uniform in [1e-9, 50]; a mean power is
# log-uniform in [1e-300, 1e300].  Only mu <= m is drawn: mu > m links
# are refused at small kappa (CONTINUITY_REFUSED, KNOWN_DEFECTS), and
# wait for ROADMAP item 1's positive series.
KAPPAS = st.one_of(
    st.sampled_from([0.0, KAPPA_ZERO_TOL, float(np.nextafter(KAPPA_ZERO_TOL, 1.0))]),
    st.floats(-9.0, math.log10(50.0)).map(lambda e: 10.0 ** e),
)
LINKS = st.tuples(st.integers(1, 16), st.integers(1, 16), KAPPAS).map(
    lambda link: (min(link[:2]), max(link[:2]), link[2]))
MEAN_POWERS = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
# 40 points over the law of Z, in units of its mean.
LAW_SPAN = np.geomspace(1e-6, 1e2, 40)


def _domain_models(link_a, link_b, mean_power):
    """The product of a drawn link a at ``mean_power`` and a drawn link b at
    unit mean, the product with the links swapped, and the points of LAW_SPAN."""
    a = ShadowedParams(mean_power, link_a[2], *link_a[:2])
    b = ShadowedParams(1.0, link_b[2], *link_b[:2])
    return ProductModel(a, b), ProductModel(b, a), mean_power * LAW_SPAN


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(link_a=LINKS, link_b=LINKS, mean_power=MEAN_POWERS)
def test_positive_domain_builds_a_rising_law(link_a, link_b, mean_power):
    # The model builds, and on points spanning the law its cdf never
    # falls by more than CDF_RANGE_TOL and its pdf is finite and >= 0.
    # Swapping the links is not checked here: see the strict xfail below.
    model, _, z = _domain_models(link_a, link_b, mean_power)
    assert np.all(np.diff(model.cdf(z)) >= -CDF_RANGE_TOL)
    pdf = model.pdf(z)
    assert np.all(np.isfinite(pdf) & (pdf >= 0.0))


def _moment_or_class(law, n):
    """``law.moment(n)``, or the class of the ``ArithmeticError`` it raises."""
    try:
        return law.moment(n)
    except ArithmeticError as exc:
        return type(exc)


def _normal(v):
    return isinstance(v, float) and np.finfo(float).tiny <= abs(v) < math.inf


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(link_a=LINKS, link_b=LINKS, mean_power=MEAN_POWERS)
def test_product_moments_are_the_links_moments_multiplied(link_a, link_b, mean_power):
    # E[Z^n] = E[X^n] E[Xhat^n]: the pair sum on the cell plan against the
    # two mixtures' moments.  Where all are normal doubles they agree to
    # 1e-12; elsewhere both paths raise the same class (a product past the
    # largest double is an OverflowError), or both give a value.
    model = _domain_models(link_a, link_b, mean_power)[0]
    for n in (1, 2, 3):
        got = _moment_or_class(model, n)
        a, b = (_moment_or_class(expand(link), n) for link in (model.link_a, model.link_b))
        want = a if isinstance(a, type) else b if isinstance(b, type) else a * b
        if want == math.inf:
            want = OverflowError
        if all(_normal(v) for v in (a, b, want, got)):
            assert abs(got - want) <= 1e-12 * want, (n, got, want)
        else:
            both_values = isinstance(got, float) and isinstance(want, float)
            assert both_values or got is want, (n, got, want)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the cdf's absolute rounding grows with the kernels' shapes "
                          "and |ln mean_power|, past 8 eps abs_weight_sum")
def test_swapping_the_links_of_a_domain_draw_moves_the_cdf_by_8_eps():
    # The first draw of the domain strategy that fails swapping the links
    # within 8 eps abs_weight_sum, the bound the property cells above
    # hold: Gamma(1) x Gamma(3) moves by 13 eps at z = 4.1e-6, where F =
    # 6.2e-6.  Most draws fail it, so no assume can leave them out of the
    # domain test; ROADMAP item 9's per-value error bound should replace
    # the flat bound.
    model, swapped, z = _domain_models((1, 1, 0.0), (3, 3, 0.0), 1.0)
    assert np.all(np.abs(swapped.cdf(z) - model.cdf(z)) <= 8 * EPS * model.abs_weight_sum)

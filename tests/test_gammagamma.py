import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from prodfade.gammagamma import (
    Pairs, weighted_cdf_sum, weighted_mgf_sum, weighted_pdf_sum,
)
from prodfade.mixture import ShadowedParams
from prodfade.pdist import ProductModel


def gamma_product(m, m_hat, omega, omega_hat):
    """``Gamma(m, omega) * Gamma(m_hat, omega_hat)``: the one-pair, kappa = 0 model."""
    return ProductModel(ShadowedParams.nakagami(m, m * omega),
                        ShadowedParams.nakagami(m_hat, m_hat * omega_hat))


# Frozen reference values, cross-checked against adaptive quadrature of
# the conditional-Gamma integral representation.
CDF_REFERENCE = [
    ((3, 2, 1.0, 1.0), 2.0, 0.24186338596690837),
    ((2, 1, 0.5, 2.0), 0.7, 0.39684874521135427),
]

MGF_REFERENCE = [
    ((2, 3, 1.0, 0.5), -0.3, 0.5166469743870957),
]

# (m, m_hat, omega, omega_hat)
PARAM_CASES = [
    (1, 1, 1.0, 1.0),
    (2, 1, 0.5, 2.0),
    (3, 2, 1.0, 1.0),
    (2, 3, 1.0, 0.5),
    (5, 8, 0.25, 1.5),
    (12, 3, 2.0, 0.1),
]


def product_pdf_quadrature(p, y):
    """Conditional-Gamma integral: f_Y(y) = int f_A(a) f_B(y/a) / a da."""
    m, m_hat, omega, omega_hat = p
    fa = stats.gamma(m, scale=omega).pdf
    fb = stats.gamma(m_hat, scale=omega_hat).pdf
    val, err = quad(lambda a: fa(a) * fb(y / a) / a, 0, np.inf, limit=300)
    return val


@pytest.mark.parametrize("args,x,expected", CDF_REFERENCE)
def test_cdf_reference_values(args, x, expected):
    assert gamma_product(*args).cdf(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("args,s,expected", MGF_REFERENCE)
def test_mgf_reference_values(args, s, expected):
    assert gamma_product(*args).mgf(s) == pytest.approx(expected, rel=1e-12)


def test_rayleigh_product_closed_form():
    # Unit-exponential product: F(x) = 1 - 2 sqrt(x) K_1(2 sqrt(x)).
    p = gamma_product(1, 1, 1.0, 1.0)
    x = np.array([0.04, 0.25, 1.0, 4.0])
    expected = 1.0 - 2.0 * np.sqrt(x) * special.kv(1, 2.0 * np.sqrt(x))
    np.testing.assert_allclose(p.cdf(x), expected, rtol=1e-12)
    assert p.cdf(1.0) == pytest.approx(1.0 - 2.0 * special.kv(1, 2.0), rel=1e-13)


@pytest.mark.parametrize("p", PARAM_CASES)
def test_pdf_matches_quadrature(p):
    model = gamma_product(*p)
    mean = model.mean_power
    for y in (0.1 * mean, mean, 3.0 * mean):
        assert model.pdf(y) == pytest.approx(product_pdf_quadrature(p, y), rel=1e-8)


@pytest.mark.parametrize("m,m_hat", [(1, 1), (1, 3), (1, 8), (2, 1), (2, 3), (2, 8), (5, 1), (5, 3), (5, 8)])
def test_cdf_matches_pdf_integral(m, m_hat):
    p = gamma_product(m, m_hat, 1.0, 0.7)
    mean = p.mean_power
    xs = np.geomspace(0.01 * mean, 5.0 * mean, 50)
    cum = 0.0
    lo = 0.0
    for x in xs:
        piece, err = quad(p.pdf, lo, x, limit=200)
        cum += piece
        lo = x
        assert abs(p.cdf(x) - cum) < 1e-8


@pytest.mark.parametrize("p", PARAM_CASES)
def test_pdf_shape_symmetry(p):
    m, m_hat, omega, omega_hat = p
    model = gamma_product(m, m_hat, omega, omega_hat)
    swapped = gamma_product(m_hat, m, omega_hat, omega)
    y = np.geomspace(0.05, 10.0, 9)
    np.testing.assert_allclose(model.pdf(y), swapped.pdf(y), rtol=1e-11)
    np.testing.assert_allclose(model.cdf(y), swapped.cdf(y), rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("p", PARAM_CASES)
def test_mgf_matches_laplace_quadrature(p):
    model = gamma_product(*p)
    for s in (-0.1, -1.0, -10.0):
        val, err = quad(
            lambda t: math.exp(s * t) * model.pdf(t), 0, np.inf, limit=300
        )
        assert model.mgf(s) == pytest.approx(val, rel=1e-6)


def test_mgf_symmetry_and_limits():
    p = gamma_product(2, 5, 1.0, 0.3)
    swapped = gamma_product(5, 2, 0.3, 1.0)
    s = np.array([-20.0, -1.0, -1e-3])
    np.testing.assert_allclose(p.mgf(s), swapped.mgf(s), rtol=1e-10)
    # s -> 0-: MGF tends to 1; far negative s: tends to 0.
    assert p.mgf(-1e-12) == pytest.approx(1.0, abs=1e-10)
    assert p.mgf(-1e9) < 1e-8


def test_mgf_rejects_nonnegative_s():
    p = gamma_product(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        p.mgf(0.0)
    with pytest.raises(ValueError):
        p.mgf(0.5)
    with pytest.raises(ValueError):
        p.mgf(np.array([-1.0, 1.0]))


def test_moment_exact_values():
    p = gamma_product(2, 3, 1.0, 1.0)
    assert p.moment(1) == 6.0
    assert p.moment(2) == 72.0  # (2*3) * (3*4)
    q = gamma_product(1, 1, 2.0, 0.5)
    assert q.moment(1) == 1.0
    assert q.moment(3) == 36.0  # (3!)^2 * 1


@pytest.mark.parametrize("p", PARAM_CASES)
def test_moment_matches_quadrature(p):
    model = gamma_product(*p)
    for n in (1, 2, 3):
        val, err = quad(lambda t: t ** n * model.pdf(t), 0, np.inf, limit=300)
        assert model.moment(n) == pytest.approx(val, rel=1e-7)


@pytest.mark.parametrize("m,m_hat", [(1, 1), (3, 250), (17, 40), (64, 5), (120, 199), (250, 250)])
def test_moment_matches_exact_rising_factorials(m, m_hat):
    # E[Y^n] = theta^n (m)_n (m_hat)_n, evaluated in exact rationals on
    # the model's own double scales.
    for omega, omega_hat in ((1.0, 1.0), (0.37, 2.9), (1.0 / m, 1.0 / m_hat)):
        model = gamma_product(m, m_hat, omega, omega_hat)
        theta = Fraction(model.mixture_a.scales[0]) * Fraction(model.mixture_b.scales[0])
        for n in range(1, 5):
            exact = theta ** n * math.prod((m + j) * (m_hat + j) for j in range(n))
            assert abs(Fraction(model.moment(n)) / exact - 1) <= 1e-14


def test_moment_overflow_and_validation():
    p = gamma_product(50, 50, 10.0, 10.0)
    with pytest.raises(OverflowError):
        p.moment(100)
    with pytest.raises(ValueError):
        p.moment(0)
    with pytest.raises(ValueError):
        p.moment(1.5)


def test_domain_validation():
    p = gamma_product(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        p.pdf(0.0)
    with pytest.raises(ValueError):
        p.pdf(-1.0)
    with pytest.raises(ValueError):
        p.cdf(-1e-9)
    assert p.cdf(0.0) == 0.0
    with pytest.raises(ValueError):
        gamma_product(0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_product(1, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_product(1, 1.5, 1.0, 1.0)


def test_weighted_sums_reduce_to_single_term():
    p = gamma_product(3, 4, 0.8, 1.1)
    log_scale = np.array([[math.log(0.8) + math.log(1.1)]])
    x = np.geomspace(0.1, 20.0, 11)
    w, sa, sb = np.array([[1.0]]), np.array([3]), np.array([4])
    pairs = Pairs(sa, sb, [0])
    (pdf,) = weighted_pdf_sum(w, sa, sb, log_scale, np.log(x), pairs)
    np.testing.assert_allclose(pdf, p.pdf(x), rtol=1e-13)
    (raw,) = weighted_cdf_sum(w, sa, sb, log_scale, np.log(x), pairs)
    np.testing.assert_allclose(raw, p.cdf(x), rtol=1e-11, atol=1e-15)


def test_weighted_sums_two_terms_additive():
    # A half/half mixture of two kernels must equal the average of the
    # two single-kernel evaluations.
    x = np.geomspace(0.2, 8.0, 7)
    w = np.array([[0.5, 0.5]])
    sa = np.array([2, 3])
    sb = np.array([1, 5])
    ls = np.array([[0.0, math.log(0.5)]])
    pairs = Pairs(sa, sb, np.arange(2))
    (pdf,) = weighted_pdf_sum(w, sa, sb, ls, np.log(x), pairs)
    p1 = gamma_product(2, 1, 1.0, 1.0)
    p2 = gamma_product(3, 5, 1.0, 0.5)
    np.testing.assert_allclose(pdf, 0.5 * p1.pdf(x) + 0.5 * p2.pdf(x), rtol=1e-12)
    (cdf,) = weighted_cdf_sum(w, sa, sb, ls, np.log(x), pairs)
    np.testing.assert_allclose(cdf, 0.5 * p1.cdf(x) + 0.5 * p2.cdf(x), rtol=1e-11)


def test_large_shape_tail_is_finite_and_monotone():
    # Dominant-order Bessel terms reach order ~ 240 here; the log-domain
    # ladder keeps everything finite.  The 1 - sum form of the cdf
    # carries ~1e-13 absolute cancellation noise from the 240-term
    # signed series, so monotonicity is asserted up to that floor.
    p = gamma_product(120, 120, 1.0 / 120, 1.0 / 120)
    x = np.geomspace(1e-6, 10.0, 40)
    f = p.cdf(x)
    assert np.all(np.isfinite(f))
    assert np.all(np.diff(f) >= -1e-12)
    d = p.pdf(x)
    assert np.all(np.isfinite(d)) and np.all(d >= 0.0)


def test_cdf_rejects_nan_kernel_sum(monkeypatch):
    p = gamma_product(2, 3, 1.0, 1.0)
    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum",
                        lambda *args: np.full((1, np.size(args[4])), np.nan))
    with pytest.raises(ArithmeticError):
        p.cdf([0.1, 1.0])


def test_pdf_rejects_nan_kernel_sum(monkeypatch):
    p = gamma_product(2, 3, 1.0, 1.0)
    monkeypatch.setattr("prodfade.pdist.weighted_pdf_sum",
                        lambda *args: np.full((1, np.size(args[4])), np.nan))
    with pytest.raises(ArithmeticError):
        p.pdf([0.1, 1.0])


def _pair_by_pair(model, z):
    """Unmerged kernel sums, pair by pair, from ``scipy.special.kve``.

    Returns the cdf, the pdf and the sum of the pdf terms' magnitudes,
    the scale of the pdf's cancellation error.
    """
    cdf_sum = np.zeros_like(z)
    pdf = np.zeros_like(z)
    pdf_abs = np.zeros_like(z)
    pairs = model._plan.pairs
    for w, ka, kb, lth in zip(model._w[0], pairs.shapes_a, pairs.shapes_b,
                              model._lth[0].take(pairs.theta)):
        u = z / math.exp(lth)
        arg = 2.0 * np.sqrt(u)
        for k in range(ka):
            cdf_sum += w * np.exp(math.log(2.0) - special.gammaln(k + 1.0) - special.gammaln(kb)
                                  + 0.5 * (k + kb) * np.log(u)
                                  + np.log(special.kve(abs(int(kb) - k), arg)) - arg)
        term = w * np.exp(math.log(2.0) - special.gammaln(ka) - special.gammaln(kb)
                          + (0.5 * (ka + kb) - 1.0) * np.log(u) - lth
                          + np.log(special.kve(abs(int(ka) - int(kb)), arg)) - arg)
        pdf += term
        pdf_abs += np.abs(term)
    return 1.0 - cdf_sum, pdf, pdf_abs


def test_merged_rows_match_pair_by_pair_sum():
    # Four distinct scale products, and rows of equal kernels merged
    # into one: the sums must still be the plain pair-by-pair sums.
    signed = ShadowedParams(1.0, 1.0, 6, 2)
    model = ProductModel(signed, ShadowedParams(1.0, 0.5, 4, 1))
    assert np.unique(model._lth).size == 4
    z = np.geomspace(1e-6, 20.0, 60)
    cdf, pdf, pdf_abs = _pair_by_pair(model, z)
    pairs = model._plan.pairs
    (raw,) = weighted_cdf_sum(model._w, pairs.shapes_a, pairs.shapes_b, model._lth, np.log(z),
                              pairs)
    np.testing.assert_allclose(raw, cdf, rtol=0, atol=5e-14)
    (got,) = weighted_pdf_sum(model._w, pairs.shapes_a, pairs.shapes_b, model._lth, np.log(z),
                              pairs)
    assert np.all(np.abs(got - pdf) <= 3e-14 * pdf_abs)


@pytest.mark.parametrize("budget", [1, 40, 300])
def test_chunked_sums_match_whole_grid(monkeypatch, budget):
    # A block budget below rows * points, or below the kept ladder rungs
    # per point, splits the grid into blocks.  The sums agree with the
    # whole-grid ones to rounding: einsum's accumulation differs in the
    # last bits between a block's SIMD lanes and its tail.
    model = ProductModel(ShadowedParams(1.0, 1.0, 6, 2), ShadowedParams(1.0, 0.5, 4, 1))
    z = np.geomspace(1e-6, 20.0, 61)
    cdf, pdf = model.cdf(z), model.pdf(z)
    pdf_abs = _pair_by_pair(model, z)[2]
    monkeypatch.setattr("prodfade.gammagamma._BLOCK_BUDGET", budget)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(model.cdf(z), cdf, rtol=0, atol=8 * eps * model.abs_weight_sum)
    assert np.all(np.abs(model.pdf(z) - pdf) <= 8 * eps * pdf_abs)


@pytest.mark.parametrize("budget", [1, 401, 5000])
def test_chunked_mgf_matches_whole_grid(monkeypatch, budget):
    # A U budget below nodes * cells splits the exp-sinh sums into chunks
    # of cells, down to one cell per chunk at budget 1.  Each cell's node
    # sum is one contiguous reduction, so its bits do not depend on the
    # chunk: the bound is zero.  A block budget below rows * points
    # splits the grid as for the cdf, and the long double row sums then
    # differ from the whole grid's by less than the cdf's bound.
    model = ProductModel(ShadowedParams(1.0, 1.0, 6, 2), ShadowedParams(1.0, 0.5, 4, 1))
    s = -np.geomspace(1e-3, 1e3, 61)
    whole = model.mgf(s)
    monkeypatch.setattr("prodfade.specfun._U_BLOCK_BUDGET", budget)
    assert np.array_equal(model.mgf(s), whole)
    monkeypatch.setattr("prodfade.gammagamma._BLOCK_BUDGET", budget)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(model.mgf(s), whole, rtol=0, atol=8 * eps * model.abs_weight_sum)


@pytest.mark.parametrize("mu,m,kappa", [(6, 1, 0.1), (3, 2, 0.1)])
def test_merged_cdf_rows_match_mpmath(mu, m, kappa):
    # Signed sweep cells with large cancellation (abs_weight_sum up to
    # ~5e4): the merged cdf stays within the conditioning bound of a
    # 40-digit pair sum over the same float weights.
    import mpmath

    link = ShadowedParams(1.0, kappa, mu, m)
    model = ProductModel(link, link)
    z = np.geomspace(1e-4, 10.0, 8)
    pairs = model._plan.pairs
    (raw,) = weighted_cdf_sum(model._w, pairs.shapes_a, pairs.shapes_b, model._lth, np.log(z),
                              pairs)
    tol = 1e-15 * model.abs_weight_sum + 2e-14
    with mpmath.workdps(40):
        for zi, got in zip(z, raw):
            bessel = {}     # (ln theta, order) -> u, K_order(2 sqrt(u))
            total = mpmath.mpf(0)
            for w, ka, kb, lth in zip(model._w[0], pairs.shapes_a, pairs.shapes_b,
                                      model._lth[0].take(pairs.theta)):
                for k in range(int(ka)):
                    key = (float(lth), abs(int(kb) - k))
                    if key not in bessel:
                        u = mpmath.mpf(float(zi)) / mpmath.exp(mpmath.mpf(key[0]))
                        bessel[key] = u, mpmath.besselk(key[1], 2 * mpmath.sqrt(u))
                    u, bk = bessel[key]
                    total += (mpmath.mpf(float(w)) * 2 * u ** (mpmath.mpf(k + int(kb)) / 2) * bk
                              / (mpmath.factorial(k) * mpmath.factorial(int(kb) - 1)))
            assert abs(got - float(1 - total)) <= tol


@pytest.mark.parametrize("budget", [None, 1, 300])
def test_batched_sets_give_the_bits_of_single_calls(monkeypatch, budget):
    # Parameter sets of one layout, weighed together on their cell's plan
    # and summed by one batched call: each row is the single call's
    # result, bit for bit, whole-grid or chunked; and the cdf fit's rows
    # are the models' own cdf values.
    from prodfade.pdist import _cdf_rows_at, _cell_plan

    if budget is not None:
        monkeypatch.setattr("prodfade.gammagamma._BLOCK_BUDGET", budget)
    plan = _cell_plan((6, 2, 4, 1), 0)     # the key of no collapse and no tie
    means_a, kappas_a = np.array([1.0, 2.5, 0.3, 1.0]), np.array([1.0, 0.2, 7.0, 3.0])
    means_b, kappas_b = np.ones(4), np.array([0.5, 2.0, 0.05, 30.0])
    w, lth, refusals = plan.weigh(np.array((means_a, means_b)), np.array((kappas_a, kappas_b)))
    assert refusals == [None] * 4
    z = np.geomspace(1e-5, 30.0, 37)
    for engine in (weighted_cdf_sum, weighted_pdf_sum):
        pairs = plan.pairs
        batch = engine(w, pairs.shapes_a, pairs.shapes_b, lth, np.log(z), pairs)
        for i in range(4):
            (alone,) = engine(w[i:i + 1], pairs.shapes_a, pairs.shapes_b, lth[i:i + 1], np.log(z),
                              pairs)
            assert np.array_equal(batch[i], alone)
    rows, ok = _cdf_rows_at(z)((6, 2, 4, 1), np.array((means_a, kappas_a, means_b, kappas_b)))
    assert ok.all()
    for i in range(4):
        model = ProductModel(ShadowedParams(means_a[i], kappas_a[i], 6, 2),
                             ShadowedParams(1.0, kappas_b[i], 4, 1))
        assert np.array_equal(rows[i], model.cdf(z))


@pytest.mark.parametrize("budget", [None, 1])
def test_batched_mgf_sets_give_the_bits_of_single_calls(monkeypatch, budget):
    # Two parameter sets of one layout in one transform call, whole-grid
    # or one point and one set per block: each row is the one-set call's
    # result, bit for bit, and the model's mgf.
    from prodfade.pdist import _cell_plan
    from prodfade.specfun import tricomi_u_times_xa

    if budget is not None:
        monkeypatch.setattr("prodfade.gammagamma._BLOCK_BUDGET", budget)
    plan = _cell_plan((6, 2, 4, 1), 0)
    kappas_a, kappas_b = np.array([1.0, 3.0]), np.array([0.5, 2.0])
    w, lth, refusals = plan.weigh(np.ones((2, 2)), np.array((kappas_a, kappas_b)))
    assert refusals == [None, None]
    s = -np.geomspace(1e-3, 1e3, 9)
    pairs = plan.pairs
    batch = weighted_mgf_sum(w, pairs.shapes_a, pairs.shapes_b, lth, s, tricomi_u_times_xa,
                             pairs)
    assert batch.shape == (2, s.size)
    for i in range(2):
        (alone,) = weighted_mgf_sum(w[i:i + 1], pairs.shapes_a, pairs.shapes_b, lth[i:i + 1], s,
                                    tricomi_u_times_xa, pairs)
        assert np.array_equal(batch[i], alone)
        model = ProductModel(ShadowedParams(1.0, kappas_a[i], 6, 2),
                             ShadowedParams(1.0, kappas_b[i], 4, 1))
        assert np.array_equal(batch[i], model.mgf(s))


def test_tied_sets_share_a_theta_and_give_their_models_bits():
    # Sets whose two mu > m links are equal take the tied plan, on which
    # unit x boosted and boosted x unit are one theta, as their models
    # do; the other sets of the same call keep four.  Each row is its
    # model's cdf, bit for bit, and the shared plan is read-only.
    from prodfade.pdist import _cdf_rows_at, _cell_plan

    means_a, kappas_a = np.array([1.0, 1.0, 2.0, 1.0]), np.array([1.0, 1.0, 0.3, 0.0])
    means_b, kappas_b = np.array([1.0, 1.0, 2.0, 1.0]), np.array([1.0, 0.5, 0.3, 0.0])
    z = np.geomspace(1e-5, 30.0, 37)
    rows, ok = _cdf_rows_at(z)((6, 2, 6, 2), np.array((means_a, kappas_a, means_b, kappas_b)))
    assert ok.all()
    thetas = []
    for i in range(4):
        model = ProductModel(ShadowedParams(means_a[i], kappas_a[i], 6, 2),
                             ShadowedParams(means_b[i], kappas_b[i], 6, 2))
        thetas.append(model._lth.shape[1])
        assert np.array_equal(rows[i], model.cdf(z))
    assert thetas == [3, 4, 3, 1]
    plan = _cell_plan((6, 2, 6, 2), 4)     # the tied key
    for arr in (plan.ia, plan.pairs.shapes_a, plan._tb, plan.pairs.theta, plan.log_gain(1)):
        assert not arr.flags.writeable


def test_mixed_batch_gives_each_set_its_models_bits():
    # One batch on a mu > m cell: a plain set, a collapsed one (kappa 0),
    # a tied one (two equal links) and two its checks refuse, on the
    # plain set's plan: mean power -1, and a product mean that overflows
    # (1e200 x 1e200, refused without a warning).  Each set's row is
    # its model's cdf, bit for bit, and only the refused sets are not
    # ok, their rows all 0.0.  The plain and refused sets alone make a
    # one-plan batch, which gives them the same rows.
    from prodfade.pdist import _cdf_rows_at

    sets = np.array(([1.0, 1.0, 2.0, -1.0, 1e200], [1.0, 0.0, 0.3, 1.0, 1.0],
                     [1.0, 1.0, 2.0, 1.0, 1e200], [0.5, 2.0, 0.3, 0.5, 0.5]))
    means_a, kappas_a, means_b, kappas_b = sets
    z = np.geomspace(1e-5, 30.0, 37)
    rows_at = _cdf_rows_at(z)
    rows, ok = rows_at((6, 2, 6, 2), sets)
    assert ok.tolist() == [True, True, True, False, False]
    for i in range(3):
        model = ProductModel(ShadowedParams(means_a[i], kappas_a[i], 6, 2),
                             ShadowedParams(means_b[i], kappas_b[i], 6, 2))
        assert np.array_equal(rows[i], model.cdf(z))
    with pytest.raises(ValueError):
        ShadowedParams(means_a[3], kappas_a[3], 6, 2)
    with pytest.raises(OverflowError):
        ProductModel(ShadowedParams(means_a[4], kappas_a[4], 6, 2),
                     ShadowedParams(means_b[4], kappas_b[4], 6, 2))
    assert np.array_equal(rows[3:], np.zeros((2, z.size)))
    pick = [0, 3, 4]
    alone, alone_ok = rows_at((6, 2, 6, 2), sets[:, pick])
    assert alone_ok.tolist() == [True, False, False]
    assert np.array_equal(alone, rows[pick])

import itertools
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
    plan = _cell_plan((6, 2), (4, 1), False)     # no collapse and no tie
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
    plan = _cell_plan((6, 2), (4, 1), False)
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
    plan = _cell_plan((6, 2), (6, 2), True)     # the tied plan
    for arr in (plan.ia, plan.pairs.shapes_a, plan._tb, plan.pairs.theta, plan.log_gain(1)):
        assert not arr.flags.writeable


# Link a's means and kappas, then link b's, of five sets on the cell
# (6, 2, 6, 2): a plain set, a collapsed one (kappa 0), a tied one (two
# equal links) and two that the plain set's plan refuses.
MIXED_SETS = np.array(([1.0, 1.0, 2.0, -1.0, 1e200], [1.0, 0.0, 0.3, 1.0, 1.0],
                       [1.0, 1.0, 2.0, 1.0, 1e200], [0.5, 2.0, 0.3, 0.5, 0.5]))
MIXED_SETS.setflags(write=False)


def test_mixed_batch_gives_each_set_its_models_bits():
    # One batch on a mu > m cell: a plain set, a collapsed one (kappa 0),
    # a tied one (two equal links) and two its checks refuse, on the
    # plain set's plan: mean power -1, and a product mean that overflows
    # (1e200 x 1e200, refused without a warning).  Each set's row is
    # its model's cdf, byte for byte (so a signed zero counts), and only
    # the refused sets are not ok, their rows all +0.0.  The plain and
    # refused sets alone make a one-plan batch, which gives them the
    # same rows.  Weighed together, each plan's group on its plan, every
    # set gets the refusal, class and message, that it gets weighed alone.
    from prodfade.pdist import _cdf_rows_at, _cell_plan, _plan_key

    sets = MIXED_SETS
    means_a, kappas_a, means_b, kappas_b = sets
    z = np.geomspace(1e-5, 30.0, 37)
    rows_at = _cdf_rows_at(z)
    rows, ok = rows_at((6, 2, 6, 2), sets)
    assert ok.tolist() == [True, True, True, False, False]
    for i in range(3):
        model = ProductModel(ShadowedParams(means_a[i], kappas_a[i], 6, 2),
                             ShadowedParams(means_b[i], kappas_b[i], 6, 2))
        assert rows[i].tobytes() == model.cdf(z).tobytes()
    with pytest.raises(ValueError):
        ShadowedParams(means_a[3], kappas_a[3], 6, 2)
    with pytest.raises(OverflowError):
        ProductModel(ShadowedParams(means_a[4], kappas_a[4], 6, 2),
                     ShadowedParams(means_b[4], kappas_b[4], 6, 2))
    assert rows[3:].tobytes() == np.zeros((2, z.size)).tobytes()
    pick = [0, 3, 4]
    alone, alone_ok = rows_at((6, 2, 6, 2), sets[:, pick])
    assert alone_ok.tolist() == [True, False, False]
    assert alone.tobytes() == rows[pick].tobytes()
    keys = [_plan_key((6, 2, 6, 2), *column) for column in sets.T.tolist()]
    plain = ((6, 2), (6, 2), False)
    collapsed, tied = ((6, 6), (6, 2), False), ((6, 2), (6, 2), True)
    assert keys == [plain, collapsed, tied, plain, plain]
    refused = []
    for key in set(keys):
        group = [i for i, k in enumerate(keys) if k == key]
        plan = _cell_plan(*key)
        _, _, together = plan.weigh(sets[0:4:2, group], sets[1:4:2, group])
        for i, refusal in zip(group, together):
            (single,) = plan.weigh(sets[0:4:2, i:i + 1], sets[1:4:2, i:i + 1])[2]
            assert type(refusal) is type(single) and str(refusal) == str(single), i
            refused += [i] if refusal is not None else []
    assert sorted(refused) == [3, 4]


def test_a_mixed_round_does_not_depend_on_its_order():
    # A mixed round splits into plan groups, visited as their plans first
    # appear: every permutation of the mixed batch's five sets (plain,
    # collapsed, tied and two refused, three plans), which visits the
    # groups in every order, permutes its rows and ok, byte for byte.
    from prodfade.pdist import _cdf_rows_at

    rows_at = _cdf_rows_at(np.geomspace(1e-5, 30.0, 37))
    rows, ok = rows_at((6, 2, 6, 2), MIXED_SETS)
    assert ok.tolist() == [True, True, True, False, False]
    for order in itertools.permutations(range(5)):
        order = list(order)
        moved, moved_ok = rows_at((6, 2, 6, 2), MIXED_SETS[:, order])
        assert moved.tobytes() == rows[order].tobytes(), order
        assert moved_ok.tolist() == ok[order].tolist(), order


def test_a_set_weighed_on_another_forms_plan_is_refused():
    # Kappa 0 weighed on the uncollapsed plan of a mu > m link: dom 0
    # gives its dom ** -k terms infinities of both signs, whose weight sum
    # is NaN, so the set is refused with the weight-sum ValueError, as the
    # same set at kappa 1e-13 is, and nothing raises.
    from prodfade.pdist import _cell_plan

    plan = _cell_plan((6, 2), (6, 2), False)
    _, _, refusals = plan.weigh(np.ones((2, 2)), np.array([[0.0, 1e-13], [2.0, 2.0]]))
    for refusal in refusals:
        assert type(refusal) is ValueError
        assert str(refusal).startswith("mixture weights must sum to 1 within")


def test_one_plan_round_gives_each_set_its_models_bytes():
    # A fit round's usual batch: one plan key, every set passes its
    # checks and lies in range.  The evaluator returns the engine's rows
    # as they are, and each is its model's cdf, byte for byte, as a
    # one-set batch gives it too.
    from prodfade.pdist import _cdf_rows_at, _plan_key

    cell = (1, 2, 2, 1)
    sets = np.array(([1.0, 0.7, 1.3], [0.2, 1.5, 6.0], [1.0, 1.0, 1.0], [0.4, 3.0, 12.0]))
    assert {_plan_key(cell, *column) for column in sets.T.tolist()} == {
        ((1, 2), (2, 1), False)}
    z = np.geomspace(1e-4, 30.0, 41)
    rows_at = _cdf_rows_at(z)
    rows, ok = rows_at(cell, sets)
    assert ok.tolist() == [True] * 3
    for i in range(3):
        model = ProductModel(ShadowedParams(sets[0, i], sets[1, i], 1, 2),
                             ShadowedParams(sets[2, i], sets[3, i], 2, 1))
        assert rows[i].tobytes() == model.cdf(z).tobytes()
        alone, alone_ok = rows_at(cell, sets[:, i:i + 1])
        assert alone_ok.tolist() == [True] and alone.tobytes() == rows[i].tobytes()


@pytest.fixture
def ladder_calls(monkeypatch):
    """The engine with its kept climb cleared, and ``[max_order, ...]`` of
    every ladder climb made in the test; ``ladder_calls.clear_climb()``
    clears the kept climb again."""
    from prodfade import gammagamma

    class Record(list):
        def clear_climb(self):
            monkeypatch.setattr(gammagamma, "_last_climb",
                                (np.empty((0, 0, 0)), np.empty((0, 0, 0, 0))))

    record = Record()
    ladder = gammagamma.log_bessel_k_ladder

    def recording(log_half, max_order):
        record.append(max_order)
        return ladder(log_half, max_order)

    monkeypatch.setattr(gammagamma, "log_bessel_k_ladder", recording)
    record.clear_climb()
    return record


ENGINE_MODEL = ((1.0, 2.6, 1, 4), (1.0, 2.6, 1, 4))
ENGINE_Z = np.geomspace(1e-7, 20.0, 200)


def test_a_pdf_after_its_cdf_on_one_grid_climbs_no_ladder(ladder_calls):
    # The cdf of a model climbs to order 4 and its pdf needs order 3 on the
    # same arguments: the pdf takes the cdf's rungs and calls no ladder,
    # with the bytes of a pdf whose engine kept no climb.
    model = ProductModel(*(ShadowedParams(*p) for p in ENGINE_MODEL))
    cdf = model.cdf(ENGINE_Z)
    pdf = model.pdf(ENGINE_Z)
    assert ladder_calls == [4]
    ladder_calls.clear_climb()
    fresh = model.pdf(ENGINE_Z)
    assert ladder_calls == [4, 3]
    assert pdf.tobytes() == fresh.tobytes()
    ladder_calls.clear_climb()
    assert model.cdf(ENGINE_Z).tobytes() == cdf.tobytes()


@pytest.mark.parametrize("changed", [-1, 97])
def test_a_grid_that_differs_in_one_point_misses_the_kept_climb(ladder_calls, changed):
    # A grid of the kept climb's shape that differs from its grid in the
    # last point, or in one interior point only, climbs afresh and gets
    # the bytes of an engine that kept no climb: the lookup compares every
    # argument, not only the first.
    model = ProductModel(*(ShadowedParams(*p) for p in ENGINE_MODEL))
    z = ENGINE_Z.copy()
    z[changed] *= 1.25
    model.cdf(ENGINE_Z)
    moved = model.pdf(z)
    assert ladder_calls == [4, 3]
    ladder_calls.clear_climb()
    assert moved.tobytes() == model.pdf(z).tobytes()


def test_the_same_arguments_in_another_layout_miss_the_kept_climb(ladder_calls):
    # One set of two thetas, then two sets of one theta each, at the same
    # log scale products and points: the same flattened arguments in
    # another (sets x theta) layout, which climbs afresh, with the bytes
    # of an engine that kept no climb.
    log_x, log_thetas = np.log(np.geomspace(1e-3, 30.0, 23)), np.array([[0.3, -1.2]])
    two = Pairs([2, 2], [3, 3], [0, 1])
    one = Pairs([2], [3], [0])
    weighted_cdf_sum(np.array([[0.4, 0.6]]), two.shapes_a, two.shapes_b, log_thetas, log_x, two)
    rows = weighted_cdf_sum(np.ones((2, 1)), one.shapes_a, one.shapes_b, log_thetas.T, log_x,
                            one)
    assert ladder_calls == [3, 3]
    ladder_calls.clear_climb()
    fresh = weighted_cdf_sum(np.ones((2, 1)), one.shapes_a, one.shapes_b, log_thetas.T, log_x,
                             one)
    assert rows.tobytes() == fresh.tobytes()


def test_a_hit_that_needs_a_higher_order_climbs(ladder_calls):
    # The same arguments, then rows of a higher Bessel order: the second
    # call climbs to its own order, and a third call of the first order
    # takes that climb's lower rungs, with the bytes of its own climb.
    log_x, log_thetas = np.log(np.geomspace(1e-3, 30.0, 23)), np.array([[0.3]])
    low, high = Pairs([1], [2], [0]), Pairs([1], [6], [0])
    rows = {}
    for pairs in (low, high, low):
        rows[pairs] = weighted_cdf_sum(np.ones((1, 1)), pairs.shapes_a, pairs.shapes_b,
                                       log_thetas, log_x, pairs)
    assert ladder_calls == [2, 6]
    ladder_calls.clear_climb()
    fresh = weighted_cdf_sum(np.ones((1, 1)), low.shapes_a, low.shapes_b, log_thetas, log_x, low)
    assert ladder_calls == [2, 6, 2]
    assert rows[low].tobytes() == fresh.tobytes()


def test_a_hit_past_a_lowered_order_bound_still_raises(ladder_calls, monkeypatch):
    # The order is checked before the kept climb is looked up: with
    # MAX_BESSEL_ORDER lowered below the model's orders, the pdf that the
    # cdf's climb would serve raises, as the same pdf with no kept climb.
    from prodfade import specfun

    model = ProductModel(*(ShadowedParams(*p) for p in ENGINE_MODEL))
    model.cdf(ENGINE_Z)
    monkeypatch.setattr(specfun, "MAX_BESSEL_ORDER", 2)
    with pytest.raises(ValueError, match="Bessel order"):
        model.pdf(ENGINE_Z)
    assert ladder_calls == [4]


def test_writing_into_returned_rows_changes_no_later_call(ladder_calls):
    # The kernel rows are new arrays: writing into them leaves the kept
    # arguments and rungs as they were, and the next call, which takes
    # the kept climb, gives the first call's bytes.
    from prodfade.gammagamma import _bessel_rows

    pairs = Pairs([2, 3], [4, 1], [0, 1])
    log_x, log_thetas = np.log(np.geomspace(1e-3, 30.0, 23)), np.array([[0.3, -1.2]])
    rows = _bessel_rows(pairs.cdf, log_thetas, log_x)
    kept = rows.tobytes()
    rows[...] = np.nan
    again = _bessel_rows(pairs.cdf, log_thetas, log_x)
    assert len(ladder_calls) == 1
    assert again.tobytes() == kept

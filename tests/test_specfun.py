import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from prodfade import specfun
from prodfade.specfun import (
    MAX_BESSEL_ORDER,
    ln_gamma_int,
    ln_gamma_ints,
    log_bessel_k_ladder,
    tricomi_u_times_xa,
)

# Reference values computed with mpmath at 30 significant digits.
BESSEL_K_REFERENCE = [
    (0, 1.0, 0.42102443824070833),
    (0, 2.0, 0.11389387274953344),
    (1, 2.0, 0.13986588181652243),
    (5, 5.0, 0.032706273712031858),
]

LOG_BESSEL_K_REFERENCE = [
    (30, 0.5, 112.15056753072445),
    (120, 3.7, 378.48071536670149),
    (256, 1e-3, 3106.8499835796334),
]

TRICOMI_U_REFERENCE = [
    (1, 1, 1.0, 0.59634736232319407),
    (2, 1, 0.5, 0.3843659487255957),
    (3, -2, 4.0, 0.0013948286719351158),
    (2, 0, 1.5, 0.073326243109594746),
]


def log_bessel_k(n, x):
    """``ln K_n(x)``: the last rung of a ladder climbed to order ``n`` from ``ln(x/2)``."""
    x = np.asarray(x, dtype=float)
    for _, lk in log_bessel_k_ladder(np.log(0.5 * np.atleast_1d(x)), n):
        pass
    return float(lk[0]) if x.ndim == 0 else lk.copy()


def tricomi_u(a, b, x):
    """``U(a, b, x)`` from the balanced ``x^a U`` kernel."""
    return tricomi_u_times_xa(a, b, x) / np.asarray(x, dtype=float) ** a


def mpmath_u_times_xa(a, b, x):
    with mpmath.workdps(30):
        return float(mpmath.mpf(x) ** a * mpmath.hyperu(a, b, x))


@pytest.mark.parametrize("n,x,expected", BESSEL_K_REFERENCE)
def test_bessel_k_int_reference_values(n, x, expected):
    assert math.exp(log_bessel_k(n, x)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n,x,expected", LOG_BESSEL_K_REFERENCE)
def test_log_bessel_k_high_order(n, x, expected):
    assert log_bessel_k(n, x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 15, 40])
def test_log_bessel_k_matches_library_orders(n):
    # scipy.special.kn computes each order directly and independently
    # of the log-domain recurrence used here.
    x = np.geomspace(0.05, 60.0, 25)
    expected = special.kn(n, x)
    got = np.exp(log_bessel_k(n, x))
    mask = np.isfinite(expected) & (expected > 0) & (expected < 1e300)
    assert mask.any()
    np.testing.assert_allclose(got[mask], expected[mask], rtol=5e-11)


def test_log_bessel_k_large_argument_no_underflow():
    # K_n(x) ~ sqrt(pi/2x) e^-x underflows past x ~ 745; the log form
    # must keep going.
    lk = log_bessel_k(3, 2000.0)
    expected = np.log(special.kve(3, 2000.0)) - 2000.0
    assert lk == pytest.approx(expected, rel=1e-13)


def test_ladder_yields_every_order_consistently():
    x = np.array([0.3, 1.0, 4.0, 25.0])
    seen = {}
    for n, lk in log_bessel_k_ladder(np.log(0.5 * x), 12):
        seen[n] = lk.copy()
    assert sorted(seen) == list(range(13))
    # harvesting rung n from a longer climb is exact: it equals the top
    # rung of a climb that stops at n
    for n in range(13):
        np.testing.assert_array_equal(seen[n], log_bessel_k(n, x))


def test_ladder_rejects_bad_order_and_argument():
    with pytest.raises(ValueError):
        list(log_bessel_k_ladder(1.0, MAX_BESSEL_ORDER + 1))
    with pytest.raises(ValueError):
        list(log_bessel_k_ladder(1.0, -1))
    with pytest.raises(ValueError):
        list(log_bessel_k_ladder(1.0, 2.5))
    # the argument is ln(x/2): any float but NaN and -inf (x = 0)
    with pytest.raises(ValueError):
        list(log_bessel_k_ladder(np.array([1.0, -math.inf]), 2))
    with pytest.raises(ValueError):
        list(log_bessel_k_ladder(np.array([math.nan]), 2))


def test_bessel_k_scaled_matches_library():
    x = np.geomspace(0.1, 700.0, 12)
    np.testing.assert_allclose(np.exp(log_bessel_k(2, x) + x), special.kve(2, x), rtol=5e-12)


@pytest.mark.parametrize("a,b,x,expected", TRICOMI_U_REFERENCE)
def test_tricomi_u_reference_values(a, b, x, expected):
    assert tricomi_u(a, b, x) == pytest.approx(expected, rel=1e-12)


def test_tricomi_u_b_equals_a_plus_one_closed_form():
    # U(a, a+1, x) = x^-a exactly, so x^a U is one for every x.
    x = np.geomspace(1e-8, 1e8, 9)
    np.testing.assert_allclose(tricomi_u_times_xa(4, 5, x), 1.0, rtol=1e-15)


def test_tricomi_u_integral_representation():
    # U(a, b, x) = (1/Gamma(a)) int_0^inf e^{-x t} t^{a-1} (1+t)^{b-a-1} dt
    a, b, x = 3, 2, 1.7
    val, err = quad(
        lambda t: np.exp(-x * t) * t ** (a - 1) * (1 + t) ** (b - a - 1),
        0, np.inf,
    )
    expected = val / special.gamma(a)
    assert tricomi_u(a, b, x) == pytest.approx(expected, rel=1e-9)


def test_tricomi_u_rejects_bad_parameters():
    with pytest.raises(ValueError):
        tricomi_u_times_xa(0, 1, 1.0)
    with pytest.raises(ValueError):
        tricomi_u_times_xa(1.5, 1, 1.0)
    with pytest.raises(ValueError):
        tricomi_u_times_xa(2, 1.5, 1.0)
    with pytest.raises(ValueError):
        tricomi_u_times_xa(2, 1, -1.0)
    with pytest.raises(ValueError):
        tricomi_u_times_xa(2, 1, 0.0)


def test_tricomi_u_times_xa_moderate_arguments():
    # Where both factors are representable the balanced product must
    # agree with mpmath's U times x^a.
    for a, b, x in [(1, 1, 0.3), (2, 1, 0.5), (3, -2, 4.0), (2, 0, 1.5)]:
        expected = mpmath_u_times_xa(a, b, x)
        assert tricomi_u_times_xa(a, b, x) == pytest.approx(expected, rel=1e-12)


def test_tricomi_u_times_xa_huge_argument_limit():
    # x^a U(a, b, x) -> 1 as x -> inf; naive evaluation underflows U.
    assert tricomi_u_times_xa(2, 1, 1e160) == pytest.approx(1.0, rel=1e-12)
    assert tricomi_u_times_xa(5, 2, 1e120) == pytest.approx(1.0, rel=1e-12)
    out = tricomi_u_times_xa(2, 1, np.array([0.5, 1e160]))
    assert out[1] == pytest.approx(1.0, rel=1e-12)
    assert out[0] == pytest.approx(mpmath_u_times_xa(2, 1, 0.5), rel=1e-12)


def test_u_series_reference_values():
    # mpmath: 50^2 U(2,1,50) and 60^3 U(3,2,60).
    np.testing.assert_allclose(tricomi_u_times_xa(2, 1, 50.0), 0.92651608964597158, rtol=1e-13)
    np.testing.assert_allclose(tricomi_u_times_xa(3, 2, 60.0), 0.90901092045668407, rtol=1e-13)


@pytest.mark.parametrize("a", [1, 3, 9, 21, 30, 100, 150])
def test_tricomi_u_times_xa_grid_against_mpmath(a):
    # The module's 1e-13 contract across the first parameters the
    # transforms generate and second parameters on both sides of 1
    # (b <= 0 through the Kummer reflection), with no intermediate
    # overflow.  At b = 1 the integrand is flat in ln u from ln x to
    # ln a, a stretch of 690 at x = 1e-300 that only the refined node
    # tables resolve.
    x = np.array([1e-300, 1e-100, 1e-30, 1e-10, 1e-6, 1e-3, 0.1, 0.25, 0.3,
                  1.0, 7.0, 100.0, 1e5, 1e12, 1e160])
    for b in sorted({a, a - 1, 1, 2, 0, 2 - a}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tricomi_u_times_xa(a, b, x)
        expected = np.array([mpmath_u_times_xa(a, b, xi) for xi in x])
        keep = expected >= 1e-300
        np.testing.assert_allclose(got[keep], expected[keep], rtol=1e-13, err_msg="b=%d" % b)


def test_tricomi_u_times_xa_limit_at_overflowing_argument():
    # The peak centre must not overflow at x near the double maximum,
    # and x = inf takes the limit x^a U -> 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tricomi_u_times_xa(2, 1, [1e308, np.inf])
        assert out[0] == pytest.approx(1.0, rel=1e-15) and out[1] == 1.0
        assert tricomi_u_times_xa(3, -2, np.inf) == 1.0
        assert tricomi_u_times_xa(5, 2, 1.7e308) == pytest.approx(1.0, rel=1e-15)


def test_row_batched_u_equals_per_row_scalar_u():
    # Rows of every (a, b) the transforms generate and more, with points
    # that take the exact b = a + 1 form, refined tables (b = 1 at tiny x)
    # and the limit at inf: a batched call gives each cell the bits of
    # a call for that row alone.
    rows = [(a, b) for a in range(1, 31) for b in range(2 - a, a + 2)]
    a, b = (np.array(col) for col in zip(*rows))
    x = np.concatenate([np.geomspace(1e-300, 1e160, 23), [np.inf]])
    batched = tricomi_u_times_xa(a, b, x)
    assert batched.shape == (len(rows), x.size) and batched.dtype == np.longdouble
    assert np.array_equal(batched, [tricomi_u_times_xa(ai, bi, x) for ai, bi in rows])
    assert np.array_equal(batched[:, 5], [tricomi_u_times_xa(ai, bi, x[5]) for ai, bi in rows])
    assert tricomi_u_times_xa(a, b, 0.5).shape == (len(rows),)
    assert tricomi_u_times_xa(a[:0], b[:0], x).shape == (0, x.size)
    with pytest.raises(ValueError):
        tricomi_u_times_xa(a, b[:-1], x)
    with pytest.raises(ValueError):
        tricomi_u_times_xa(np.array([1, 0]), np.array([1, 1]), x)


def test_u_grid_per_row_gives_each_row_the_bits_of_its_own_call():
    # A (rows x points) grid, each row its own points (exact b = a + 1
    # cells, refined tables at tiny x, the limit at inf among them): row
    # r is the bits of a one-row call at its points.  A shared grid is
    # that grid broadcast, and a grid of another row count is refused.
    rows = [(a, b) for a in range(1, 31) for b in range(2 - a, a + 2)]
    a, b = (np.array(col) for col in zip(*rows))
    base = np.concatenate([np.geomspace(1e-300, 1e160, 23), [np.inf]])
    x = base * np.geomspace(0.5, 2.0, len(rows))[:, None]
    assert tricomi_u_times_xa(a[:2], b[:2], x[:2]).shape == (2, base.size)
    batched = tricomi_u_times_xa(a, b, x)
    assert batched.shape == x.shape and batched.dtype == np.longdouble
    assert np.array_equal(batched, [tricomi_u_times_xa(ai, bi, xi)
                                    for ai, bi, xi in zip(a, b, x)])
    shared = np.broadcast_to(base, x.shape)
    assert np.array_equal(tricomi_u_times_xa(a, b, shared), tricomi_u_times_xa(a, b, base))
    assert tricomi_u_times_xa(a[:0], b[:0], x[:0]).shape == (0, base.size)
    with pytest.raises(ValueError):
        tricomi_u_times_xa(a, b, x[:-1])
    with pytest.raises(ValueError):
        tricomi_u_times_xa(a[0], b[0], x)


U_WINDOW_ROWS = [(a, b) for a in (1, 9, 100, 150) for b in sorted({1, 2, a + 2, 40})]
U_WINDOW_X = np.geomspace(1e-8, 1e8, 33)


def _spy_windows(monkeypatch, whole=False):
    """Record each call's cell windows; with ``whole``, make every cell
    sum its whole table, the rule before the windows."""
    seen = []
    windows = specfun._u_windows

    def spy(peaks, refine, buf):
        lo, hi = windows(peaks, refine, buf)
        size = specfun._exp_sinh_table(refine)[0].size
        if whole:
            lo, hi = np.zeros_like(lo), np.full_like(hi, size)
        seen.append((refine, size, lo, hi))
        return lo, hi

    monkeypatch.setattr(specfun, "_u_windows", spy)
    return seen


def test_u_windows_give_the_whole_table_bits(monkeypatch):
    # A cell's sum runs over its window of nodes, the tails dropped only
    # where their total is below a quarter of a long double ulp of the
    # sum; the terms outside the window are zero in the row's long double
    # sum.  On this grid, which takes a refined table at b = 1 and tiny
    # x, every value is the whole table's to the last long double bit.
    a, b = (np.array(col) for col in zip(*U_WINDOW_ROWS))
    seen = _spy_windows(monkeypatch)
    windowed = tricomi_u_times_xa(a, b, U_WINDOW_X)
    kept = sum(int((hi - lo).sum()) for _, _, lo, hi in seen)
    table = sum(size * lo.size for _, size, lo, _ in seen)
    assert {refine for refine, *_ in seen} == {1, 2}
    assert kept < 0.75 * table
    _spy_windows(monkeypatch, whole=True)
    whole = tricomi_u_times_xa(a, b, U_WINDOW_X)
    assert np.array_equal(windowed, whole)


def test_u_cell_bits_do_not_depend_on_the_windows_batched_with_it(monkeypatch):
    # Every cell of the grid alone, and batched with cells of other
    # windows and other tables: the same bits.
    a, b = (np.array(col) for col in zip(*U_WINDOW_ROWS))
    seen = _spy_windows(monkeypatch)
    batched = tricomi_u_times_xa(a, b, U_WINDOW_X)
    assert len({(refine, l, h) for refine, _, lo, hi in seen for l, h in zip(lo, hi)}) > 5
    for r, (ai, bi) in enumerate(U_WINDOW_ROWS):
        alone = [tricomi_u_times_xa(ai, bi, xj) for xj in U_WINDOW_X]
        assert np.array_equal(batched[r], alone), (ai, bi)


def test_kummer_symmetry_of_the_mgf_kernel():
    # y^a U(a, 1+a-b, y) = y^b U(b, 1+b-a, y) (DLMF 13.2.40): the pair
    # kernel of the mgf is symmetric in its two shapes, which lets the
    # mgf merge a pair with its mirror.  Checked in mpmath, then for U.
    for a, b, y in [(1, 4, 0.3), (7, 2, 5.0), (3, 30, 0.01)]:
        with mpmath.workdps(30):
            y = mpmath.mpf(y)
            lhs = y ** a * mpmath.hyperu(a, 1 + a - b, y)
            rhs = y ** b * mpmath.hyperu(b, 1 + b - a, y)
            assert abs(lhs / rhs - 1) < mpmath.mpf(10) ** -25
    shapes = np.arange(1, 31)
    a, b = (v.ravel() for v in np.meshgrid(shapes, shapes))
    y = np.array([1e-6, 0.02, 0.7, 3.0, 40.0, 1e4])
    np.testing.assert_allclose(tricomi_u_times_xa(a, 1 + a - b, y),
                               tricomi_u_times_xa(b, 1 + b - a, y), rtol=1e-13)


def _seed_arguments():
    """A log grid over the seeds' range and 41 points across their switch at 2."""
    return np.concatenate([np.geomspace(1e-300, 1e300, 601), np.linspace(1.5, 2.5, 41)])


@pytest.mark.parametrize("n", [0, 1])
def test_ladder_seeds_against_mpmath(n):
    # The ladder's seeds ln K_0, ln K_1 are within 10 eps of 40-digit
    # mpmath, relative to max(1, |ln K|): the series, the trapezoid rule
    # and the switch between them.  scipy's k0e/k1e pair reaches 5 eps
    # and 2 eps on this grid.  The ladder takes ln(x/2), so the reference
    # is taken at the x of that double, 2 exp(ln(x/2)).
    x = _seed_arguments()
    log_half = np.log(0.5 * x)
    with mpmath.workdps(40):
        expected = np.array([float(mpmath.log(mpmath.besselk(n, 2 * mpmath.exp(mpmath.mpf(lh)))))
                             for lh in log_half.tolist()])
    got = log_bessel_k(n, x)
    err = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
    assert err.max() <= 10 * np.finfo(float).eps, (x[err.argmax()], err.max())


def test_ladder_seeds_at_subnormal_arguments():
    # Subnormal x, whose half is subnormal too, and x = 2 e^-800 and
    # 2 e^-2000, which underflow to 0: the seeds take ln(x/2) as given,
    # and K_1 ~ 1/x, beyond the double range, stays finite in log form,
    # as do the rungs above it, on both sides of the rungs' switch at
    # ln(x/2) = -700.  The reference is 40-digit mpmath at
    # x = 2 exp(ln(x/2)) of the given double.
    log_half = np.array([math.log(5e-324) - math.log(2.0), math.log(1e-310) - math.log(2.0),
                         -1022 * math.log(2.0), -800.0, -2000.0, -650.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rungs = [lk.copy() for _, lk in log_bessel_k_ladder(log_half, 4)]
    with mpmath.workdps(40):
        for n in range(5):
            expected = [float(mpmath.log(mpmath.besselk(n, 2 * mpmath.exp(mpmath.mpf(lh)))))
                        for lh in log_half.tolist()]
            np.testing.assert_allclose(rungs[n], expected, rtol=1e-15)


def test_ladder_rungs_do_not_depend_on_the_batch():
    # Every rung of an argument has the same bits climbed alone, in an
    # odd-length batch or in reversed order, on both sides of the seeds'
    # switch and across their blocks of 2048 arguments.
    rng = np.random.default_rng(16)
    x = np.concatenate([np.exp(rng.uniform(-20.0, 7.0, 4095)), [2.0, np.nextafter(2.0, 3.0)]])
    lh = np.log(0.5 * x)
    batch = [lk.copy() for _, lk in log_bessel_k_ladder(lh, 6)]
    backward = [lk[::-1].copy() for _, lk in log_bessel_k_ladder(lh[::-1].copy(), 6)]
    for n in range(7):
        assert np.array_equal(batch[n], backward[n]), n
    for i in list(rng.choice(x.size, 60, replace=False)) + [x.size - 2, x.size - 1]:
        alone = [lk.copy() for _, lk in log_bessel_k_ladder(lh[i:i + 1], 6)]
        for n in range(7):
            assert np.array_equal(alone[n][0], batch[n][i]), (x[i], n)


def test_ladder_reuses_the_seeds_of_the_same_arguments():
    # A second climb from the same arguments takes the first one's
    # seeds: the same bits, in arrays of its own.
    x = np.log(0.5 * np.geomspace(1e-3, 40.0, 77)).reshape(7, 11)
    first = [lk for _, lk in log_bessel_k_ladder(x, 3)]
    for lk in first:
        lk[:] = np.nan
    again = [lk for _, lk in log_bessel_k_ladder(x.copy(), 3)]
    fresh = [lk for _, lk in log_bessel_k_ladder(np.concatenate([x.ravel(), [1.0]]), 3)]
    for n in range(4):
        assert np.array_equal(again[n].ravel(), fresh[n][:-1])
    assert [lk.shape for _, lk in log_bessel_k_ladder(np.empty(0), 1)] == [(0,), (0,)]


def test_ln_gamma_int_exact_small_and_large():
    for n in (1, 2, 3, 10, 171):
        assert ln_gamma_int(n) == pytest.approx(math.log(math.factorial(n - 1)), rel=1e-15)
    assert ln_gamma_int(500) == pytest.approx(special.gammaln(500), rel=1e-15)
    with pytest.raises(ValueError):
        ln_gamma_int(0)
    with pytest.raises(ValueError):
        ln_gamma_int(2.5)


def test_ln_gamma_ints_follows_ln_gamma_int():
    n = np.array([[1, 2, 7], [171, 172, 600]])
    assert np.array_equal(ln_gamma_ints(n), [[ln_gamma_int(v) for v in row] for row in n.tolist()])
    with pytest.raises(ValueError):
        ln_gamma_ints(np.array([3, 0]))


def test_ln_gamma_ints_checks_its_integers():
    # Entries were cast to int64, so [1.5, 3.9] gave ln Gamma(1) and
    # ln Gamma(3) where ln_gamma_int(1.5) raises, and NaN and 1e30 raised
    # numpy's cast errors.  Whole floats and narrower integer types pass.
    assert ln_gamma_ints([3.0, 7.0]).tolist() == [ln_gamma_int(3), ln_gamma_int(7)]
    assert ln_gamma_ints(np.array([3], dtype=np.int32)).tolist() == [ln_gamma_int(3)]
    for bad in ([1.5, 3.9], [math.nan], [math.inf], [1e30], [2.0 ** 63]):
        with pytest.raises(ValueError, match="n must hold integers within the int64 range"):
            ln_gamma_ints(bad)
    with pytest.raises(ValueError, match="a must hold integers within the int64 range"):
        tricomi_u_times_xa(1.5, 1, 1.0)


def test_guaranteed_accuracy_contract():
    # The module's stated guarantee: 1e-8 relative on K_n(x) for orders
    # up to MAX_BESSEL_ORDER and arguments in [1e-8, 700], checked in log
    # space so that values beyond the double range are covered too.
    x = np.geomspace(1e-8, 700.0, 15)
    for n in (0, 1, 2, 7, 40, 120, MAX_BESSEL_ORDER):
        expected = [float(mpmath.log(mpmath.besselk(n, xi))) for xi in x]
        rel = np.abs(np.expm1(log_bessel_k(n, x) - expected))
        assert np.all(rel <= 1e-8), (n, rel.max())

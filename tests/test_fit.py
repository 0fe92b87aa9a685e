import math

import numpy as np
import pytest

import prodfade.fit
from prodfade.fit import (
    EmpiricalDistribution,
    SearchConfig,
    _select_winner,
    empirical_from_samples,
    fit_cdf,
    fit_pdf_mse,
    histogram_pdf_from_samples,
    ks_error,
    thin_empirical,
)
from prodfade.mixture import ShadowedParams, expand
from prodfade.pdist import EnvelopeModel, ProductModel


def make_product(kappa, mu, m, kappa_b=None, mu_b=None, m_b=None, mean=1.0):
    return ProductModel(
        ShadowedParams(mean, kappa, mu, m),
        ShadowedParams(1.0, kappa_b if kappa_b is not None else kappa,
                       mu_b if mu_b is not None else mu,
                       m_b if m_b is not None else m),
    )


def curve_from_model(model, x):
    return EmpiricalDistribution("cdf", x, model.cdf(x))


def test_ks_error_self_consistency():
    model = make_product(2.0, 1, 3)
    x = np.geomspace(1e-4, 20.0, 120)
    assert ks_error(curve_from_model(model, x), model) == 0.0


def test_ks_error_uniform_log_shift():
    model = make_product(2.0, 1, 3)
    x = np.geomspace(1e-4, 20.0, 120)
    shifted = EmpiricalDistribution("cdf", x, model.cdf(x) * 10**-0.1)
    np.testing.assert_allclose(ks_error(shifted, model), 0.1, atol=1e-9)


def test_ks_error_floor_selection():
    model = make_product(2.0, 1, 3)
    x = np.geomspace(1e-4, 20.0, 50)
    f = model.cdf(x)
    shifted = EmpiricalDistribution("cdf", x, f * 10**-0.1)
    # Raising the floor discards points but the uniform shift remains.
    np.testing.assert_allclose(ks_error(shifted, model, min_cdf=0.05), 0.1, atol=1e-9)
    with pytest.raises(ValueError):
        ks_error(shifted, model, min_cdf=1.5)
    low = EmpiricalDistribution("cdf", np.array([1.0, 2.0]), np.array([0.1, 0.4]))
    with pytest.raises(ValueError):
        ks_error(low, model, min_cdf=0.9)  # nothing admissible
    pdf_kind = EmpiricalDistribution("pdf", np.array([1.0, 2.0]), np.array([0.3, 0.1]))
    with pytest.raises(ValueError):
        ks_error(pdf_kind, model)


def test_empirical_from_samples_basic():
    emp = empirical_from_samples([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(emp.x, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(emp.values, [0.25, 0.5, 0.75, 1.0])
    assert emp.sample_count == 4 and emp.mean == 2.5 and emp.kind == "cdf"
    # ties collapse to the highest rank
    emp = empirical_from_samples([1.0, 1.0, 2.0])
    np.testing.assert_allclose(emp.values, [2.0 / 3.0, 1.0])


def test_empirical_matches_known_cdf_dkw():
    rng = np.random.default_rng(3)
    emp = empirical_from_samples(rng.exponential(1.0, 1_000_000))
    sup = np.max(np.abs(emp.values - (1.0 - np.exp(-emp.x))))
    assert sup < 0.002  # observed 0.00111; DKW 99.99% band is 0.0022


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        empirical_from_samples([2.0])
    with pytest.raises(ValueError):
        empirical_from_samples([3.0, 3.0, 3.0])
    with pytest.raises(ValueError):
        empirical_from_samples([1.0, -2.0])
    with pytest.raises(ValueError):
        EmpiricalDistribution("quantile", [1.0], [0.5])
    with pytest.raises(ValueError):
        EmpiricalDistribution("cdf", [1.0, 2.0], [0.8, 0.5])  # decreasing
    with pytest.raises(ValueError):
        EmpiricalDistribution("cdf", [1.0, 2.0], [0.5, 1.2])  # above one
    with pytest.raises(ValueError):
        EmpiricalDistribution("pdf", [1.0, 2.0], [0.5, -0.1])
    with pytest.raises(ValueError):
        EmpiricalDistribution("cdf", [2.0, 1.0], [0.2, 0.5])  # x not increasing
    with pytest.raises(ValueError):
        EmpiricalDistribution("cdf", [1.0, 2.0], [0.2, 0.5], sample_count=1)


@pytest.mark.parametrize("kind", ["cdf", "pdf"])
@pytest.mark.parametrize("x,values,message", [
    ([1.0, np.nan, 3.0], [0.1, 0.2, 0.3], "x must be finite and strictly positive"),
    ([1.0, 2.0, np.inf], [0.1, 0.2, 0.3], "x must be finite and strictly positive"),
    ([0.0, 2.0, 3.0], [0.1, 0.2, 0.3], "x must be finite and strictly positive"),
    ([1.0, 2.0, 3.0], [0.1, np.nan, 0.3], "values must be finite"),
    ([1.0, 2.0, 3.0], [np.nan, np.nan, np.nan], "values must be finite"),
    ([1.0, 2.0, 3.0], [-np.inf, 0.2, 0.3], "values must be finite"),
])
def test_empirical_refuses_nan_and_inf_anywhere(kind, x, values, message):
    with pytest.raises(ValueError, match=message):
        EmpiricalDistribution(kind, x, values)


def test_thinning_keeps_endpoints_and_error():
    model = make_product(2.0, 1, 3)
    x = np.geomspace(1e-4, 20.0, 400)
    shifted = EmpiricalDistribution("cdf", x, model.cdf(x) * 10**-0.1,
                                    sample_count=5000, mean=1.23)
    thin = thin_empirical(shifted, 25)
    assert len(thin) <= 25
    assert thin.x[0] == shifted.x[0] and thin.x[-1] == shifted.x[-1]
    assert thin.sample_count == 5000 and thin.mean == 1.23
    assert thin.meta["thinned"] is True
    # A uniform log shift is invariant under any point selection.
    np.testing.assert_allclose(ks_error(thin, model), 0.1, atol=1e-9)
    # A fractional count is refused, not truncated; inf and NaN are
    # validation failures, not an OverflowError or int()'s own message.
    for bad in (1, 0, 2.9, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_points must be"):
            thin_empirical(shifted, bad)


def test_thinning_keeps_the_last_point_of_a_flat_run():
    # A measured curve may reach 1 before its last point.  The last target
    # is the run's value, so a search lands on the run's first point; the
    # thinned curve must still end at the last admissible point.
    x = np.arange(1.0, 101.0)
    curve = EmpiricalDistribution("cdf", x, np.minimum(np.linspace(0.01, 1.2, 100), 1.0))
    thin = thin_empirical(curve, 10)
    assert thin.x[0] == 1.0 and thin.x[-1] == 100.0 and thin.values[-1] == 1.0
    assert len(thin) <= 10 and np.all(np.diff(thin.x) > 0)


def test_histogram_pdf_from_samples():
    rng = np.random.default_rng(9)
    emp = histogram_pdf_from_samples(rng.gamma(3.0, 1.0, 20_000), bins=60)
    assert emp.kind == "pdf" and emp.meta["bin_count"] == 60
    assert np.all(np.diff(emp.x) > 0)
    mass = np.trapezoid(emp.values, emp.x)
    np.testing.assert_allclose(mass, 1.0, rtol=0.05)


def test_search_config_validation_and_grids():
    cfg = SearchConfig(max_m=4)
    mu, mu_hat, m, m_hat = cfg.resolved_grids()
    assert mu == (1,) and mu_hat == (1,)
    assert m == (1, 2, 3, 4) and m_hat == (1, 2, 3, 4)
    cfg = SearchConfig(mu_grid=(1, 2), m_grid=(3,), m_hat_grid=(5, 6))
    mu, mu_hat, m, m_hat = cfg.resolved_grids()
    assert mu_hat == (1, 2) and m == (3,) and m_hat == (5, 6)
    starts = SearchConfig(n_starts=5).kappa_starts()
    assert starts.size == 5 and np.all(np.diff(starts) > 0)
    assert starts[0] > 0.0 and starts[-1] < 50.0
    for bad in (
        dict(max_m=0),
        dict(kappa_range=(3.0, 1.0)),
        dict(kappa_range=(-1.0, 5.0)),
        dict(n_starts=0),
        dict(tie_tol=-0.1),
        dict(mu_grid=()),
        dict(m_grid=(0, 2)),
        # an infinite bound used to give infinite starts and then the
        # misleading "no candidate model ... could be evaluated"
        dict(kappa_range=(0.0, float("inf"))),
        dict(kappa_range=(0.0, float("nan"))),
        dict(max_points=1),
        dict(max_points=2.5),
        dict(min_cdf=0.0),
        dict(min_cdf=1.5),
        dict(min_cdf=float("nan")),
    ):
        with pytest.raises(ValueError):
            SearchConfig(**bad)


def test_search_config_accepts_edge_settings():
    cfg = SearchConfig(kappa_range=(0, 1), max_points=2.0, min_cdf=1)
    assert cfg.kappa_range == (0.0, 1.0)
    assert cfg.max_points == 2 and type(cfg.max_points) is int
    assert cfg.min_cdf == 1.0 and type(cfg.min_cdf) is float


@pytest.mark.parametrize("field,value", [
    ("max_m", 3.5),
    ("n_starts", 2.7),
    ("mu_grid", (1.5,)),
    ("mu_hat_grid", (1, 2.5)),
    ("m_grid", (2.9,)),
    ("m_hat_grid", (float("nan"),)),
])
def test_search_config_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match="%s must be an integer" % field):
        SearchConfig(**{field: value})


def test_search_config_accepts_integral_floats():
    cfg = SearchConfig(max_m=3.0, n_starts=2.0, mu_grid=(1.0,), m_grid=(np.int64(2),))
    assert (cfg.max_m, cfg.n_starts, cfg.mu_grid, cfg.m_grid) == (3, 2, (1,), (2,))
    assert all(type(v) is int for v in (cfg.max_m, cfg.n_starts) + cfg.mu_grid + cfg.m_grid)


def test_empirical_sample_count_rejects_non_integers():
    with pytest.raises(ValueError, match="sample_count must be an integer"):
        EmpiricalDistribution("cdf", [1.0, 2.0], [0.2, 0.5], sample_count=2.5)
    assert EmpiricalDistribution("cdf", [1.0, 2.0], [0.2, 0.5], sample_count=4.0).sample_count == 4


def _trace_entry(m, m_hat, mu, mu_hat, objective):
    return {"m": m, "m_hat": m_hat, "mu": mu, "mu_hat": mu_hat,
            "objective": objective, "mse_percent": objective}


def test_select_winner_tie_breaking():
    trace = [
        _trace_entry(6, 6, 1, 1, 0.20000),
        _trace_entry(2, 2, 1, 1, 0.20050),
        _trace_entry(4, 4, 1, 1, 0.20010),
        _trace_entry(3, 1, 1, 1, 0.50000),
    ]
    # Plain argmin when the tolerance is zero.
    assert _select_winner(trace)["m"] == 6
    # Within 1e-3 the three near-ties group; least complex wins.
    assert _select_winner(trace, tie_tol=1e-3)["m"] == 2
    # Exact ties fall back to complexity regardless of visit order.
    trace = [_trace_entry(5, 5, 1, 1, 0.3), _trace_entry(2, 3, 1, 1, 0.3)]
    assert _select_winner(trace)["m"] == 2
    # The field argument switches the compared column.
    trace = [
        dict(_trace_entry(2, 2, 1, 1, 1.0), mse_percent=5.0),
        dict(_trace_entry(3, 3, 1, 1, 2.0), mse_percent=1.0),
    ]
    assert _select_winner(trace, field="mse_percent")["m"] == 3


def test_fit_cdf_recovers_mu_cell():
    gen = make_product(2.0, 1, 3)
    rng = np.random.default_rng(7)
    emp = empirical_from_samples(gen.sample(rng, 30_000))
    floor = ks_error(emp, gen, min_cdf=1e-3)
    cfg = SearchConfig(max_m=3, mu_grid=(1, 2), m_grid=(1, 3), n_starts=3,
                       max_points=60, min_cdf=1e-3, tie_links=True)
    res = fit_cdf(emp, cfg)
    assert res.objective == "ks_error"
    assert res.model.link_a.mu == 1 and res.model.link_b.mu == 1
    assert res.objective_value <= 2.0 * floor
    # equal grids: each of the six mirror pairs is fitted once
    assert len(res.search_trace) == 10
    # tie_links propagates into the winning model
    assert res.model.link_a.kappa == res.model.link_b.kappa
    # the second link always carries unit mean power
    assert res.model.link_b.mean_power == 1.0
    params = res.parameters()
    assert params["objective"] == "ks_error"
    assert set(params["link_a"]) == {"mean_power", "kappa", "mu", "m"}


def test_fit_cdf_requires_scale_source():
    x = np.geomspace(0.01, 5.0, 40)
    model = make_product(1.0, 1, 2)
    emp = EmpiricalDistribution("cdf", x, model.cdf(x))  # no mean recorded
    with pytest.raises(ValueError):
        fit_cdf(emp, SearchConfig(max_m=1))
    res = fit_cdf(emp, SearchConfig(max_m=2, m_grid=(2,), total_scale=1.0,
                                    n_starts=3, tie_links=True))
    assert res.objective_value < 0.01


def test_fit_looks_up_minimize_in_the_fit_module(monkeypatch):
    # prodfade.fit.minimize must stay the name the search calls, so that
    # wrapping it (as the benchmark tracer does) sees every Nelder-Mead
    # search: one call per cell, with all of the cell's starts.
    calls = []
    minimize = prodfade.fit.minimize

    def counting(fun, x0s, *args, **kwargs):
        calls.append(len(x0s))
        return minimize(fun, x0s, *args, **kwargs)

    monkeypatch.setattr(prodfade.fit, "minimize", counting)
    x = np.geomspace(0.01, 5.0, 40)
    emp = curve_from_model(make_product(1.0, 1, 2), x)
    fit_cdf(emp, SearchConfig(mu_grid=(1,), m_grid=(2,), total_scale=1.0,
                              n_starts=2, tie_links=True))
    assert calls == [2]


def _kinked(theta):
    # the shape of the KS objective: a max of residual magnitudes, with
    # kinks along a valley
    a, b = theta[0], theta[-1]
    return max(abs(np.log1p(a) - 0.7 + 0.1 * b), abs(0.3 * a - b + 0.5), abs(0.05 * a * b - 0.2))


def _smooth(theta):
    theta = np.asarray(theta)
    return float(np.sum((theta[1:] - theta[:-1] ** 2) ** 2) * 10.0 + np.sum((1.0 - theta) ** 2))


def _ks_objective(theta):
    model = make_product(theta[0], 1, 2, kappa_b=theta[-1])
    return ks_error(_KS_DATA, model)


_KS_DATA = empirical_from_samples(make_product(1.5, 1, 2, kappa_b=0.4).sample(
    np.random.default_rng(3), 3000))

NM_CASES = {
    # name: objective, start, bounds, xatol, maxfev
    "kinked-2": (_kinked, [0.9, 0.9], [(0.0, 50.0)] * 2, 1e-4, 600),
    "ks-1": (lambda t: _ks_objective([t[0], t[0]]), [0.926], [(0.0, 50.0)], 1e-4, 600),
    "smooth-2": (_smooth, [-1.2, 1.0], [(-5.0, 5.0)] * 2, 1e-8, 600),
    "smooth-3": (_smooth, [0.5, 0.8, 1.3], [(-5.0, 5.0)] * 3, 1e-6, 600),
    # x0 on the lower bound 0: the initial simplex steps to 0.00025
    "lower-bound": (_kinked, [0.0, 0.0], [(0.0, 50.0)] * 2, 1e-4, 600),
    # 5% of x0 passes the upper bound: the vertex is reflected inside
    "upper-bound": (_smooth, [4.9, 4.9, 0.0], [(-5.0, 5.0)] * 3, 1e-6, 600),
    "maxfev": (_smooth, [-1.2, 1.0, 2.0], [(-5.0, 5.0)] * 3, 1e-10, 37),
    "ks-2": (_ks_objective, [0.926, 0.926], [(0.0, 50.0)] * 2, 1e-4, 600),
    "ks-3": (lambda t: _ks_objective(t[:2]) + 0.01 * (t[2] - 0.3) ** 2,
             [2.0, 2.0, 0.0], [(0.0, 50.0), (0.0, 50.0), (-10.0, 10.0)], 1e-4, 600),
    # NaN and tied values: the vertices are ordered by np.argsort there
    "nan-region": (lambda t: math.nan if t[0] > 1.15 else _smooth(t), [1.1, 1.0],
                   [(-5.0, 5.0)] * 2, 1e-8, 600),
    "staircase": (lambda t: float(np.floor(4.0 * np.abs(np.asarray(t) - 0.3)).sum()),
                  [1.1, 0.9, 0.2], [(-2.0, 2.0)] * 3, 1e-6, 600),
}


def _batched(objective):
    return lambda thetas: [objective(theta) for theta in thetas]


@pytest.mark.parametrize("name", sorted(NM_CASES))
def test_lockstep_nelder_mead_matches_scipy_bit_for_bit(name):
    from scipy.optimize import minimize as scipy_minimize

    objective, x0, bounds, xatol, maxfev = NM_CASES[name]
    ref = scipy_minimize(objective, np.array(x0), method="Nelder-Mead", bounds=bounds,
                         options={"xatol": xatol, "fatol": 1e-7, "maxfev": maxfev})
    (got,) = prodfade.fit.minimize(_batched(objective), [x0], bounds, xatol=xatol,
                                   fatol=1e-7, maxfev=maxfev)
    assert np.array_equal(got.x, ref.x)
    assert got.fun == ref.fun
    assert (got.nfev, got.success) == (ref.nfev, ref.success)
    if name == "maxfev":
        assert (got.nfev, got.success) == (maxfev, False)


def _staircase(theta):
    return float(np.floor(4.0 * np.abs(np.asarray(theta) - 0.3)).sum())


def test_nelder_mead_shrinks_like_scipy():
    # On this staircase reflections and contractions keep failing: the
    # run shrinks the simplex towards its best vertex 16 times.  Every
    # point asked for is scipy's, in scipy's order.
    from scipy.optimize import minimize as scipy_minimize

    seen = []

    def recording(theta):
        seen.append(np.array(theta, dtype=float))
        return _staircase(theta)

    bounds = [(-2.0, 2.0)] * 2
    ref = scipy_minimize(recording, np.array([1.1, 0.9]), method="Nelder-Mead", bounds=bounds,
                         options={"xatol": 1e-6, "fatol": 1e-7, "maxfev": 600})
    ref_points, seen[:] = list(seen), []
    (got,) = prodfade.fit.minimize(_batched(recording), [[1.1, 0.9]], bounds, xatol=1e-6,
                                   fatol=1e-7, maxfev=600)
    assert np.array_equal(np.array(seen), np.array(ref_points))
    assert np.array_equal(got.x, ref.x) and got.fun == ref.fun
    assert (got.nfev, got.success) == (ref.nfev, ref.success) == (67, True)


@pytest.mark.parametrize("objective,x0", [(_staircase, [1.1, 0.9]), (_smooth, [-1.2, 1.0, 2.0])])
def test_nelder_mead_stops_at_maxfev_like_scipy(objective, x0):
    # Every budget up to the run's length: the last call allowed falls in
    # the initial simplex, a reflection, an expansion, a contraction or a
    # shrink, and the step that asks for one more is abandoned there.
    from scipy.optimize import minimize as scipy_minimize

    bounds = [(-2.0, 2.0)] * len(x0)
    for maxfev in range(1, 70):
        ref = scipy_minimize(objective, np.array(x0), method="Nelder-Mead", bounds=bounds,
                             options={"xatol": 1e-6, "fatol": 1e-7, "maxfev": maxfev})
        (got,) = prodfade.fit.minimize(_batched(objective), [x0], bounds, xatol=1e-6,
                                       fatol=1e-7, maxfev=maxfev)
        assert np.array_equal(got.x, ref.x) and got.fun == ref.fun, maxfev
        assert (got.nfev, got.success) == (ref.nfev, ref.success), maxfev


def test_a_start_runs_the_same_alone_and_in_a_round():
    objective, _, bounds, xatol, _ = NM_CASES["kinked-2"]
    starts = [[0.9, 0.9], [3.0, 0.1], [0.0, 12.0]]
    sizes = []

    def batched(thetas):
        sizes.append(len(thetas))
        return [objective(theta) for theta in thetas]

    together = prodfade.fit.minimize(batched, starts, bounds, xatol=xatol)
    assert sizes[0] == 3 and len(sizes) == max(res.nfev for res in together)
    for start, res in zip(starts, together):
        (alone,) = prodfade.fit.minimize(_batched(objective), [start], bounds, xatol=xatol)
        assert np.array_equal(alone.x, res.x)
        assert (alone.fun, alone.nfev, alone.success) == (res.fun, res.nfev, res.success)


def test_a_failing_candidate_scores_failure_alone(monkeypatch):
    # A round's candidates share one batched engine call.  Make the cdf of
    # every candidate with a scale product below 0.3 (both kappas above
    # about 10) leave [0, 1]: those candidates score the failure value
    # alone, their rounds' others are scored as before, and the best
    # run, which stays near the generating kappas, is unmoved.
    x = np.geomspace(0.01, 5.0, 40)
    emp = curve_from_model(make_product(1.0, 1, 2, kappa_b=0.5), x)
    cfg = SearchConfig(mu_grid=(1,), m_grid=(2,), total_scale=1.0, n_starts=3)
    (clean,) = fit_cdf(emp, cfg).search_trace
    engine = prodfade.pdist.weighted_cdf_sum
    refused, scores = [], []

    def breaking(weights, shapes_a, shapes_b, log_scales, z, pairs):
        out = engine(weights, shapes_a, shapes_b, log_scales, z, pairs)
        bad = log_scales[:, 0] < np.log(0.3)
        out[bad, 0] = 2.0
        refused.append((int(bad.sum()), len(bad)))
        return out

    search = prodfade.fit.minimize

    def recording(fun, x0s, *args, **kwargs):
        def scored(thetas):
            values = fun(thetas)
            scores.extend(values)
            return values
        return search(scored, x0s, *args, **kwargs)

    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum", breaking)
    monkeypatch.setattr(prodfade.fit, "minimize", recording)
    (entry,) = fit_cdf(emp, cfg).search_trace
    assert sum(n for n, _ in refused) == scores.count(prodfade.fit._OBJ_FAILURE) > 0
    assert any(0 < n < size for n, size in refused)
    assert all(entry[k] == clean[k] for k in ("kappa", "kappa_hat", "objective", "converged"))


def test_fit_looks_up_least_squares_in_the_fit_module(monkeypatch):
    # prodfade.fit.least_squares imports scipy.optimize on its first
    # call; it must stay the name the pdf search calls, so that
    # wrapping it sees every least-squares run.
    calls = []
    least_squares = prodfade.fit.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(prodfade.fit, "least_squares", counting)
    env = EnvelopeModel(make_product(1.5, 1, 2), 1.2)
    r = np.linspace(0.02, 4.0, 60)
    emp = EmpiricalDistribution("pdf", r, env.pdf(r))
    fit_pdf_mse(emp, SearchConfig(mu_grid=(1,), m_grid=(2,), n_starts=2, tie_links=True))
    assert len(calls) == 2


@pytest.mark.parametrize("cell", [(1, 1, 1, 2), (1, 1, 2, 2), (2, 1, 1, 2)])
def test_batched_jacobian_gives_the_one_point_per_call_trace(monkeypatch, cell):
    # The pdf fit scores each finite-difference Jacobian's points in one
    # evaluator call and hands the rows back through the solver's own
    # function.  Without ``workers`` SciPy asks for one point per call;
    # every field of the trace, nfev and converged included, must be the
    # same.  Cells (mu, mu_hat, m, m_hat): kappa held at 0 with kappa_hat
    # free; two free kappas; and kappa ending at the bound of 50, where
    # SciPy steps to one side only.
    gen = make_product(1.5, 1, 2)
    r = np.linspace(0.02, 4.0, 60)
    emp = EmpiricalDistribution("pdf", r, EnvelopeModel(gen, 1.2).pdf(r))
    mu, mu_hat, m, m_hat = cell
    cfg = SearchConfig(mu_grid=(mu,), mu_hat_grid=(mu_hat,), m_grid=(m,), m_hat_grid=(m_hat,),
                       n_starts=2)
    calls = []
    rows_at = prodfade.fit._envelope_rows_at

    def counting_rows_at(points):
        rows = rows_at(points)

        def counted(cell, sets):
            calls.append(np.shape(sets)[1])
            return rows(cell, sets)

        return counted

    monkeypatch.setattr(prodfade.fit, "_envelope_rows_at", counting_rows_at)
    batched = fit_pdf_mse(emp, cfg)
    batched_calls, calls[:] = list(calls), []
    least_squares = prodfade.fit.least_squares

    def one_point_per_call(*args, workers=None, **kwargs):
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(prodfade.fit, "least_squares", one_point_per_call)
    single = fit_pdf_mse(emp, cfg)
    assert set(calls) == {1} and max(batched_calls) > 1
    assert sum(batched_calls) == sum(calls) == batched.search_trace[0]["nfev"]
    assert batched.search_trace == single.search_trace
    assert batched.envelope_scale == single.envelope_scale
    assert batched.objective_value == single.objective_value
    if cell == (2, 1, 1, 2):
        # within a forward step of the bound: SciPy's steps there go back
        assert 0.0 <= 50.0 - batched.search_trace[0]["kappa"] < 1e-8


def _failing_envelope(monkeypatch, fails):
    """Make the envelope densities of products whose second link has
    ``m`` in ``fails`` raise, in the engine call that weighs them on the
    cell plan (with ``mu == 1`` the link's largest shape is its ``m``)."""
    pdf_sum = prodfade.pdist.weighted_pdf_sum

    def failing(*args):
        if int(np.max(args[2])) in fails:
            raise ArithmeticError("cannot evaluate")
        return pdf_sum(*args)

    monkeypatch.setattr(prodfade.pdist, "weighted_pdf_sum", failing)


def test_pdf_cell_whose_every_evaluation_raises_scores_failure(monkeypatch):
    env = EnvelopeModel(make_product(1.5, 1, 2), 1.2)
    r = np.linspace(0.02, 4.0, 60)
    emp = EmpiricalDistribution("pdf", r, env.pdf(r))
    _failing_envelope(monkeypatch, {3})
    cfg = SearchConfig(mu_grid=(1,), m_grid=(2,), m_hat_grid=(2, 3), n_starts=2,
                       tie_links=True)
    res = fit_pdf_mse(emp, cfg)
    ok, failed = res.search_trace
    assert failed["m_hat"] == 3 and failed["objective"] == prodfade.fit._OBJ_FAILURE
    assert failed["nfev"] >= 2
    assert ok["objective"] < 1e-10 and res.model.link_b.m == 2
    _failing_envelope(monkeypatch, {2, 3})
    with pytest.raises(ArithmeticError, match="no candidate model"):
        fit_pdf_mse(emp, cfg)


def test_fit_pdf_builds_only_the_winner(monkeypatch):
    # The pdf fit weighs its candidates on the cell plans: it builds one
    # ProductModel, the winner, no EnvelopeModel and no link mixture.
    env = EnvelopeModel(make_product(1.5, 1, 2), 1.2)
    r = np.linspace(0.02, 4.0, 60)
    emp = EmpiricalDistribution("pdf", r, env.pdf(r))
    built = []
    for cls in (ProductModel, EnvelopeModel):
        init = cls.__init__

        def counting(self, *args, init=init, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    before = expand.cache_info()
    res = fit_pdf_mse(emp, SearchConfig(mu_grid=(1,), m_grid=(1, 2), m_hat_grid=(2,),
                                        n_starts=2))
    after = expand.cache_info()
    assert sum(e["nfev"] for e in res.search_trace) > 50
    assert built == ["ProductModel"]
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_fit_pdf_mse_self_fit_is_exact():
    env = EnvelopeModel(make_product(1.5, 1, 2), 1.2)
    r = np.linspace(0.02, 4.0, 160)
    emp = EmpiricalDistribution("pdf", r, env.pdf(r))
    cfg = SearchConfig(mu_grid=(1,), m_grid=(2,), n_starts=3, tie_links=True)
    res = fit_pdf_mse(emp, cfg)
    assert res.objective == "mse_percent"
    assert res.objective_value <= 1e-10
    assert min(t["objective"] for t in res.search_trace) <= 1e-10
    np.testing.assert_allclose(res.model.link_a.kappa, 1.5, atol=1e-5)
    np.testing.assert_allclose(res.envelope_scale, 1.2, atol=1e-5)


def test_fit_pdf_mse_recovers_published_style_cell():
    # Asymmetric links with strong/weak shadowing and a free envelope
    # level, fitted within the generating integer cell.
    gen = make_product(1.87, 1, 19, kappa_b=1.67, mu_b=1, m_b=6)
    env = EnvelopeModel(gen, 0.93)
    r = np.linspace(0.01, 3.2, 200)
    emp = EmpiricalDistribution("pdf", r, env.pdf(r))
    cfg = SearchConfig(mu_grid=(1,), m_grid=(19,), m_hat_grid=(6,), n_starts=5)
    res = fit_pdf_mse(emp, cfg)
    assert res.objective_value <= 1e-8
    np.testing.assert_allclose(res.model.link_a.kappa, 1.87, atol=1e-3)
    np.testing.assert_allclose(res.model.link_b.kappa, 1.67, atol=1e-3)
    np.testing.assert_allclose(res.envelope_scale, 0.93, atol=1e-3)


def test_fit_pdf_mse_requires_pdf_kind():
    x = np.geomspace(0.01, 5.0, 30)
    emp = curve_from_model(make_product(1.0, 1, 2), x)
    with pytest.raises(ValueError):
        fit_pdf_mse(emp, SearchConfig(max_m=1))


@pytest.mark.parametrize("kappas", [(1.0, 3.0), (3.0, 1.0)])
def test_symmetric_cell_reports_canonical_kappa_order(kappas):
    # With mu == mu_hat and m == m_hat the two link orders are the same
    # law, so either generating order is reported as kappa >= kappa_hat.
    env = EnvelopeModel(make_product(kappas[0], 1, 2, kappa_b=kappas[1]), 1.2)
    r = np.linspace(0.02, 4.0, 160)
    emp = EmpiricalDistribution("pdf", r, env.pdf(r))
    cfg = SearchConfig(mu_grid=(1,), m_grid=(2,), n_starts=3)
    res = fit_pdf_mse(emp, cfg)
    (entry,) = res.search_trace
    assert entry["kappa"] >= entry["kappa_hat"]
    np.testing.assert_allclose([res.model.link_a.kappa, res.model.link_b.kappa],
                               [3.0, 1.0], atol=1e-3)


@pytest.mark.parametrize("m", range(1, 13))
def test_link_with_mu_equal_m_is_gamma_at_every_kappa(m):
    # A kappa-mu shadowed link with mu == m is Gamma(m, mean/m) whatever
    # its kappa, which is why the fits hold that kappa at 0.
    other = ShadowedParams(1.0, 0.7, 1, 3)
    x = np.geomspace(1e-6, 30.0, 60)
    for mean in (1.0, 2.7, 0.013):
        at_zero = ProductModel(ShadowedParams(mean, 0.0, m, m), other).cdf(x)
        for kappa in (0.0, 1e-9, 0.3, 7.0, 50.0):
            mix = expand(ShadowedParams(mean, kappa, m, m))
            assert mix.weights.tolist() == [1.0] and mix.shapes.tolist() == [m]
            assert abs(mix.scales[0] - mean / m) <= 4 * np.spacing(mean / m)
            cdf = ProductModel(ShadowedParams(mean, kappa, m, m), other).cdf(x)
            np.testing.assert_allclose(cdf, at_zero, rtol=8 * np.finfo(float).eps, atol=0)


def test_fit_reports_kappa_zero_for_mu_equal_m_links():
    x = np.geomspace(0.01, 5.0, 40)
    emp = curve_from_model(make_product(1.0, 1, 1, kappa_b=2.0, m_b=3), x)
    res = fit_cdf(emp, SearchConfig(mu_grid=(1,), m_grid=(1,), m_hat_grid=(1, 3),
                                    total_scale=1.0, n_starts=2))
    free_b, held = res.search_trace[1], res.search_trace[0]
    assert (held["m"], held["m_hat"]) == (1, 1)
    assert (held["kappa"], held["kappa_hat"], held["nfev"], held["converged"]) == (0.0, 0.0, 1, True)
    assert held["objective"] == ks_error(emp, make_product(0.0, 1, 1))
    assert free_b["kappa"] == 0.0 and free_b["kappa_hat"] > 0.0 and free_b["nfev"] > 2
    assert res.model.link_a.kappa == 0.0
    np.testing.assert_allclose(res.model.link_b.kappa, 2.0, atol=1e-3)


def test_equal_grids_fit_each_mirror_pair_once():
    # (mu, mu_hat, m, m_hat) and (mu_hat, mu, m_hat, m) are one law, so
    # with equal grids only the cell with (m, mu) <= (m_hat, mu_hat) is
    # fitted; a mirror fitted alone reaches the same objective.
    gen = make_product(2.0, 1, 3, kappa_b=0.5, m_b=2)
    emp = empirical_from_samples(gen.sample(np.random.default_rng(5), 4000))
    cfg = dict(mu_grid=(1,), n_starts=2, max_points=40, min_cdf=1e-3)
    res = fit_cdf(emp, SearchConfig(m_grid=(2, 3), **cfg))
    assert [(t["m"], t["m_hat"]) for t in res.search_trace] == [(2, 2), (2, 3), (3, 3)]
    (mirror,) = fit_cdf(emp, SearchConfig(m_grid=(3,), m_hat_grid=(2,), **cfg)).search_trace
    visited = res.search_trace[1]
    assert abs(mirror["objective"] - visited["objective"]) < 1e-6
    np.testing.assert_allclose([mirror["kappa_hat"], mirror["kappa"]],
                               [visited["kappa"], visited["kappa_hat"]], rtol=1e-2)
    # unequal grids visit every cell
    full = fit_cdf(emp, SearchConfig(m_grid=(2, 3), m_hat_grid=(2, 3, 4), **cfg))
    assert len(full.search_trace) == 6

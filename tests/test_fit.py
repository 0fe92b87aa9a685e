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
from prodfade.mixture import ShadowedParams
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
    with pytest.raises(ValueError):
        thin_empirical(shifted, 1)


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
    ):
        with pytest.raises(ValueError):
            SearchConfig(**bad)


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
    assert len(res.search_trace) == 16
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
    # prodfade.fit.minimize imports scipy.optimize on its first call;
    # it must stay the name the search calls, so that wrapping it (as
    # the benchmark tracer does) sees every Nelder-Mead run.
    calls = []
    minimize = prodfade.fit.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(prodfade.fit, "minimize", counting)
    x = np.geomspace(0.01, 5.0, 40)
    emp = curve_from_model(make_product(1.0, 1, 2), x)
    fit_cdf(emp, SearchConfig(mu_grid=(1,), m_grid=(2,), total_scale=1.0,
                              n_starts=2, tie_links=True))
    assert len(calls) == 2


def test_fit_pdf_mse_self_fit_is_exact():
    env = EnvelopeModel(make_product(1.5, 1, 2), 1.2)
    r = np.linspace(0.02, 4.0, 160)
    emp = EmpiricalDistribution("pdf", r, env.pdf(r))
    cfg = SearchConfig(mu_grid=(1,), m_grid=(2,), n_starts=3, tie_links=True,
                       kappa_tol=1e-7)
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
    cfg = SearchConfig(mu_grid=(1,), m_grid=(19,), m_hat_grid=(6,), n_starts=5,
                       kappa_tol=1e-6)
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
    cfg = SearchConfig(mu_grid=(1,), m_grid=(2,), n_starts=3, kappa_tol=1e-7)
    res = fit_pdf_mse(emp, cfg)
    (entry,) = res.search_trace
    assert entry["kappa"] >= entry["kappa_hat"]
    np.testing.assert_allclose([res.model.link_a.kappa, res.model.link_b.kappa],
                               [3.0, 1.0], atol=1e-3)

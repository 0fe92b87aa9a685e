"""Deterministic work counters of the kernel-sum engine.

The counters depend only on the inputs, never on timing, so a claimed
reduction in kernel work can be pinned here.  Recording wrappers
replace ``log_bessel_k_ladder`` where ``gammagamma`` looks it up, noting
per climb the number of argument rows and the rungs climbed, and
``tricomi_u_times_xa`` where ``pdist`` looks it up, noting per call the
rows and the argument grid.
"""

import functools
import json
import math

import numpy as np
import pytest

import prodfade.fit
import prodfade.pdist
from prodfade import gammagamma, io, mixture
from prodfade.cli import main
from prodfade.fit import (
    SearchConfig, empirical_from_samples, fit_cdf, fit_pdf_mse, histogram_pdf_from_samples,
)
from prodfade.mixture import ShadowedParams as SP, expand
from prodfade.pdist import ProductModel

K_REF = 3.0 + math.sqrt(12.0)
SIGNED = SP(1.0, 1.0, 6, 2)
MODELS = {
    "S": (SP(1.0, 2.6, 1, 4), SP(1.0, 2.6, 1, 4)),
    "M": (SP(1.0, 2.0, 1, 20), SP.rayleigh()),
    "W": (SP(8.0, K_REF, 8, 20), SP.rician(K_REF)),
    "L": (SP(1.0, 2.6, 1, 30), SP(1.0, 2.6, 1, 30)),
    "rayleigh2": (SP.rayleigh(), SP.rayleigh()),
    "signed2": (SIGNED, SIGNED),
    "signed_x": (SIGNED, SP(1.0, 0.5, 4, 1)),
}
# A link has one scale when mu <= m and two when mu > m.
DISTINCT_THETA = {"S": 1, "M": 1, "W": 1, "L": 1, "rayleigh2": 1, "signed2": 3, "signed_x": 4}
# Highest Bessel order + 1: the cdf of kernel (m, m_hat) reaches order m_hat,
# the pdf order |m - m_hat|.
RUNGS = {("L", "cdf"): 31, ("L", "pdf"): 30, ("W", "cdf"): 21, ("S", "cdf"): 5}
Z = np.geomspace(1e-7, 20.0, 150)


@pytest.fixture
def climbs(monkeypatch):
    """``[(rows, rungs), ...]`` for every ladder climb made in the test."""
    record = []
    ladder = gammagamma.log_bessel_k_ladder

    def recording(x, max_order):
        entry = [np.shape(x)[0], 0]
        record.append(entry)
        for item in ladder(x, max_order):
            entry[1] += 1
            yield item

    monkeypatch.setattr(gammagamma, "log_bessel_k_ladder", recording)
    return record


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("kind", ["cdf", "pdf"])
def test_one_argument_row_per_distinct_theta(climbs, name, kind):
    model = ProductModel(*MODELS[name])
    assert np.unique(model._lth).size == DISTINCT_THETA[name]
    # signed2's equal links make unit x boosted and boosted x unit one
    # theta of its plan
    assert model._lth.shape[1] == DISTINCT_THETA[name]
    getattr(model, kind)(Z)
    assert [rows for rows, _ in climbs] == [DISTINCT_THETA[name]]
    if (name, kind) in RUNGS:
        assert climbs[0][1] == RUNGS[name, kind]


@pytest.fixture
def u_calls(monkeypatch):
    """``[(rows, grid), ...]`` for every Tricomi U call ``mgf`` makes."""
    record = []
    u = prodfade.pdist.tricomi_u_times_xa

    def recording(a, b, x):
        record.append((np.size(a), np.array(x)))
        return u(a, b, x)

    monkeypatch.setattr(prodfade.pdist, "tricomi_u_times_xa", recording)
    return record


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("points", [1, 5, 20])
def test_one_u_call_per_distinct_theta(u_calls, name, points):
    # One U call takes every merged row, each at its own grid of
    # y = -1/(s theta): the rows of one theta share a grid, so the call
    # holds one distinct grid per distinct theta.
    model = ProductModel(*MODELS[name])
    model.mgf(-np.geomspace(1e-3, 1e3, points))
    plan = model._plan.pairs.mgf
    [(rows, grid)] = u_calls
    assert rows == plan.theta.size and grid.shape == (rows, points)
    assert np.unique(grid, axis=0).shape[0] == DISTINCT_THETA[name]
    for t in range(DISTINCT_THETA[name]):
        assert (grid[plan.theta == t] == grid[plan.theta == t][0]).all()


def test_mgf_rows_merge_on_unordered_shape_pair():
    # Kummer's transformation makes the mgf kernel symmetric too: L's 900
    # pairs are 465 rows, as for the pdf.
    model = ProductModel(*MODELS["L"])
    plan = model._plan.pairs.mgf
    assert plan.theta.size == 465
    assert np.all(plan.b >= 1) and np.all(plan.b <= plan.a)


def test_plan_is_built_once_per_layout_in_a_fit(monkeypatch):
    # Each Nelder-Mead round weighs new kappas on the same integer cell;
    # only the kappa = 0 collapse changes the layout, so plans are built
    # a handful of times, each layout's at most once.  The cell plans,
    # which keep their layouts' row plans, start afresh.
    gen = ProductModel(SP(1.0, 2.0, 1, 3), SP(1.0, 2.0, 1, 3))
    emp = empirical_from_samples(gen.sample(np.random.default_rng(7), 5000))
    cfg = SearchConfig(max_m=3, mu_grid=(1,), m_grid=(3,), n_starts=2, max_points=40,
                       min_cdf=1e-3, tie_links=True)
    calls = []
    engine = gammagamma.weighted_cdf_sum

    def counting(*args):
        calls.append(1)
        return engine(*args)

    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum", counting)
    built = []
    build = gammagamma.Pairs.cdf.func

    def recording(pairs):
        built.append(pairs)
        return build(pairs)

    prop = functools.cached_property(recording)
    prop.__set_name__(gammagamma.Pairs, "cdf")
    monkeypatch.setattr(gammagamma.Pairs, "cdf", prop)
    prodfade.pdist._cell_plan.cache_clear()
    res = fit_cdf(emp, cfg)
    assert len(res.search_trace) == 1
    assert len(calls) >= 40
    assert 1 <= len(built) <= len(calls) // 5
    assert len({id(pairs) for pairs in built}) == len(built)


def test_link_layout_is_built_once_per_integer_pair_in_a_fit(monkeypatch):
    # The kappa-free layout of a link depends on its form's (mu, m) alone,
    # so the 10 cells visited over links (mu, m) in {1, 2} x {1, 3} build
    # four layouts, once each, one of them (2, 1) of the signed mu > m
    # form, and a fifth, (2, 2), only if a candidate collapses that link.
    # The (1, 1) link, held at kappa = 0, is one of the four: a mu <= m
    # link is not collapsed at kappa 0.  The candidates only weigh
    # the cells' plans: the fit builds one model, its winner's, and no
    # mixture.
    gen = ProductModel(SP(1.0, 2.0, 1, 3), SP(1.0, 2.0, 1, 3))
    emp = empirical_from_samples(gen.sample(np.random.default_rng(7), 5000))
    cfg = SearchConfig(mu_grid=(1, 2), m_grid=(1, 3), n_starts=1, max_points=40,
                       min_cdf=1e-3)
    models = []
    init = ProductModel.__init__

    def counting(self, *args):
        models.append(args)
        init(self, *args)

    monkeypatch.setattr(ProductModel, "__init__", counting)
    built = []
    build = mixture._link_layout.__wrapped__

    def recording(*args):
        built.append(args)
        return build(*args)

    # one fresh cache, read by both modules, that records what it builds
    layouts = functools.lru_cache(maxsize=1024)(recording)
    monkeypatch.setattr(mixture, "_link_layout", layouts)
    monkeypatch.setattr(prodfade.pdist, "_link_layout", layouts)
    for cache in (prodfade.pdist._cell_plan, expand):
        cache.cache_clear()
    res = fit_cdf(emp, cfg)
    assert len(res.search_trace) == 10
    assert sum(t["nfev"] for t in res.search_trace) >= 50 * 3
    four = [(1, 1), (1, 3), (2, 1), (2, 3)]
    assert sorted(built) in (four, sorted(four + [(2, 2)]))
    assert len(models) == 1
    assert expand.cache_info().misses <= 2


def test_a_cell_makes_one_cdf_engine_call_per_round(monkeypatch, rounds):
    # With kappa_range away from 0 no candidate collapses a link, so all
    # the starts' candidates of a round share one plan and one engine call.
    gen = ProductModel(SP(1.0, 2.0, 1, 3), SP(1.0, 2.0, 1, 3))
    emp = empirical_from_samples(gen.sample(np.random.default_rng(7), 5000))
    cfg = SearchConfig(mu_grid=(1,), m_grid=(3,), m_hat_grid=(2,), n_starts=3, max_points=40,
                       min_cdf=1e-3, kappa_range=(0.01, 50.0))
    calls = []
    engine = gammagamma.weighted_cdf_sum

    def counting(weights, *args):
        calls.append(len(weights))
        return engine(weights, *args)

    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum", counting)
    (entry,) = fit_cdf(emp, cfg).search_trace
    assert calls == rounds
    assert sum(calls) == entry["nfev"] > 2 * len(calls)


def test_a_round_with_a_candidate_at_kappa_0_makes_one_engine_call(monkeypatch, rounds,
                                                                    small_fit_data):
    # On a cell of two mu <= m links, kappa_range (0, 50) clips candidates
    # to kappa 0, where such a link keeps its full layout: every round is
    # one plan group and one cdf engine call.  Under a rule that collapsed
    # them too, some rounds split into two calls, and the trace, every
    # field, is the same.
    from prodfade.mixture import KAPPA_ZERO_TOL

    cfg = _small_config(mu_grid=(1,), m_grid=(2,))
    calls, kappas = [], []
    engine, plan_key = gammagamma.weighted_cdf_sum, prodfade.pdist._plan_key

    def counting(weights, *args):
        calls.append(len(weights))
        return engine(weights, *args)

    def recording(cell, mean_a, kappa_a, mean_b, kappa_b):
        kappas.extend((kappa_a, kappa_b))
        return plan_key(cell, mean_a, kappa_a, mean_b, kappa_b)

    monkeypatch.setattr(prodfade.pdist, "weighted_cdf_sum", counting)
    monkeypatch.setattr(prodfade.pdist, "_plan_key", recording)
    trace = fit_cdf(small_fit_data, cfg).search_trace
    assert 0.0 in kappas and len(rounds) > 20
    assert calls == rounds
    first = len(calls)
    monkeypatch.setattr(prodfade.pdist, "_link_form",
                        lambda mu, m, kappa: (mu, mu) if kappa <= KAPPA_ZERO_TOL else (mu, m))
    for cache in (prodfade.pdist._cell_plan, prodfade.pdist._weighed_model):
        cache.cache_clear()
    try:
        old = fit_cdf(small_fit_data, cfg).search_trace
    finally:
        for cache in (prodfade.pdist._cell_plan, prodfade.pdist._weighed_model):
            cache.cache_clear()
    assert len(calls[first:]) > len(rounds[first:])
    assert old == trace


def test_a_fit_round_climbs_once(climbs, rounds, small_fit_data):
    # With kappa_range away from 0 every round of a cell is one plan
    # group, and each round makes exactly one ladder climb: one argument
    # row per candidate and distinct theta, and the rungs up to the
    # plan's highest Bessel order.  The cell has a mu > m link, so two
    # thetas, and its rows reach order 1.  The fit climbs nowhere else.
    # The cell is (1, 2, 2, 1), with neither link collapsed.
    cfg = SearchConfig(mu_grid=(1,), m_grid=(2,), mu_hat_grid=(2,), m_hat_grid=(1,), n_starts=3,
                       max_points=30, min_cdf=1e-3, kappa_range=(0.01, 50.0))
    (entry,) = fit_cdf(small_fit_data, cfg).search_trace
    pairs = prodfade.pdist._cell_plan((1, 2), (2, 1), False).pairs
    thetas, rungs = int(pairs.theta.max()) + 1, pairs.cdf.max_order + 1
    assert (thetas, rungs) == (2, 2)
    assert len(rounds) > 20 and sum(rounds) == entry["nfev"]
    assert climbs == [[n * thetas, rungs] for n in rounds]


def test_a_round_weighs_its_plan_group_in_one_formula_call(monkeypatch):
    # With kappa_range away from 0 each round is one plan group, so one
    # long-double weight-formula call weighs both links of all the
    # round's candidates, and nothing else of the round calls it.
    gen = ProductModel(SP(1.0, 2.0, 1, 3), SP(1.0, 2.0, 1, 3))
    emp = empirical_from_samples(gen.sample(np.random.default_rng(7), 5000))
    cfg = SearchConfig(mu_grid=(1,), m_grid=(3,), m_hat_grid=(2,), n_starts=3, max_points=40,
                       min_cdf=1e-3, kappa_range=(0.01, 50.0))
    calls, per_round = [], []
    link_terms, minimize = prodfade.pdist._link_terms, prodfade.fit.minimize

    def counting(links, means, kappas):
        calls.append(np.shape(kappas))
        return link_terms(links, means, kappas)

    def recording(objective, x0s, *args, **kwargs):
        def counted(thetas):
            first = len(calls)
            values = objective(thetas)
            per_round.append((len(thetas), calls[first:]))
            return values

        return minimize(counted, x0s, *args, **kwargs)

    monkeypatch.setattr(prodfade.pdist, "_link_terms", counting)
    monkeypatch.setattr(prodfade.fit, "minimize", recording)
    fit_cdf(emp, cfg)
    assert len(per_round) > 20
    assert all(shapes == [(n, 2)] for n, shapes in per_round)


@pytest.mark.parametrize("kind", ["cdf", "pdf"])
def test_a_fit_checks_and_logs_its_points_once(monkeypatch, small_fit_data, small_envelope_data,
                                               kind):
    # The points are checked, by the models' rule, and logged when a fit
    # starts; its rounds, many, take them prepared.  The parameter sets
    # scored are counted, not the evaluator calls, as the pdf fit scores
    # each finite-difference Jacobian's sets in one call.
    checks, scored = [], []
    for name in ("_points", "_envelope_points"):
        check = getattr(prodfade.pdist, name)

        def counting(*args, check=check, **kwargs):
            checks.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(prodfade.pdist, name, counting)
    rows_at = {"cdf": "_cdf_rows_at", "pdf": "_envelope_rows_at"}[kind]
    make_rows = getattr(prodfade.fit, rows_at)

    def recording(points):
        rows = make_rows(points)

        def counted(cell, sets):
            scored.append(np.shape(sets)[1])
            return rows(cell, sets)

        return counted

    monkeypatch.setattr(prodfade.fit, rows_at, recording)
    if kind == "cdf":
        fit_cdf(small_fit_data, _small_config(mu_grid=(1,), m_grid=(2, 3)))
    else:
        fit_pdf_mse(small_envelope_data, SearchConfig(mu_grid=(1,), m_grid=(3,), n_starts=1))
    assert sum(scored) > 20
    assert len(checks) == 1


@pytest.fixture
def rounds(monkeypatch):
    """Candidates per round, one entry per round, of every lockstep
    Nelder-Mead search made in the test (``prodfade.fit.minimize``)."""
    record = []
    minimize = prodfade.fit.minimize

    def recording(objective, x0s, *args, **kwargs):
        def counted(thetas):
            record.append(len(thetas))
            return objective(thetas)

        return minimize(counted, x0s, *args, **kwargs)

    monkeypatch.setattr(prodfade.fit, "minimize", recording)
    return record


@pytest.fixture
def x0s(monkeypatch):
    """Shapes of the starting vectors of every Nelder-Mead run made in
    the test; ``x0s.evals`` counts the candidates the runs score."""

    class Record(list):
        evals = 0

    record = Record()
    minimize = prodfade.fit.minimize

    def recording(objective, starts, *args, **kwargs):
        record.extend(np.shape(x0) for x0 in starts)

        def counted(thetas):
            record.evals += len(thetas)
            return objective(thetas)

        return minimize(counted, starts, *args, **kwargs)

    monkeypatch.setattr(prodfade.fit, "minimize", recording)
    return record


@pytest.fixture(scope="module")
def small_fit_data():
    gen = ProductModel(SP(1.0, 2.0, 1, 3), SP(1.0, 2.0, 1, 3))
    return empirical_from_samples(gen.sample(np.random.default_rng(7), 2000))


def _small_config(**grids):
    return SearchConfig(n_starts=2, max_points=30, min_cdf=1e-3, **grids)


@pytest.mark.parametrize("grids", [
    dict(mu_grid=(2,), m_grid=(2,)),
    dict(mu_grid=(1,), mu_hat_grid=(3,), m_grid=(1,), m_hat_grid=(3,), tie_links=True),
])
def test_kappa_free_cell_makes_no_minimize_call(x0s, small_fit_data, grids):
    # Both links have mu == m: the law does not depend on kappa, so the
    # cell is scored by one direct objective call.
    (entry,) = fit_cdf(small_fit_data, _small_config(**grids)).search_trace
    assert x0s == []
    assert (entry["kappa"], entry["kappa_hat"], entry["nfev"], entry["converged"]) == (0.0, 0.0, 1, True)


@pytest.mark.parametrize("grids,size,runs", [
    (dict(mu_grid=(1,), m_grid=(1,), m_hat_grid=(3,)), 1, 2),
    (dict(mu_grid=(1,), m_grid=(3,), m_hat_grid=(1,)), 1, 2),
    (dict(mu_grid=(1,), m_grid=(1,), m_hat_grid=(3,), tie_links=True), 1, 2),
    (dict(mu_grid=(1,), m_grid=(1,), m_hat_grid=(3,), fit_scale=True), 2, 2),
    # no free kappa: every start is the tail start, run once
    (dict(mu_grid=(1,), m_grid=(1,), fit_scale=True), 1, 1),
    (dict(mu_grid=(1,), m_grid=(3,)), 2, 2),
])
def test_search_vector_holds_only_free_coordinates(x0s, small_fit_data, grids, size, runs):
    (entry,) = fit_cdf(small_fit_data, _small_config(**grids)).search_trace
    assert x0s == [(size,)] * runs
    assert entry["nfev"] > runs


def test_equal_grids_visit_one_cell_per_mirror_pair(x0s, small_fit_data):
    res = fit_cdf(small_fit_data, _small_config(mu_grid=(1, 2), m_grid=(1, 2)))
    cells = [(t["mu"], t["mu_hat"], t["m"], t["m_hat"]) for t in res.search_trace]
    assert len(cells) == 10
    assert all((m, mu) <= (mh, muh) for mu, muh, m, mh in cells)
    # (1, 1, 1, 1), (1, 2, 1, 2) and (2, 2, 2, 2) have mu == m on both
    # links and are scored directly; the other seven run both starts
    assert [c for c, t in zip(cells, res.search_trace) if t["nfev"] == 1] == [
        (1, 1, 1, 1), (1, 2, 1, 2), (2, 2, 2, 2)]
    assert len(x0s) == 7 * 2
    assert sum(t["nfev"] for t in res.search_trace) == x0s.evals + 3


@pytest.fixture
def lsq_runs(monkeypatch):
    """One ``(calls, nfev, njev, n, status)`` per least-squares run made
    in the test: ``calls`` counts every call of the residuals,
    ``nfev``/``njev``/``status`` are the solver's own, ``n`` the size
    of the search vector.  ``lsq_runs.options`` is added to each run's
    keyword arguments."""

    class Record(list):
        options = {}

    runs = Record()
    least_squares = prodfade.fit.least_squares

    def recording(fun, x0, *args, **kwargs):
        calls = []

        def counted(theta):
            calls.append(1)
            return fun(theta)

        res = least_squares(counted, x0, *args, **dict(kwargs, **runs.options))
        runs.append((len(calls), res.nfev, res.njev, np.size(x0), res.status))
        return res

    monkeypatch.setattr(prodfade.fit, "least_squares", recording)
    return runs


@pytest.fixture(scope="module")
def small_envelope_data():
    gen = ProductModel(SP(1.0, 2.0, 1, 3), SP(1.0, 1.0, 1, 2))
    return histogram_pdf_from_samples(np.sqrt(gen.sample(np.random.default_rng(7), 5000)),
                                      bins=30)


def test_pdf_trace_counts_every_residual_call(lsq_runs, small_envelope_data):
    # least_squares' own nfev leaves out the finite-difference Jacobian's
    # calls, n per Jacobian; the trace counts them, and (1, 1, 1, 1),
    # free only in its envelope level, runs once.
    res = fit_pdf_mse(small_envelope_data, SearchConfig(mu_grid=(1,), m_grid=(1, 3),
                                                        n_starts=2))
    assert [(t["m"], t["m_hat"]) for t in res.search_trace] == [(1, 1), (1, 3), (3, 3)]
    assert [n for _, _, _, n, _ in lsq_runs] == [1, 2, 2, 3, 3]
    assert all(calls == nfev + njev * n > nfev for calls, nfev, njev, n, _ in lsq_runs)
    assert sum(t["nfev"] for t in res.search_trace) == sum(run[0] for run in lsq_runs)


@pytest.mark.parametrize("budget", [None, 2])
def test_pdf_trace_converged_is_solver_status(lsq_runs, small_envelope_data, budget):
    # status > 0: stopped on a tolerance; 0: out of evaluations
    lsq_runs.options = {"max_nfev": budget}
    cfg = SearchConfig(mu_grid=(1,), m_grid=(1,), m_hat_grid=(3,), n_starts=1)
    (entry,) = fit_pdf_mse(small_envelope_data, cfg).search_trace
    ((calls, _, _, _, status),) = lsq_runs
    assert (status > 0) is (budget is None)
    assert entry["converged"] is (status > 0) and entry["nfev"] == calls


def test_fit_json_objective_evals_sums_residual_calls(lsq_runs, small_envelope_data,
                                                      tmp_path):
    data = tmp_path / "env.csv"
    io.write_csv(data, ["x", "pdf"], [small_envelope_data.x, small_envelope_data.values])
    out = tmp_path / "fit.json"
    assert main(["fit-pdf", "--data", str(data), "--out", str(out), "--mu", "1",
                 "--m", "1,3", "--starts", "2"]) == 0
    payload = json.loads(out.read_text())
    # (1, 1, 1, 1) runs once with one start; the other two cells twice
    assert len(lsq_runs) == 5
    assert payload["objective_evals"] == sum(run[0] for run in lsq_runs)


def test_pdf_rows_merge_on_unordered_shape_pair():
    # The density kernel is symmetric in (m, m_hat): L's 900 pairs of
    # shapes 1..30 on one theta are 30 * 31 / 2 distinct kernels.
    model = ProductModel(*MODELS["L"])
    plan = model._plan.pairs.pdf
    assert model.pair_count == 900
    assert plan.theta.size == 465

"""Deterministic work counters of the kernel-sum engine.

The counters depend only on the inputs, never on timing, so a claimed
reduction in kernel work can be pinned here.  A recording wrapper
replaces ``log_bessel_k_ladder`` where ``gammagamma`` looks it up and
notes, per climb, the number of argument rows and the rungs climbed.
"""

import math

import numpy as np
import pytest

from prodfade import gammagamma
from prodfade.fit import SearchConfig, empirical_from_samples, fit_cdf
from prodfade.mixture import ShadowedParams as SP
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
    getattr(model, kind)(Z)
    assert [rows for rows, _ in climbs] == [DISTINCT_THETA[name]]
    if (name, kind) in RUNGS:
        assert climbs[0][1] == RUNGS[name, kind]


def test_plan_is_built_once_per_layout_in_a_fit(monkeypatch):
    # Each Nelder-Mead step builds a new model at new kappa but the same
    # integer cell; only the pair order (by |weight|) and the kappa = 0
    # collapse change the layout, so plans are built a handful of times.
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
    gammagamma._cdf_plan.cache_clear()
    res = fit_cdf(emp, cfg)
    builds = gammagamma._cdf_plan.cache_info().misses
    assert len(res.search_trace) == 1
    assert len(calls) >= 40
    assert 1 <= builds <= len(calls) // 5


def test_pdf_rows_merge_on_unordered_shape_pair():
    # The density kernel is symmetric in (m, m_hat): L's 900 pairs of
    # shapes 1..30 on one theta are 30 * 31 / 2 distinct kernels.
    model = ProductModel(*MODELS["L"])
    _, plan = gammagamma._plan_of(model._ka, model._kb, model._lth, gammagamma._pdf_plan)
    assert model.pair_count == 900
    assert plan.theta.size == 465

"""Fitting product-channel models to measured or simulated data.

Two estimation procedures are provided, both built around an exhaustive
search over the integer shape parameters with a derivative-free
continuous search inside each integer cell:

* :func:`fit_cdf` minimizes the modified Kolmogorov-Smirnov error

      eps = max over admissible x of |log10 Fhat(x) - log10 F(x)|,

  the natural metric when distribution functions are compared on a
  log scale, as outage curves are.  Points where the empirical CDF is
  zero (or below a configurable floor) carry no information about the
  log tail and are excluded from the admissible set.

* :func:`fit_pdf_mse` minimizes the mean squared difference between an
  empirical envelope density and the model envelope density, reporting
  the result in percent of the mean squared empirical density.

Both searches are deterministic: integer cells are visited in a fixed
order and the multi-start pattern inside each cell is a fixed spread
over the kappa range, so repeated runs return identical results.
"""

import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .mixture import ShadowedParams, _as_int
from .pdist import EnvelopeModel, ProductModel

__all__ = [
    "EmpiricalDistribution",
    "SearchConfig",
    "FitResult",
    "empirical_from_samples",
    "histogram_pdf_from_samples",
    "thin_empirical",
    "ks_error",
    "fit_cdf",
    "fit_pdf_mse",
]

_OBJ_FAILURE = 1e9  # returned when a candidate model cannot be evaluated
_TINY_CDF = 1e-300


class EmpiricalDistribution:
    """Measured curve or sample summary used as a fitting target.

    Parameters
    ----------
    kind : {"cdf", "pdf"}
        Whether ``values`` are distribution-function or density points.
    x : array_like
        Strictly increasing positive abscissae.
    values : array_like
        CDF values (non-decreasing, within [0, 1]) or density values
        (non-negative).
    sample_count : int, optional
        Number of underlying samples when the curve came from data;
        sets the default admissible floor 1/n for the KS error.
    mean : float, optional
        Mean of the underlying power samples when known; used to pin
        the model scale in fixed-scale fits.
    meta : dict, optional
        Free-form provenance (binning rule, source file, ...).
    """

    __slots__ = ("kind", "x", "values", "sample_count", "mean", "meta")

    def __init__(self, kind, x, values, sample_count=None, mean=None, meta=None):
        if kind not in ("cdf", "pdf"):
            raise ValueError("kind must be 'cdf' or 'pdf', got %r" % (kind,))
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or x.size == 0:
            raise ValueError("x and values must be equal-length 1-d arrays")
        if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
            raise ValueError("x must be finite and strictly positive")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("x must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if kind == "cdf":
            if np.any(values < 0.0) or np.any(values > 1.0):
                raise ValueError("cdf values must lie in [0, 1]")
            if np.any(np.diff(values) < 0.0):
                raise ValueError("cdf values must be non-decreasing")
        else:
            if np.any(values < 0.0):
                raise ValueError("pdf values must be non-negative")
        if sample_count is not None:
            sample_count = _as_int("sample_count", sample_count)
            if sample_count < 2:
                raise ValueError("sample_count must be >= 2 when given")
        if mean is not None:
            mean = float(mean)
            if not np.isfinite(mean) or mean <= 0.0:
                raise ValueError("mean must be finite and > 0 when given")
        x.setflags(write=False)
        values.setflags(write=False)
        self.kind = kind
        self.x = x
        self.values = values
        self.sample_count = sample_count
        self.mean = mean
        self.meta = dict(meta) if meta else {}

    def __len__(self):
        return self.x.size

    def __repr__(self):
        return "EmpiricalDistribution(kind=%r, points=%d, n=%r)" % (
            self.kind, len(self), self.sample_count,
        )


def empirical_from_samples(samples):
    """Step-function empirical CDF from raw positive samples.

    The k-th order statistic maps to CDF value k/n; tied values are
    collapsed into a single point carrying the highest rank.  The
    sample mean is stored so that fixed-scale fitting works without
    re-deriving it from the curve.

    Raises
    ------
    ValueError
        Fewer than two samples, non-positive samples, or a degenerate
        all-equal sample (a one-point CDF cannot be fitted).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two samples, got %d" % (samples.size,))
    if not np.all(np.isfinite(samples)) or np.any(samples <= 0.0):
        raise ValueError("samples must be finite and strictly positive")
    n = samples.size
    uniq, counts = np.unique(samples, return_counts=True)
    if uniq.size < 2:
        raise ValueError("degenerate sample: all values identical")
    ranks = np.cumsum(counts)
    return EmpiricalDistribution(
        "cdf", uniq, ranks / n, sample_count=n, mean=float(samples.mean()),
    )


def histogram_pdf_from_samples(samples, bins="auto"):
    """Histogram density estimate as a pdf-kind empirical distribution.

    The numpy bin-count rule used is recorded in ``meta['bins']``.
    Empty bins are kept (zero density is a legitimate observation).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(samples)) or np.any(samples <= 0.0):
        raise ValueError("samples must be finite and strictly positive")
    density, edges = np.histogram(samples, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return EmpiricalDistribution(
        "pdf", centers, density,
        sample_count=samples.size, mean=float(samples.mean()),
        meta={"bins": bins if isinstance(bins, str) else "explicit",
              "bin_count": int(density.size)},
    )


def _admissible(empirical, min_cdf):
    """Admissible (x, F) points for log-domain comparison.

    The floor defaults to 1/n for sample-derived curves and to the
    smallest positive recorded value otherwise.
    """
    if empirical.kind != "cdf":
        raise ValueError("KS error requires a cdf-kind empirical distribution")
    values = empirical.values
    if min_cdf is not None:
        floor = float(min_cdf)
        if not 0.0 < floor <= 1.0:
            raise ValueError("min_cdf must lie in (0, 1]")
    elif empirical.sample_count is not None:
        floor = 1.0 / empirical.sample_count
    else:
        positive = values[values > 0.0]
        if positive.size == 0:
            raise ValueError("empirical cdf has no positive values")
        floor = float(positive[0])
    keep = values >= floor
    if not np.any(keep):
        raise ValueError(
            "no admissible points: all empirical cdf values below %g" % (floor,)
        )
    return empirical.x[keep], values[keep]


def ks_error(empirical, model, min_cdf=None):
    """Modified KS error between an empirical CDF and a model.

    ``max |log10 Fhat - log10 F|`` over admissible points; ``model`` is
    anything exposing a vectorized ``cdf``.  Model values are floored
    at 1e-300 so a hard zero shows up as a huge (but finite) error
    rather than an exception.
    """
    x, f_emp = _admissible(empirical, min_cdf)
    f_mod = np.maximum(np.asarray(model.cdf(x), dtype=float), _TINY_CDF)
    return float(np.max(np.abs(np.log10(f_mod) - np.log10(f_emp))))


def thin_empirical(empirical, max_points, min_cdf=None):
    """Reduce a cdf-kind curve to at most ``max_points`` admissible points.

    Points are picked evenly in log10 of the empirical CDF so that
    every decade of the tail keeps representation; the first and last
    admissible points always survive.  Thinning is deterministic, and
    the result carries the same sample count and mean.
    """
    x, f_emp = _admissible(empirical, min_cdf)
    max_points = int(max_points)
    if max_points < 2:
        raise ValueError("max_points must be >= 2")
    if x.size > max_points:
        logf = np.log10(f_emp)
        targets = np.linspace(logf[0], logf[-1], max_points)
        idx = np.searchsorted(logf, targets)
        idx = np.clip(idx, 0, logf.size - 1)
        left = np.clip(idx - 1, 0, logf.size - 1)
        take_left = np.abs(logf[left] - targets) < np.abs(logf[idx] - targets)
        idx = np.unique(np.where(take_left, left, idx))
        x, f_emp = x[idx], f_emp[idx]
    return EmpiricalDistribution(
        "cdf", x, f_emp,
        sample_count=empirical.sample_count, mean=empirical.mean,
        meta=dict(empirical.meta, thinned=True),
    )


@dataclass(frozen=True)
class SearchConfig:
    """Search space and optimizer settings for the fitting routines.

    The integer grids default to the bounded-m scan with single-cluster
    links; pass explicit tuples to widen them.  ``m_hat_grid`` and
    ``mu_hat_grid`` default to mirroring their unhatted counterparts.

    ``tie_links`` constrains both links to identical parameters (the
    symmetric-link special case); ``fit_scale`` frees the overall power
    scale instead of pinning it to the empirical mean.

    ``tie_tol`` declares two integer cells equal in fit quality when
    their objectives differ by less than this amount; the winner among
    equal cells is the least complex one (smallest m + m_hat, then
    smallest mu + mu_hat).  Shadowing severity is weakly identifiable
    from finite samples — cells with different (m, m_hat) often reach
    objectives separated by far less than the sampling noise — so
    without the tolerance the reported cell would be an arbitrary draw
    from the tied set rather than the simplest adequate model.
    """

    max_m: int = 30
    mu_grid: tuple = (1,)
    mu_hat_grid: tuple = None
    m_grid: tuple = None
    m_hat_grid: tuple = None
    kappa_range: tuple = (0.0, 50.0)
    tie_links: bool = False
    fit_scale: bool = False
    total_scale: float = None
    envelope_scale_range: tuple = None
    n_starts: int = 5
    kappa_tol: float = 1e-4
    max_points: int = 200
    min_cdf: float = None
    tie_tol: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "max_m", _as_int("max_m", self.max_m))
        lo, hi = (float(v) for v in self.kappa_range)
        if not 0.0 <= lo < hi:
            raise ValueError("kappa_range must satisfy 0 <= lo < hi")
        object.__setattr__(self, "kappa_range", (lo, hi))
        object.__setattr__(self, "n_starts", _as_int("n_starts", self.n_starts))
        if not float(self.tie_tol) >= 0.0:
            raise ValueError("tie_tol must be >= 0")
        object.__setattr__(self, "tie_tol", float(self.tie_tol))
        for name in ("mu_grid", "mu_hat_grid", "m_grid", "m_hat_grid"):
            grid = getattr(self, name)
            if grid is not None:
                grid = tuple(_as_int(name, v) for v in grid)
                if len(grid) == 0:
                    raise ValueError("%s must be a non-empty tuple of ints >= 1" % name)
                object.__setattr__(self, name, grid)

    def resolved_grids(self):
        """(mu, mu_hat, m, m_hat) grids with defaults filled in."""
        mu = self.mu_grid
        mu_hat = self.mu_hat_grid if self.mu_hat_grid is not None else mu
        m = self.m_grid if self.m_grid is not None else tuple(range(1, self.max_m + 1))
        m_hat = self.m_hat_grid if self.m_hat_grid is not None else m
        return mu, mu_hat, m, m_hat

    def kappa_starts(self):
        """Deterministic spread of kappa starting points over the range."""
        lo, hi = self.kappa_range
        grid = np.linspace(math.log1p(lo), math.log1p(hi), self.n_starts + 2)[1:-1]
        return np.expm1(grid)


@dataclass
class FitResult:
    """Outcome of a grid-plus-local search.

    ``search_trace`` holds one entry per integer cell: the cell, the
    best continuous parameters found in it, its objective value and
    whether the local search converged.  The entries appear in visit
    order regardless of which cell won.
    """

    model: ProductModel
    objective: str
    objective_value: float
    search_trace: list = field(default_factory=list)
    envelope_scale: float = None
    config: SearchConfig = None

    def parameters(self):
        """Winning parameters as a plain JSON-ready dict."""
        a, b = self.model.link_a, self.model.link_b
        out = {
            "link_a": {"mean_power": a.mean_power, "kappa": a.kappa, "mu": a.mu, "m": a.m},
            "link_b": {"mean_power": b.mean_power, "kappa": b.kappa, "mu": b.mu, "m": b.m},
            "objective": self.objective,
            "objective_value": self.objective_value,
        }
        if self.envelope_scale is not None:
            out["envelope_scale"] = self.envelope_scale
        return out


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    Only the fits use ``scipy.optimize``, and its import is a large
    share of a CLI command's start-up, so commands that fit nothing
    never load it.  ``_minimize_cell`` looks this name
    up in the module on each call, so it stays the one to patch.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _minimize_cell(objective, starts, bounds, kappa_tol):
    """Best of several bounded Nelder-Mead runs; returns (theta, value, ok)."""
    best = (None, math.inf, False)
    for theta0 in starts:
        res = minimize(
            objective, np.asarray(theta0, dtype=float),
            method="Nelder-Mead", bounds=bounds,
            options={"xatol": kappa_tol, "fatol": 1e-7, "maxfev": 600},
        )
        if res.fun < best[1]:
            best = (np.asarray(res.x, dtype=float), float(res.fun), bool(res.success))
    return best


def _search_cells(config, make_objective, level_name, level, tail=None):
    """Grid search shared by both fits; returns the search trace.

    Every integer cell of ``config.resolved_grids()`` gets a bounded
    Nelder-Mead run from each kappa start.  The search vector is
    ``(kappa, kappa_hat, t)``: ``kappa_hat`` is dropped when the links
    are tied, and the trailing ``t`` is there only when ``tail`` gives
    its ``(start, bounds)``.  ``level(t)`` (``level(None)`` without a
    tail) is the scale the fit reports under ``level_name``.

    ``make_objective(mu, mu_hat, m, m_hat)`` returns the cell's
    ``score(kappa, kappa_hat, level)``.  A candidate whose model raises
    a numerical or validation error, or whose score is not finite,
    scores ``_OBJ_FAILURE``.

    In a symmetric cell (``mu == mu_hat``, ``m == m_hat``, links not
    tied) swapping ``kappa`` and ``kappa_hat`` gives the same law, since
    only the product of the two scales is identifiable; the trace
    reports such a cell in the canonical order ``kappa >= kappa_hat``.

    Raises
    ------
    ArithmeticError
        If no candidate of any cell could be scored.
    """
    bounds = [config.kappa_range] if config.tie_links else [config.kappa_range] * 2
    starts = []
    for k0 in config.kappa_starts():
        theta0 = [k0] if config.tie_links else [k0, k0]
        if tail is not None:
            theta0.append(tail[0])
        starts.append(theta0)
    if tail is not None:
        bounds.append(tail[1])

    def unpack(theta):
        kap = theta[0]
        kaph = kap if config.tie_links else theta[1]
        return kap, kaph, level(theta[-1] if tail is not None else None)

    trace = []
    for mu, mu_hat, m, m_hat in iter_product(*config.resolved_grids()):
        score = make_objective(mu, mu_hat, m, m_hat)

        def objective(theta):
            try:
                value = score(*unpack(theta))
            except (ArithmeticError, OverflowError, ValueError):
                return _OBJ_FAILURE
            return value if math.isfinite(value) else _OBJ_FAILURE

        theta, value, ok = _minimize_cell(objective, starts, bounds, config.kappa_tol)
        kap, kaph, lev = unpack([float(t) for t in theta])
        if (mu, m) == (mu_hat, m_hat) and kap < kaph:
            kap, kaph = kaph, kap
        trace.append({
            "mu": mu, "mu_hat": mu_hat, "m": m, "m_hat": m_hat,
            "kappa": kap, "kappa_hat": kaph, level_name: lev,
            "objective": value, "converged": ok,
        })
    if all(entry["objective"] >= _OBJ_FAILURE for entry in trace):
        raise ArithmeticError("no candidate model of any integer cell could be evaluated")
    return trace


def _select_winner(trace, tie_tol=0.0, field="objective"):
    """Least complex cell among those within ``tie_tol`` of the best objective.

    Complexity order: smallest m + m_hat, then smallest mu + mu_hat,
    then the objective itself.  With ``tie_tol == 0`` only exact ties
    are grouped and this reduces to a plain argmin.  ``field`` names
    the trace entry used for the cutoff (the cdf fit compares the
    log-domain error directly; the pdf fit compares the scale-free
    percent form).
    """
    cutoff = min(entry[field] for entry in trace) + tie_tol
    def key(entry):
        return (
            entry["m"] + entry["m_hat"],
            entry["mu"] + entry["mu_hat"],
            entry[field],
            entry["m"], entry["mu"],
        )
    return min((e for e in trace if e[field] <= cutoff), key=key)


def fit_cdf(empirical, config=None):
    """Bounded-m search minimizing the modified KS error.

    The empirical curve is restricted to its admissible points and
    thinned to ``config.max_points`` (evenly in log10 F) before the
    search; the reported objective is evaluated on that same reduced
    grid, so enlarging the integer search space can only improve it.

    The model scale is pinned to the empirical mean unless
    ``config.fit_scale`` frees it or ``config.total_scale`` overrides
    it; the second link always carries unit mean power, since only the
    product of the two scales is identifiable.

    Returns
    -------
    FitResult
        With ``objective == "ks_error"``.
    """
    config = config or SearchConfig()
    reduced = thin_empirical(empirical, config.max_points, config.min_cdf)
    x_eval = reduced.x
    logf_emp = np.log10(reduced.values)

    if config.total_scale is not None:
        scale0 = float(config.total_scale)
    elif reduced.mean is not None:
        scale0 = reduced.mean
    elif config.fit_scale:
        # crude but deterministic: geometric center of the admissible span
        scale0 = float(np.exp(np.mean(np.log(x_eval))))
    else:
        raise ValueError(
            "empirical mean unavailable: pass total_scale or enable fit_scale"
        )
    if not np.isfinite(scale0) or scale0 <= 0.0:
        raise ValueError("model scale must be finite and > 0, got %r" % (scale0,))

    def make_objective(mu, mu_hat, m, m_hat):
        def score(kap, kaph, scale):
            model = ProductModel(
                ShadowedParams(scale, kap, mu, m),
                ShadowedParams(1.0, kaph, mu_hat, m_hat),
            )
            err = np.maximum(model.cdf(x_eval), _TINY_CDF)
            np.log10(err, out=err)
            err -= logf_emp
            return float(np.abs(err, out=err).max())
        return score

    def level(t):
        return scale0 if t is None else scale0 * math.exp(t)

    tail = (0.0, (-10.0, 10.0)) if config.fit_scale else None
    trace = _search_cells(config, make_objective, "total_scale", level, tail)
    best = _select_winner(trace, config.tie_tol)
    model = ProductModel(
        ShadowedParams(best["total_scale"], best["kappa"], best["mu"], best["m"]),
        ShadowedParams(1.0, best["kappa_hat"], best["mu_hat"], best["m_hat"]),
    )
    return FitResult(
        model=model, objective="ks_error", objective_value=best["objective"],
        search_trace=trace, config=config,
    )


def fit_pdf_mse(empirical, config=None):
    """Bounded-m search minimizing the envelope-density MSE.

    Fits ``(kappa, kappa_hat, m, m_hat)`` plus the mean envelope level
    on unit-mean links; the reported objective is the minimized mean
    squared difference in percent of the mean squared empirical
    density.

    Returns
    -------
    FitResult
        With ``objective == "mse_percent"`` and ``envelope_scale`` set.
    """
    config = config or SearchConfig()
    if empirical.kind != "pdf":
        raise ValueError("fit_pdf_mse requires a pdf-kind empirical distribution")
    r = empirical.x
    f_emp = empirical.values
    if not np.any(f_emp > 0.0):
        raise ValueError("empirical pdf is identically zero")

    # E[R] equals the envelope level by construction, so the trapezoid
    # mean of the data is both the natural start and the range anchor.
    mass = np.trapezoid(f_emp, r)
    if mass <= 0.0:
        raise ValueError("empirical pdf has non-positive mass")
    r_mean = float(np.trapezoid(r * f_emp, r) / mass)
    if config.envelope_scale_range is not None:
        s_lo, s_hi = (float(v) for v in config.envelope_scale_range)
    else:
        s_lo, s_hi = r_mean / 5.0, r_mean * 5.0
    if not 0.0 < s_lo < s_hi:
        raise ValueError("envelope_scale_range must satisfy 0 < lo < hi")
    msq_emp = float(np.mean(f_emp**2))

    def make_objective(mu, mu_hat, m, m_hat):
        def score(kap, kaph, scale):
            model = EnvelopeModel(
                ProductModel(
                    ShadowedParams(1.0, kap, mu, m),
                    ShadowedParams(1.0, kaph, mu_hat, m_hat),
                ),
                scale,
            )
            err = model.pdf(r) - f_emp
            err *= err
            # the sum and division of np.mean, without its dispatch
            return float(err.sum() / err.size)
        return score

    tail = (min(max(r_mean, s_lo), s_hi), (s_lo, s_hi))
    trace = _search_cells(config, make_objective, "envelope_scale", lambda t: t, tail)
    for entry in trace:
        entry["mse_percent"] = 100.0 * entry["objective"] / msq_emp

    best = _select_winner(trace, config.tie_tol, field="mse_percent")
    model = ProductModel(
        ShadowedParams(1.0, best["kappa"], best["mu"], best["m"]),
        ShadowedParams(1.0, best["kappa_hat"], best["mu_hat"], best["m_hat"]),
    )
    return FitResult(
        model=model, objective="mse_percent",
        objective_value=best["mse_percent"],
        search_trace=trace, envelope_scale=best["envelope_scale"], config=config,
    )

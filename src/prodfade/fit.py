"""Fitting product-channel models to measured or simulated data.

Two estimation procedures are provided, both built on one exhaustive
search over the integer shape parameters with a bounded continuous
search inside each integer cell.  Each fit hands the search its vector
of model-minus-data residuals, weighed a batch of candidates at a time on
the cell's cached plan, with no model built, by the evaluator it builds
once per fit on its points (:func:`prodfade.pdist._cdf_rows_at`,
:func:`prodfade.pdist._envelope_rows_at`); the search minimizes a norm
of it:

* :func:`fit_cdf` minimizes the modified Kolmogorov-Smirnov error

      eps = max over admissible x of |log10 Fhat(x) - log10 F(x)|,

  the natural metric when distribution functions are compared on a
  log scale, as outage curves are.  Points where the empirical CDF is
  zero (or below a configurable floor) carry no information about the
  log tail and are excluded from the admissible set.  A max of
  residuals has kinks, so the search is derivative-free: bounded
  Nelder-Mead runs (:func:`minimize`, step for step SciPy's), one per
  start, advanced in lockstep.  Each round scores the pending candidate
  of every run in one batched call.

* :func:`fit_pdf_mse` minimizes the mean squared difference between an
  empirical envelope density and the model envelope density, reporting
  the result in percent of the mean squared empirical density.  A sum
  of squares is smooth, so the search is bounded nonlinear least
  squares (trust-region reflective, finite-difference Jacobian), which
  scores the base and trial points one at a time and each Jacobian's
  points in one batched call.

Both searches are deterministic: integer cells are visited in a fixed
order and the multi-start pattern inside each cell is a fixed spread
over the kappa range, so repeated runs return identical results.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .mixture import ShadowedParams, _as_int, _positive, _span
from .pdist import ProductModel, _cdf_rows_at, _envelope_rows_at

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
#: fit_cdf's Nelder-Mead stops on this absolute spread of its simplex in each coordinate.
_SIMPLEX_XATOL = 1e-4
#: fit_pdf_mse's least squares stops on a step this small relative to the parameters' norm.
_LEAST_SQUARES_XTOL = 1e-4


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
        lo, hi = _span(x)
        if not (lo > 0.0 and hi < math.inf):
            raise ValueError("x must be finite and strictly positive")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("x must be strictly increasing")
        lo, hi = _span(values)
        if not (lo > -math.inf and hi < math.inf):
            raise ValueError("values must be finite")
        if kind == "cdf":
            if not (lo >= 0.0 and hi <= 1.0):
                raise ValueError("cdf values must lie in [0, 1]")
            if np.any(np.diff(values) < 0.0):
                raise ValueError("cdf values must be non-decreasing")
        elif not lo >= 0.0:
            raise ValueError("pdf values must be non-negative")
        if sample_count is not None:
            sample_count = _as_int("sample_count", sample_count)
            if sample_count < 2:
                raise ValueError("sample_count must be >= 2 when given")
        if mean is not None:
            mean = _positive("mean", mean)
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


def _sample_array(samples):
    """``samples`` as a 1-d float array of at least two finite positive draws."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two samples, got %d" % (samples.size,))
    lo, hi = _span(samples)
    if not (lo > 0.0 and hi < math.inf):
        raise ValueError("samples must be finite and strictly positive")
    return samples


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
    samples = _sample_array(samples)
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
    samples = _sample_array(samples)
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
    smallest positive recorded value otherwise.  cdf values are
    non-decreasing, so the admissible points are a suffix of the curve,
    returned as views of its arrays.
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
        first_positive = values.searchsorted(0.0, side="right")
        if first_positive == values.size:
            raise ValueError("empirical cdf has no positive values")
        floor = float(values[first_positive])
    start = values.searchsorted(floor)
    if start == values.size:
        raise ValueError(
            "no admissible points: all empirical cdf values below %g" % (floor,)
        )
    return empirical.x[start:], values[start:]


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
    max_points = _as_int("max_points", max_points)
    if max_points < 2:
        raise ValueError("max_points must be >= 2, got %d" % max_points)
    if x.size > max_points:
        logf = np.log10(f_emp)
        targets = np.linspace(logf[0], logf[-1], max_points)
        idx = np.searchsorted(logf, targets)
        idx = np.clip(idx, 0, logf.size - 1)
        left = np.clip(idx - 1, 0, logf.size - 1)
        take_left = np.abs(logf[left] - targets) < np.abs(logf[idx] - targets)
        idx = np.where(take_left, left, idx)
        idx[-1] = logf.size - 1   # not the first point of a flat run that ends the curve
        idx = np.unique(idx)
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

    ``tie_links`` constrains both links to one kappa (the symmetric-link
    special case); ``fit_scale`` frees the overall power scale instead
    of pinning it to the empirical mean.

    A link with ``mu == m`` is Gamma(m, mean/m) at every kappa, so its
    kappa is not identifiable; the search holds it at 0 and reports it
    as 0, whatever ``kappa_range`` (tied links share one kappa, held at
    0 only when both links have ``mu == m``).  When the hatted grids
    hold the same values as the unhatted ones, each mirror pair of
    cells, one law with the links swapped, is fitted once.

    Each local search stops on its own fixed step, 1e-4: :func:`fit_cdf`'s
    Nelder-Mead on a simplex within ``_SIMPLEX_XATOL`` in each coordinate,
    :func:`fit_pdf_mse`'s least squares on a step of ``_LEAST_SQUARES_XTOL``
    relative to the parameters' norm.

    ``kappa_range`` is finite, ``max_points`` an integer >= 2 and
    ``min_cdf``, when given, in (0, 1]; anything else raises
    ``ValueError`` here.

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
    max_points: int = 200
    min_cdf: float = None
    tie_tol: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "max_m", _as_int("max_m", self.max_m))
        lo, hi = (float(v) for v in self.kappa_range)
        if not (0.0 <= lo < hi and math.isfinite(hi)):
            raise ValueError("kappa_range must satisfy 0 <= lo < hi < inf")
        object.__setattr__(self, "kappa_range", (lo, hi))
        object.__setattr__(self, "n_starts", _as_int("n_starts", self.n_starts))
        max_points = _as_int("max_points", self.max_points)
        if max_points < 2:
            raise ValueError("max_points must be >= 2, got %d" % max_points)
        object.__setattr__(self, "max_points", max_points)
        if self.min_cdf is not None:
            min_cdf = float(self.min_cdf)
            if not 0.0 < min_cdf <= 1.0:
                raise ValueError("min_cdf must lie in (0, 1], got %r" % (self.min_cdf,))
            object.__setattr__(self, "min_cdf", min_cdf)
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

    ``search_trace`` holds one entry per visited integer cell: the cell,
    the best continuous parameters found in it, its objective value,
    ``converged``, whether the local search behind that value stopped on
    its tolerances (``_SIMPLEX_XATOL`` in :func:`fit_cdf`,
    ``_LEAST_SQUARES_XTOL`` in :func:`fit_pdf_mse`; see :class:`SearchConfig`),
    and ``nfev``, the residual calls made in the cell, finite-difference
    Jacobian steps included.  A cell none of whose candidates could be
    evaluated has objective ``1e9``.  The entries appear in visit order
    regardless of which cell won.  With equal grids only one cell of each
    mirror pair is visited, and the kappa of an untied link with ``mu ==
    m`` is 0 (see :class:`SearchConfig`).
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


#: What :func:`minimize` returns per start: the best vertex, its value,
#: the objective calls made, and whether the run stopped on its
#: tolerances (not on ``maxfev``).
NelderMeadResult = namedtuple("NelderMeadResult", "x fun nfev success")


def _nelder_mead(x0, lower, upper, xatol, fatol, maxfev):
    """One bounded Nelder-Mead run, as a generator of objective calls.

    Each ``yield`` is a point (a list of floats) at which the run needs
    the objective, and the value is sent back; the run returns a
    :data:`NelderMeadResult`.  The steps are those of
    ``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)`` with
    its default, non-adaptive coefficients (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2): the start is clipped into the bounds,
    the initial simplex steps each coordinate by 5% (or to 0.00025 from
    zero) and is reflected into the bounds and clipped, every trial
    point is clipped, the run stops when the simplex is within
    ``xatol`` and its values within ``fatol`` of the best vertex, and a
    call past ``maxfev`` is refused, abandoning the step that asked for
    it.  Vertices are ordered as scipy orders them, by ``np.argsort``:
    ``sorted`` gives the same order, and so stands in for it, when the
    values are distinct and not NaN; otherwise ``np.argsort`` does, as
    it breaks ties its own way, not as a stable sort would.
    """
    n = len(x0)
    bounds = list(zip(lower, upper))

    def clip(point):
        return [min(max(v, lo), hi) for v, (lo, hi) in zip(point, bounds)]

    x0 = clip(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim = [clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(p, bounds)]) for p in sim]
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def ordered():
        order = sorted(range(n + 1), key=fsim.__getitem__)
        # written so that NaN takes np.argsort too
        if not all(fsim[i] < fsim[j] for i, j in zip(order, order[1:])):
            order = np.argsort(fsim).tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    for k in range(n + 1):
        if nfev >= maxfev:
            break
        nfev += 1
        fsim[k] = yield sim[k]
    for _ in range(2):   # scipy sorts twice here, and np.argsort breaks ties unstably
        sim, fsim = ordered()
    while nfev < maxfev:
        best = sim[0]
        if (all(abs(p[i] - best[i]) <= xatol for p in sim[1:] for i in range(n))
                and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])):
            break
        worst = sim[-1]
        # the centroid's sums accumulate vertex after vertex, as numpy's
        # do (not by sum(), which compensates from Python 3.12 on)
        xbar = list(best)
        for p in sim[1:-1]:
            xbar = [c + v for c, v in zip(xbar, p)]
        xbar = [c / n for c in xbar]
        xr = clip([2 * b - w for b, w in zip(xbar, worst)])
        nfev += 1
        fxr = yield xr
        if fxr < fsim[0]:
            if nfev >= maxfev:
                sim, fsim = ordered()
                break
            xe = clip([3 * b - 2 * w for b, w in zip(xbar, worst)])
            nfev += 1
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:   # outside contraction
                xc = clip([1.5 * b - 0.5 * w for b, w in zip(xbar, worst)])
                accept = lambda fxc: fxc <= fxr  # noqa: E731
            else:                # inside contraction
                xc = clip([0.5 * b + 0.5 * w for b, w in zip(xbar, worst)])
                accept = lambda fxc: fxc < fsim[-1]  # noqa: E731
            if nfev >= maxfev:
                sim, fsim = ordered()
                break
            nfev += 1
            fxc = yield xc
            if accept(fxc):
                sim[-1], fsim[-1] = xc, fxc
            else:                # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = clip([b + 0.5 * (v - b) for b, v in zip(best, sim[j])])
                    if nfev >= maxfev:
                        break
                    nfev += 1
                    fsim[j] = yield sim[j]
        sim, fsim = ordered()
    return NelderMeadResult(np.array(sim[0]), float(np.min(fsim)), nfev, nfev < maxfev)


def minimize(fun, x0s, bounds, xatol, fatol=1e-7, maxfev=600):
    """Bounded Nelder-Mead runs from every start of ``x0s``, in lockstep.

    Each run is :func:`_nelder_mead`, step for step the bounded
    Nelder-Mead of ``scipy.optimize.minimize``.  The runs advance in
    rounds: a round collects the pending point of every live run and
    scores them all in one call, ``fun(points)``, with ``points`` a
    (runs x coordinates) array, which returns one value per point.  A
    run's result does not depend on the runs beside it.  Returns one
    :data:`NelderMeadResult` per start.

    The fits look this name up in the module on each search, so it
    stays the one to patch: a wrapper of ``fun`` sees one call per
    round.
    """
    lower, upper = (list(map(float, b)) for b in zip(*bounds))
    runs = [_nelder_mead([float(v) for v in x0], lower, upper, xatol, fatol, maxfev)
            for x0 in x0s]
    results = [None] * len(runs)
    live, points = [], []     # the runs that wait for a value, and their points

    def advance(i, value):
        try:
            points.append(runs[i].send(value))
            live.append(i)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    while live:
        round_runs, round_points = live, points
        live, points = [], []
        for i, value in zip(round_runs, fun(np.array(round_points, dtype=float))):
            advance(i, float(value))
    return results


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call.

    Only the pdf fit uses ``scipy.optimize``, and its import is a large
    share of a CLI command's start-up, so commands that fit no pdf
    never load it.  ``_least_squares_cell`` looks this name up in the
    module on each call, so it stays the one to patch.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


def _max_abs(r):
    """``max |r_i|`` of each row of ``r``, the cdf fit's objective; overwrites ``r``."""
    return np.abs(r, out=r).max(axis=1, initial=-math.inf)


def _sum_squares(r):
    """``sum r_i**2`` of each row of ``r``, the pdf fit's objective."""
    return np.array([row @ row for row in r])


def _nelder_mead_cell(evaluate, starts, bounds):
    """Best of bounded Nelder-Mead runs on the objective ``evaluate(thetas)[1]``.

    The runs from all starts advance in lockstep (:func:`minimize`), so
    each round scores its candidates in one batched call, and stops on
    ``_SIMPLEX_XATOL``.  Returns ``(theta, value, converged)``.
    """
    best = (None, math.inf, False)
    for res in minimize(lambda thetas: evaluate(thetas)[1], starts, bounds,
                        xatol=_SIMPLEX_XATOL):
        if res.fun < best[1]:
            best = (res.x, res.fun, res.success)
    return best


def _least_squares_cell(evaluate, starts, bounds):
    """Best of bounded least-squares runs on the residuals ``evaluate(thetas)[0]``.

    Trust-region reflective (Branch, Coleman & Li, SIAM J. Sci. Comput.
    21, 1999) with a forward-difference Jacobian, stopped when a step
    is below ``_LEAST_SQUARES_XTOL`` relative to the parameters.  The
    solver asks for its base and trial points one at a time, each a
    one-row batch of ``evaluate``.  It maps its function over a
    Jacobian's points through ``workers`` (SciPy >= 1.16), which scores
    them all in one batch and hands each row back through the solver's
    own function, so SciPy forms the differences and steps as it would
    from one call per point, on the same bits.  The final residuals
    are normed as a row.  Returns ``(theta, value, converged)``,
    ``value`` the sum of squares and ``converged`` whether the solver
    stopped on a tolerance.
    """
    lower, upper = np.array(bounds, dtype=float).T
    scored = {}

    def residuals(theta):
        row = scored.pop(theta.tobytes(), None)
        return evaluate(theta[None])[0][0] if row is None else row

    def jacobian_points(fun, points):
        points = list(points)
        for point, row in zip(points, evaluate(np.array(points))[0]):
            scored[point.tobytes()] = row
        return [fun(point) for point in points]

    best = (None, math.inf, False)
    for theta0 in starts:
        res = least_squares(
            residuals, np.asarray(theta0, dtype=float), bounds=(lower, upper), method="trf",
            x_scale="jac", xtol=_LEAST_SQUARES_XTOL, workers=jacobian_points,
        )
        value = float(_sum_squares(res.fun[None])[0])
        if value < best[1]:
            best = (np.asarray(res.x, dtype=float), value, bool(res.status > 0))
    return best


#: The local search that minimizes each objective over a cell.
_LOCAL_SEARCH = {_max_abs: _nelder_mead_cell, _sum_squares: _least_squares_cell}


def _visited_cells(config):
    """Integer cells ``(mu, mu_hat, m, m_hat)`` the search visits, in order.

    A cell and its mirror ``(mu_hat, mu, m_hat, m)`` define the same
    product law with the kappas swapped, since only the product of the
    two scales is identifiable.  When the hatted grids hold the same
    values as the unhatted ones, every mirror is in the grid, so only
    the cell with ``(m, mu) <= (m_hat, mu_hat)`` of each pair is visited:
    the one ``_select_winner``'s last tie-break prefers.
    """
    mu, mu_hat, m, m_hat = grids = config.resolved_grids()
    cells = iter_product(*grids)
    if set(mu) == set(mu_hat) and set(m) == set(m_hat):
        return [c for c in cells if (c[2], c[0]) <= (c[3], c[1])]
    return list(cells)


def _search_cells(config, residuals, norm, level_name, level, tail=None):
    """Grid search shared by both fits; returns the search trace.

    ``residuals(cell, kappas, kappa_hats, levels)``, with ``cell`` in
    pdist's order ``(mu, m, mu_hat, m_hat)`` and arrays of one value per
    candidate, gives a (candidates x residuals) array of model minus data
    values, and per candidate whether it could be evaluated; both fits
    weigh a batch on the cell's plan in one engine call.  ``norm`` turns
    each row into the objective: ``_max_abs``, searched by bounded
    Nelder-Mead runs in lockstep, which score whole rounds, or
    ``_sum_squares``, searched by bounded least squares, which passes
    one-row batches for its base and trial points and one batch per
    finite-difference Jacobian.  The failure rule, the ``nfev`` count
    and the norm are applied here, for both.  Every integer cell of
    ``_visited_cells(config)`` gets one run from each kappa start, over
    the kappas its law depends on and, when ``tail`` gives its
    ``(start, bounds)``, a trailing ``t``.  ``level(t)`` (``level(None)``
    without a tail) is the scale the fit reports under ``level_name``.

    A link with ``mu == m`` is Gamma(m, mean/m) at every kappa, so its
    kappa is not identifiable: it is held at 0.0, built, traced and
    reported as such.  Tied links share one kappa, searched unless both
    links have ``mu == m``.  A cell left with no coordinate is scored
    by one direct call to its residuals and marked converged.

    A candidate that cannot be evaluated, or whose objective is not
    finite, scores ``_OBJ_FAILURE`` alone, and least squares sees
    residuals of ``_OBJ_FAILURE`` each there; a cell whose best
    objective reaches ``_OBJ_FAILURE`` is traced with that value.  Each
    trace entry records ``nfev``, the candidates scored in the cell
    (finite-difference Jacobian steps included).

    In a symmetric cell (``mu == mu_hat``, ``m == m_hat``, links not
    tied) swapping ``kappa`` and ``kappa_hat`` gives the same law; the
    trace reports such a cell in the canonical order ``kappa >= kappa_hat``.

    Raises
    ------
    ArithmeticError
        If no candidate of any cell could be scored.
    """
    search = _LOCAL_SEARCH[norm]
    tail_start, tail_bounds = ([], []) if tail is None else ([tail[0]], [tail[1]])
    trace = []
    for mu, mu_hat, m, m_hat in _visited_cells(config):
        free_a, free_b = mu != m, mu_hat != m_hat
        # positions of kappa and kappa_hat in the search vector, or None
        if config.tie_links:
            ia = ib = 0 if free_a or free_b else None
        else:
            ia = 0 if free_a else None
            ib = int(free_a) if free_b else None
        n_kappa = len({ia, ib} - {None})
        cell = (mu, m, mu_hat, m_hat)
        nfev = 0

        def unpack(thetas):
            """Kappas and levels, one array each, of the rows of ``thetas``."""
            held = np.zeros(len(thetas))
            levels = (np.full(len(thetas), level(None)) if tail is None
                      else np.array([level(t) for t in thetas[:, -1].tolist()]))
            return (held if ia is None else thetas[:, ia], held if ib is None else thetas[:, ib],
                    levels)

        def evaluate(thetas):
            """``(r, norm(r))`` at the rows of ``thetas`` (``norm`` may
            overwrite ``r``), failed rows set to ``_OBJ_FAILURE``."""
            nonlocal nfev
            nfev += len(thetas)
            r, ok = residuals(cell, *unpack(thetas))
            values = norm(r)
            failed = ~(ok & np.isfinite(values))
            if failed.any():
                r[failed] = values[failed] = _OBJ_FAILURE
            return r, values

        if n_kappa == 0 and tail is None:
            theta, value, ok = (), float(evaluate(np.empty((1, 0)))[1][0]), True
        else:
            # without a free kappa every start is the tail start: run it once
            starts = dict.fromkeys(tuple([k0] * n_kappa + tail_start)
                                   for k0 in config.kappa_starts())
            bounds = [config.kappa_range] * n_kappa + tail_bounds
            theta, value, ok = search(evaluate, starts, bounds)
        kap, kaph, lev = (float(v[0]) for v in unpack(np.array([theta], dtype=float)))
        if (mu, m) == (mu_hat, m_hat) and kap < kaph:
            kap, kaph = kaph, kap
        trace.append({
            "mu": mu, "mu_hat": mu_hat, "m": m, "m_hat": m_hat,
            "kappa": kap, "kappa_hat": kaph, level_name: lev,
            "objective": min(value, _OBJ_FAILURE), "converged": ok, "nfev": nfev,
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
        scale0 = config.total_scale
    elif reduced.mean is not None:
        scale0 = reduced.mean
    elif config.fit_scale:
        # crude but deterministic: geometric center of the admissible span
        scale0 = np.exp(np.mean(np.log(x_eval)))
    else:
        raise ValueError(
            "empirical mean unavailable: pass total_scale or enable fit_scale"
        )
    scale0 = _positive("model scale", scale0)
    cdf_rows = _cdf_rows_at(x_eval)

    def residuals(cell, kappas, kappa_hats, scales):
        err, ok = cdf_rows(cell, np.array((scales, kappas, np.ones(scales.size), kappa_hats)))
        np.maximum(err, _TINY_CDF, out=err)
        np.log10(err, out=err)
        err -= logf_emp
        return err, ok

    def level(t):
        return scale0 if t is None else scale0 * math.exp(t)

    tail = (0.0, (-10.0, 10.0)) if config.fit_scale else None
    trace = _search_cells(config, residuals, _max_abs, "total_scale", level, tail)
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
    density.  In each integer cell, bounded least squares (trust-region
    reflective, finite-difference Jacobian) runs on the residuals
    ``(pdf - f_emp) / sqrt(n)`` from each kappa start, within
    ``kappa_range`` and the envelope range (a fifth to five times the
    data's mean envelope, unless ``envelope_scale_range`` is given).

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

    root_n = math.sqrt(r.size)
    pdf_rows = _envelope_rows_at(r)

    def residuals(cell, kappas, kappa_hats, scales):
        ones = np.ones(scales.size)
        err, ok = pdf_rows(cell, np.array((ones, kappas, ones, kappa_hats, scales)))
        err -= f_emp
        err /= root_n
        return err, ok

    tail = (min(max(r_mean, s_lo), s_hi), (s_lo, s_hi))
    trace = _search_cells(config, residuals, _sum_squares, "envelope_scale",
                          lambda t: t, tail)
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

"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the ``prodfade`` modules at run
time, where the callers look them up, and never edits the library.
Every wrapped call records a span ``[name, start, end, parent, request,
busy, failed]``; spans stay in memory and are written out when the run
ends.  A span's self time is its busy time minus the busy time of its
child spans.  ``log_bessel_k_ladder`` is a generator, so its span times
each step and covers only those steps, not the consumer's work between
them.

Work counters (kernel rows, ladder rungs, Tricomi points, objective
evaluations, ...) are recorded at the same boundaries.  They depend
only on the inputs, so they repeat exactly between runs of one seed.
"""

import importlib
import json
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

NAME, START, END, PARENT, REQ, BUSY, FAILED = range(7)


class Tracer:
    """Spans, counters and the patches that produce them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.request = None
        self.exceptions = 0
        self.unpatched = []
        self._undo = []

    # -- spans ---------------------------------------------------------

    def open(self, name, push=True):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), None, parent, self.request, 0.0, False])
        if push:
            self.stack.append(idx)
        return idx

    def close(self, idx, failed=False):
        span = self.spans[idx]
        span[END] = _clock()
        span[BUSY] = span[END] - span[START]
        span[FAILED] = failed
        if failed:
            self.exceptions += 1
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` with a span per call.

        ``count(counts, args, kwargs, result)`` adds work counters after a
        call that returned; calls and failures are counted from the spans.
        """
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_ladder(self, fn, name):
        """Generator wrapper: the span's busy time is the sum of its steps."""
        tracer = self

        def traced(x, max_order):
            idx = tracer.open(name, push=False)
            span = tracer.spans[idx]
            cells = int(np.size(x))
            gen = fn(x, max_order)
            rungs = 0
            failed = True
            try:
                while True:
                    t0 = _clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        span[BUSY] += _clock() - t0
                        break
                    span[BUSY] += _clock() - t0
                    rungs += 1
                    yield item
                failed = False
            finally:
                span[END] = _clock()
                span[FAILED] = failed
                counts = tracer.counts
                counts[name + ".rungs"] += rungs
                counts[name + ".cells"] += rungs * cells

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, module_name, attr, wrapper):
        """Replace ``module.attr`` with ``wrapper(original)``; skip if absent."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.unpatched.append("%s.%s" % (module_name, attr))
            return
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            self.unpatched.append("%s.%s" % (module_name, attr))
            return
        setattr(owner, path[-1], wrapper(original))
        self._undo.append((owner, path[-1], original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting -----------------------------------------------------

    def mark(self):
        """Position to aggregate from, for per-pass numbers."""
        return len(self.spans), dict(self.counts)

    def since(self, mark):
        """Per-name calls, busy, self time and failures after ``mark``."""
        first, counts0 = mark
        spans = self.spans[first:]
        child_busy = defaultdict(float)
        for span in spans:
            if span[PARENT] >= first:
                child_busy[span[PARENT]] += span[BUSY]
        layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0})
        for i, span in enumerate(spans, start=first):
            entry = layers[span[NAME]]
            entry["calls"] += 1
            entry["busy_s"] += span[BUSY]
            entry["self_s"] += span[BUSY] - child_busy.get(i, 0.0)
            entry["fail"] += span[FAILED]
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        return dict(layers), counts

    def records(self):
        """Every span as a plain dict."""
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "request": s[REQ], "busy": s[BUSY], "failed": s[FAILED]}
                for s in self.spans]

    def dump(self, path, extra=()):
        """Write every span, then ``extra`` span records, one JSON line each."""
        with open(path, "w") as fh:
            for record in self.records() + list(extra):
                fh.write(json.dumps(record) + "\n")


# -- what to wrap ----------------------------------------------------------

def _count_cdf_rows(counts, args, kwargs, result):
    weights, shapes_a, _, log_scales, x = args[:5]
    counts["gammagamma.weighted_cdf_sum.row_points"] += (
        int(np.sum(shapes_a)) * int(np.size(x)))
    counts["gammagamma.weighted_cdf_sum.pairs"] += int(np.size(log_scales))
    counts["gammagamma.weighted_cdf_sum.distinct_theta"] += int(np.unique(log_scales).size)


def _count_pdf_rows(counts, args, kwargs, result):
    weights, x = args[0], args[4]
    counts["gammagamma.weighted_pdf_sum.row_points"] += int(np.size(weights)) * int(np.size(x))


def _count_u_points(counts, args, kwargs, result):
    counts["specfun.tricomi_u_times_xa.points"] += int(np.size(args[2]))


def _count_cells(counts, args, kwargs, result):
    counts["fit.cells"] += len(result.search_trace)


def _count_read_rows(counts, args, kwargs, result):
    rows = result.sample_count if result.sample_count is not None else len(result)
    counts["io.read_empirical_csv.rows"] += rows


def _count_write_rows(counts, args, kwargs, result):
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    counts["io.write_csv.rows"] += int(np.size(columns[0]))


def install(tracer):
    """Patch every traced entry point where its callers look it up.

    Modules are imported here, so the caller pays no tracing cost
    unless it asks for tracing.
    """
    w = tracer.wrap
    tracer.patch("prodfade.gammagamma", "log_bessel_k_ladder",
                 lambda f: tracer.wrap_ladder(f, "specfun.log_bessel_k_ladder"))
    tracer.patch("prodfade.pdist", "tricomi_u_times_xa",
                 lambda f: w(f, "specfun.tricomi_u_times_xa", _count_u_points))
    tracer.patch("prodfade.pdist", "weighted_cdf_sum",
                 lambda f: w(f, "gammagamma.weighted_cdf_sum", _count_cdf_rows))
    tracer.patch("prodfade.pdist", "weighted_pdf_sum",
                 lambda f: w(f, "gammagamma.weighted_pdf_sum", _count_pdf_rows))
    tracer.patch("prodfade.pdist", "expand", lambda f: w(f, "mixture.expand"))
    for module in ("prodfade.pdist", "prodfade.cli"):
        tracer.patch(module, "sample_single", lambda f: w(f, "mixture.sample_single"))
    tracer.patch("prodfade.pdist", "ProductModel.__init__",
                 lambda f: w(f, "pdist.ProductModel"))
    for method in ("cdf", "pdf", "mgf", "moment", "sample"):
        tracer.patch("prodfade.pdist", "ProductModel." + method,
                     lambda f, method=method: w(f, "pdist." + method))
    for name in ("fit_cdf", "fit_pdf_mse"):
        for module in ("prodfade.fit", "prodfade.cli"):
            tracer.patch(module, name, lambda f, name=name: w(f, "fit." + name, _count_cells))
    tracer.patch("prodfade.fit", "minimize", lambda f: _counting_minimize(tracer, f))
    for name in ("wpc_sweep", "backscatter_sweep", "nakagami_wpc_outage"):
        tracer.patch("prodfade.sysmodels", name, lambda f, name=name: w(f, "sysmodels." + name))
    for name in ("wpc_sweep", "backscatter_sweep"):
        tracer.patch("prodfade.cli", name, lambda f, name=name: w(f, "sysmodels." + name))
    tracer.patch("prodfade.asym", "asym_cdf", lambda f: w(f, "asym.asym_cdf"))
    for module in ("prodfade.asym", "prodfade.cli"):
        tracer.patch(module, "match_kappa", lambda f: w(f, "asym.match_kappa"))
    tracer.patch("prodfade.io", "read_empirical_csv",
                 lambda f: w(f, "io.read_empirical_csv", _count_read_rows))
    tracer.patch("prodfade.io", "write_csv", lambda f: w(f, "io.write_csv", _count_write_rows))
    tracer.patch("prodfade.io", "write_manifest", lambda f: w(f, "io.write_manifest"))


def _counting_minimize(tracer, minimize):
    """``minimize`` whose objective counts evaluations and failed ones.

    An evaluation failed when a traced library call raised inside it;
    the fit maps those to a penalty value instead of propagating them.
    """
    def traced(fun, x0, *args, **kwargs):
        def objective(theta, *fargs):
            before = tracer.exceptions
            value = fun(theta, *fargs)
            tracer.counts["fit.objective_evals"] += 1
            if tracer.exceptions != before:
                tracer.counts["fit.eval_fail"] += 1
            return value
        return minimize(objective, x0, *args, **kwargs)

    traced.__wrapped__ = minimize
    return traced

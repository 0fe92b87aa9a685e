"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``.  Builds the workload from its seed, prints the
monotonic time at which set-up ended, runs whole passes of the request
list back to back for the time budget, checks the first pass's outputs
against the oracles, and prints one JSON result as its last line.

With ``--setup-only`` it stops after set-up, so that ``run.py`` can
time set-up several times.  With ``--trace 1`` the first half of the
budget runs untraced and the second half traced; the ratio of the two
pass times is the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy.stats.mstats import hdquantiles  # noqa: E402
from prodfade.mixture import expand  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter


def fingerprint(obj):
    """Digest of a request output, exact to the bit."""
    digest = hashlib.sha256()
    _feed(digest, obj)
    return digest.hexdigest()


def _feed(digest, obj):
    if isinstance(obj, np.ndarray):
        digest.update(("%s%s" % (obj.dtype.str, obj.shape)).encode())
        digest.update(np.ascontiguousarray(obj).data)
    elif isinstance(obj, (list, tuple)):
        digest.update(b"(%d" % len(obj))
        for item in obj:
            _feed(digest, item)
    elif isinstance(obj, dict):
        _feed(digest, sorted(obj.items()))
    elif hasattr(obj, "search_trace"):
        _feed(digest, (obj.parameters(), obj.search_trace))
    elif hasattr(obj, "values") and hasattr(obj, "x"):
        _feed(digest, (obj.x, obj.values, obj.sample_count, obj.mean))
    else:
        digest.update(repr(obj).encode())


def run_pass(workload, tracer, pass_no):
    """Issue every request once, back to back; time each one.

    The workload's reference probe runs between requests, at least every
    ``workload.probe_every_s``; each request's ``ref`` is the mean of the
    probes just before and after it.
    Outputs are kept whole for the first pass only, which the oracles
    check; every pass keeps their digests, which must all agree.
    """
    workload.start_pass(tracer is not None)
    mark = tracer.mark() if tracer else None
    latencies, refs, status, outputs, errors = [], [], {}, {}, {}
    ops = 0
    last_probe = workload.probe()
    since_probe = clock()
    pending = 0
    t0 = clock()
    for i, (name, fn, may_refuse) in enumerate(workload.requests):
        if tracer:
            tracer.request = "%d:%d" % (pass_no, i)
            span = tracer.open("request")
        r0 = clock()
        try:
            n, out = fn()
        except Exception as exc:
            r1 = clock()
            refused = may_refuse and isinstance(exc, workloads.REFUSALS)
            status[name] = "refused" if refused else "failed"
            errors[name] = "%s: %s" % (type(exc).__name__, exc)
            outputs[name] = None
        else:
            r1 = clock()
            status[name] = "ok"
            outputs[name] = out
            ops += n
        if tracer:
            tracer.close(span)
        latencies.append(r1 - r0)
        pending += 1
        if clock() - since_probe >= workload.probe_every_s or i == len(workload.requests) - 1:
            now = workload.probe()
            refs.extend([0.5 * (last_probe + now)] * pending)
            last_probe, since_probe, pending = now, clock(), 0
    wall = clock() - t0
    result = {"wall": wall, "latencies": latencies, "refs": refs, "ops": ops,
              "status": status, "errors": errors,
              "prints": {name: fingerprint(out) for name, out in outputs.items()}}
    if pass_no == 1:
        result["outputs"] = outputs
    if tracer:
        result["layers"], result["counts"] = tracer.since(mark)
    return result


def run_phase(workload, budget, min_passes, tracer, passes):
    """Whole passes until the next one would overrun ``budget`` seconds."""
    t0 = clock()
    done = 0
    while True:
        before = expand.cache_info()
        result = run_pass(workload, tracer, len(passes) + 1)
        if tracer:
            after = expand.cache_info()
            result["counts"]["mixture.expand.hits"] = after.hits - before.hits
            result["counts"]["mixture.expand.misses"] = after.misses - before.misses
        result["traced"] = tracer is not None
        passes.append(result)
        done += 1
        elapsed = clock() - t0
        if done >= min_passes and elapsed * (done + 1) / done > budget:
            return


def typical_latencies(passes, scaled=True):
    """Each request's median over ``passes``, in probe lengths or seconds."""
    if scaled:
        rows = ([t / r for t, r in zip(p["latencies"], p["refs"])] for p in passes)
    else:
        rows = (p["latencies"] for p in passes)
    return [statistics.median(column) for column in zip(*rows)]


def tail(latencies):
    """The highest percentile that leaves at least ten samples above it.

    Returns ``(value, percentile)``; never below the median, so with
    fewer than 21 samples it is the median.  Otherwise the value is the
    Harrell-Davis estimate, a Beta-weighted mean of all order statistics:
    the requests next to that percentile are of similar cost and swap
    places from run to run, so interpolating between the nearest two
    alone is three times as noisy (see README.md).
    """
    if len(latencies) < 21:
        return statistics.median(latencies), 50.0
    q = 1.0 - 11.0 / len(latencies)
    return float(hdquantiles(latencies, prob=[q])[0]), 100.0 * q


def peak_rss_mb(workload):
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return workload.peak_rss_mb


def environment(seed):
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            blas = int(os.environ[var])
            break
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": nproc, "cpu": cpu,
        "PRODFADE_THREADS": os.environ.get("PRODFADE_THREADS"),
        "blas_threads": min(blas or nproc, nproc), "seed": seed,
    }


def tail_rel_err():
    """Rayleigh^2 cdf against its closed form ``1 - 2 sqrt(z) K1(2 sqrt(z))``
    in 50-digit mpmath, at F ~ 1e-9, 1e-12 and 1e-15."""
    import mpmath
    from prodfade.mixture import ShadowedParams
    from prodfade.pdist import ProductModel

    model = ProductModel(ShadowedParams.rayleigh(), ShadowedParams.rayleigh())
    out = {}
    with mpmath.workdps(50):
        def exact(z):
            r = 2 * mpmath.sqrt(z)
            return 1 - r * mpmath.besselk(1, r)
        for target in (1e-9, 1e-12, 1e-15):
            lz = mpmath.findroot(lambda t: mpmath.log(exact(mpmath.exp(t))) - math.log(target),
                                 math.log(target / (2.0 * math.log(1.0 / target))))
            z = float(mpmath.exp(lz))
            ref = exact(mpmath.mpf(z))
            out["pdist.cdf.tail_rel_err.F%.0e" % target] = float(abs(model.cdf(z) - ref) / ref)
    return out


def cli_probe_times(env):
    """Bare interpreter start and ``import prodfade.cli``, medians of three."""
    def median_run(code):
        times = []
        for _ in range(3):
            t0 = time.monotonic()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append(time.monotonic() - t0)
        return statistics.median(times)
    interp = median_run("pass")
    return {"cli.interp_s": interp,
            "cli.import_s": median_run("import prodfade.cli") - interp}


def merge_child_traces(workload, passes):
    """Add each traced CLI child's layers and counters to its pass."""
    for pass_no, path in workload.trace_files:
        with open(path) as fh:
            child = json.load(fh)
        result = passes[pass_no - 1]
        for name, entry in child["layers"].items():
            mine = result["layers"].setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0})
            for key, value in entry.items():
                mine[key] += value
        for key, value in child["counts"].items():
            result["counts"][key] = result["counts"].get(key, 0) + value
        for span in child["spans"]:
            span["process"] = os.path.basename(path)
        result.setdefault("child_spans", []).extend(child["spans"])


def layer_metrics(result):
    """Per-layer numbers of one traced pass."""
    out = {}
    for name, entry in result["layers"].items():
        out[name + ".self_s"] = entry["self_s"]
        out[name + ".busy_s"] = entry["busy_s"]
        out[name + ".fail"] = entry["fail"]
        out[name + ".calls"] = entry["calls"]
    out.update(result["counts"])

    def ratio(num, den):
        return num / den if den else 0.0

    c = result["counts"]
    out["gammagamma.weighted_cdf_sum.distinct_theta_ratio"] = ratio(
        c.get("gammagamma.weighted_cdf_sum.distinct_theta", 0),
        c.get("gammagamma.weighted_cdf_sum.pairs", 0))
    hits, misses = c.get("mixture.expand.hits", 0), c.get("mixture.expand.misses", 0)
    out["mixture.expand.hit_ratio"] = ratio(hits, hits + misses)
    evals = c.get("fit.objective_evals", 0)
    out["fit.useful_ratio"] = ratio(evals - c.get("fit.eval_fail", 0), evals)
    out["trace.spans"] = sum(e["calls"] for e in result["layers"].values())
    return out


def summarize(workload, passes, bad, defective, rss_mb):
    """End-to-end metrics from the untraced passes, plus counts of all passes.

    ``bad`` names the requests whose first-pass output failed its oracle,
    ``defective`` those of them that show only the known domain defect.
    """
    plain = [p for p in passes if not p["traced"]]
    typical = typical_latencies(plain)
    seconds = typical_latencies(plain, scaled=False)
    value, pct = tail(typical)
    attempted = len(workload.requests) * len(passes)
    refused = defects = failed = 0
    first = passes[0]
    unsteady = set()
    for p in passes:
        for name, st in p["status"].items():
            if st != first["status"][name] or p["prints"][name] != first["prints"][name]:
                unsteady.add(name)
                failed += 1
            elif st == "refused":
                refused += 1
            elif st == "failed" or (name in bad and name not in defective):
                failed += 1
            elif name in defective:
                defects += 1
    metrics = {
        "wall_probes": sum(typical),
        "ops_per_kprobe": 1e3 * first["ops"] / sum(typical),
        "req_p50_probes": statistics.median(typical),
        "req_tail_probes": value,
        "peak_rss_mb": rss_mb,
        "served_frac": (attempted - failed - refused - defects) / attempted,
        "wall_s": sum(seconds),
        "ops_per_s": first["ops"] / sum(seconds),
        "req_p50_ms": 1e3 * statistics.median(seconds),
        "req_tail_ms": 1e3 * tail(seconds)[0],
        "probe_ms": 1e3 * statistics.median(r for p in plain for r in p["refs"]),
    }
    detail = {
        "passes": len(plain), "requests": len(typical), "ops": first["ops"],
        "tail_percentile": pct, "pass_walls_s": [p["wall"] for p in plain],
        "attempted": attempted, "refused": refused, "defective": defects, "failed": failed,
        "known_defects": sum(may_refuse for _, _, may_refuse in workload.requests),
        "fail_frac": 1.0 - metrics["served_frac"],
        "oracle_failures": sorted(set(bad) - defective), "domain_defects": sorted(defective),
        "refusals": sorted({name for p in passes for name, st in p["status"].items()
                            if st == "refused"}),
        "nondeterministic": sorted(unsteady),
        "errors": {k: v for p in passes for k, v in p["errors"].items()},
        "request_ms": {name: 1e3 * t for (name, _, _), t in zip(workload.requests, seconds)},
        "request_probes": {name: t for (name, _, _), t in zip(workload.requests, typical)},
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)

    workdir = os.path.join(args.outdir, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        cls = workloads.WORKLOADS[args.workload]
        if cls is workloads.Cold:
            workload = cls(args.seed, workdir, ROOT, os.path.join(HERE, "cli_boot.py"))
        else:
            workload = cls(args.seed, workdir)
        t_ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_ready": t_ready}))
            return 0
        result = measure(workload, args)
        result["t_ready"] = t_ready
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args):
    passes = []
    tracer = None
    if args.trace:
        run_phase(workload, args.seconds / 2.0, 1, None, passes)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            run_phase(workload, args.seconds / 2.0, 1, tracer, passes)
        finally:
            tracer.restore()
        if not workload.in_process:
            merge_child_traces(workload, passes)
    else:
        run_phase(workload, args.seconds, workload.min_passes, None, passes)

    rss_mb = peak_rss_mb(workload)
    outputs = passes[0].pop("outputs")
    bad = workload.check(outputs)
    defective = workload.defects(outputs, bad)
    del outputs
    metrics, detail = summarize(workload, passes, bad, defective, rss_mb)
    detail["env"] = environment(args.seed)
    detail["ops_unit"] = workload.ops_unit
    detail["info"] = workload.info
    result = {"metrics": metrics, "detail": detail}
    if tracer:
        result["per_layer"], result["layer_detail"] = traced_metrics(workload, passes, tracer, args)
        spans_path = os.path.join(args.outdir, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))
        tracer.dump(spans_path, [s for p in passes for s in p.get("child_spans", [])])
        detail["spans_file"] = spans_path
    return result


def traced_metrics(workload, passes, tracer, args):
    traced = [layer_metrics(p) for p in passes if p["traced"]]
    names = sorted(set().union(*traced))
    merged = {}
    repeat = True
    for name in names:
        values = [t.get(name, 0.0) for t in traced]
        if name.endswith("_s"):
            merged[name] = statistics.median(values)
        else:
            merged[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    merged["trace.overhead_ratio"] = (
        sum(typical_latencies([p for p in passes if p["traced"]]))
        / sum(typical_latencies([p for p in passes if not p["traced"]])))
    merged.update(tail_rel_err())
    if not workload.in_process:
        merged.update(cli_probe_times(workload.env))
        typical = typical_latencies([p for p in passes if not p["traced"]], scaled=False)
        for (name, _, _), latency in zip(workload.requests, typical):
            merged["cli.%s.wall_s" % name] = latency
        merged["cli.commands"] = len(workload.requests)
    detail = {"traced_passes": len(traced), "counters_repeat": repeat,
              "unpatched": tracer.unpatched}
    return merged, detail


if __name__ == "__main__":
    sys.exit(main())

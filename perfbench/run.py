"""prodfade benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload library --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload in turn.  Each run starts fresh
interpreters: set-up is timed several times (median reported), then one
worker runs the request list back to back for ``--seconds`` and checks
the outputs against the oracles.  With ``--trace 0`` the result carries
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The
last line of standard output is one JSON object; the lines before it
are the same numbers with units, sample counts and the environment.
A full report goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("library", "cold")

#: Set-ups timed per run: set-up-only workers before and after the
#: measured one, so that the samples spread over the whole run.
SETUP_ONLY_BEFORE = 2
SETUP_ONLY_AFTER = 2
#: A run must end within 180 s; leave room to kill and report.
RUN_LIMIT_S = 170.0

#: Request costs are in lengths of the reference probe timed around each
#: request (see ``Workload.probe`` in ``workloads.py``); the same figures
#: in seconds are printed beside them and kept in the report.
END_TO_END = [
    ("setup_s", "s"), ("wall_probes", "probe"), ("ops_per_kprobe", "1/kprobe"),
    ("req_p50_probes", "probe"), ("req_tail_probes", "probe"), ("peak_rss_mb", "MB"),
    ("served_frac", "1"),
]

#: Per-layer metrics carried in the result line.  Every workload reports
#: all of them; a count of a layer the workload never reaches reads 0.
#: Self times are listed only for layers both workloads reach; the
#: others are in the report file.
PER_LAYER = [
    ("specfun.log_bessel_k_ladder.calls", "count"),
    ("specfun.log_bessel_k_ladder.rungs", "count"),
    ("specfun.log_bessel_k_ladder.cells", "count"),
    ("specfun.log_bessel_k_ladder.self_s", "s"),
    ("specfun.tricomi_u_times_xa.calls", "count"),
    ("specfun.tricomi_u_times_xa.points", "count"),
    ("gammagamma.weighted_cdf_sum.calls", "count"),
    ("gammagamma.weighted_cdf_sum.row_points", "count"),
    ("gammagamma.weighted_cdf_sum.distinct_theta_ratio", "1"),
    ("gammagamma.weighted_cdf_sum.self_s", "s"),
    ("gammagamma.weighted_pdf_sum.calls", "count"),
    ("gammagamma.weighted_pdf_sum.row_points", "count"),
    ("gammagamma.weighted_pdf_sum.self_s", "s"),
    ("mixture.expand.calls", "count"),
    ("mixture.expand.misses", "count"),
    ("mixture.expand.hit_ratio", "1"),
    ("mixture.expand.self_s", "s"),
    ("mixture.sample_single.calls", "count"),
    ("pdist.ProductModel.calls", "count"),
    ("pdist.ProductModel.fail", "count"),
    ("pdist.ProductModel.self_s", "s"),
    ("pdist.cdf.calls", "count"),
    ("pdist.cdf.fail", "count"),
    ("pdist.cdf.self_s", "s"),
    ("pdist.pdf.calls", "count"),
    ("pdist.pdf.self_s", "s"),
    ("pdist.mgf.calls", "count"),
    ("pdist.moment.calls", "count"),
    ("pdist.moment.self_s", "s"),
    ("pdist.sample.calls", "count"),
    ("pdist.cdf.tail_rel_err.F1e-09", "1"),
    ("pdist.cdf.tail_rel_err.F1e-12", "1"),
    ("pdist.cdf.tail_rel_err.F1e-15", "1"),
    ("fit.cells", "count"),
    ("fit.objective_evals", "count"),
    ("fit.eval_fail", "count"),
    ("fit.useful_ratio", "1"),
    ("fit.fit_cdf.self_s", "s"),
    ("sysmodels.wpc_sweep.calls", "count"),
    ("sysmodels.wpc_sweep.self_s", "s"),
    ("sysmodels.backscatter_sweep.calls", "count"),
    ("sysmodels.backscatter_sweep.self_s", "s"),
    ("sysmodels.nakagami_wpc_outage.calls", "count"),
    ("asym.asym_cdf.calls", "count"),
    ("asym.match_kappa.calls", "count"),
    ("asym.match_kappa.self_s", "s"),
    ("io.read_empirical_csv.rows", "count"),
    ("io.read_empirical_csv.self_s", "s"),
    ("io.write_csv.rows", "count"),
    ("io.write_manifest.calls", "count"),
    ("cli.commands", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "1"),
]


class RunError(Exception):
    pass


def spawn_worker(args, deadline, setup_only):
    """Run one worker; return ``(result, seconds from spawn to set-up end)``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", OUTDIR]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("worker ran past the %.0f s limit" % RUN_LIMIT_S)
    if proc.returncode != 0:
        raise RunError("worker exited %d:\n%s" % (proc.returncode, err.decode()[-3000:]))
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, result["t_ready"] - t_spawn


def run_one(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn_worker(args, deadline, True)[1] for _ in range(SETUP_ONLY_BEFORE)]
    result, setup = spawn_worker(args, deadline, False)
    setups.append(setup)
    setups += [spawn_worker(args, deadline, True)[1] for _ in range(SETUP_ONLY_AFTER)]
    metrics, detail = result["metrics"], result["detail"]
    metrics["setup_s"] = statistics.median(setups)
    detail["setup_samples_s"] = setups
    correct = detail["failed"] == 0
    if args.trace:
        reported = {name: result["per_layer"].get(name, 0) for name, _ in PER_LAYER}
        units = PER_LAYER
    else:
        reported = {name: metrics[name] for name, _ in END_TO_END}
        units = END_TO_END

    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct)
    path = os.path.join(OUTDIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print_table(args, metrics, detail, result, path)
    print(json.dumps({
        "correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in units},
    }))
    return correct


def print_table(args, metrics, detail, result, path):
    d = detail
    print("== %s  seed=%d  trace=%d  closed loop, 1 client, %d passes of %d requests; "
          "latencies are each request's median over the passes"
          % (args.workload, args.seed, args.trace, d["passes"], d["requests"]))
    m = metrics
    rows = [
        ("setup_s", "s", "median of %d set-ups: %s" % (
            len(d["setup_samples_s"]), " ".join("%.3f" % s for s in d["setup_samples_s"]))),
        ("wall_probes", "probe", "request list: %.4g s; pass walls %s s" % (
            m["wall_s"], " ".join("%.3f" % w for w in d["pass_walls_s"]))),
        ("ops_per_kprobe", "1/kprobe", "%d %s per pass; %.6g per s" % (
            d["ops"], d["ops_unit"], m["ops_per_s"])),
        ("req_p50_probes", "probe", "%.6g ms; n=%d requests" % (m["req_p50_ms"], d["requests"])),
        ("req_tail_probes", "probe", "%.6g ms; p%.2f of n=%d requests" % (
            m["req_tail_ms"], d["tail_percentile"], d["requests"])),
        ("peak_rss_mb", "MB", "worker process" if args.workload != "cold" else "largest CLI child"),
        ("probe_ms", "ms", "median reference probe"),
    ]
    for name, unit, note in rows:
        print("  %-15s %14.6g %-8s %s" % (name, metrics[name], unit, note))
    print("  %-15s %14.6g %-8s %d of %d attempted: %d failed; known domain defect "
          "(%d sweep cells): %d refused, %d defective" % (
              "served_frac", m["served_frac"], "1", d["attempted"] - d["failed"] - d["refused"]
              - d["defective"], d["attempted"], d["failed"], d["known_defects"], d["refused"],
              d["defective"]))
    if d["domain_defects"]:
        print("  defective outputs: %s" % ", ".join(d["domain_defects"]))
    if d["oracle_failures"] or d["nondeterministic"]:
        print("  oracle failures: %s; nondeterministic: %s"
              % (d["oracle_failures"], d["nondeterministic"]))
    if d["info"]:
        print("  info: %s" % json.dumps(d["info"], sort_keys=True))
    if args.trace:
        layers = result["per_layer"]
        print("  per-layer (traced passes: %d, counters repeat: %s, unpatched: %s)" % (
            result["layer_detail"]["traced_passes"], result["layer_detail"]["counters_repeat"],
            result["layer_detail"]["unpatched"] or "none"))
        for name in sorted(layers):
            if not name.endswith(".busy_s"):
                print("    %-52s %.6g" % (name, layers[name]))
    print("  env: %s" % json.dumps(d["env"], sort_keys=True))
    print("  report: %s" % os.path.relpath(path, ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prodfade", "__init__.py")):
        print("error: no prodfade sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        args.workload = name
        try:
            ok = run_one(args) and ok
        except RunError as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1
    return 0 if ok or len(names) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())

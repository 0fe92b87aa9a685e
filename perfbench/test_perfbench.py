"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench

The counter test runs every workload twice, traced, for about three
minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_excludes_children_and_ladder_counts_steps():
    t = tracing.Tracer()

    def ladder(x, max_order):
        for n in range(max_order + 1):
            yield n, x

    inner = t.wrap(lambda: sum(range(1000)), "inner")
    steps = t.wrap_ladder(ladder, "ladder")

    def outer():
        inner()
        for _ in steps([1.0, 2.0, 3.0], 4):
            inner()

    t.wrap(outer, "outer")()
    layers, counts = t.since((0, {}))
    assert layers["inner"]["calls"] == 6 and layers["outer"]["calls"] == 1
    children = layers["inner"]["busy_s"] + layers["ladder"]["busy_s"]
    assert layers["outer"]["self_s"] == pytest.approx(layers["outer"]["busy_s"] - children)
    assert counts["ladder.rungs"] == 5 and counts["ladder.cells"] == 15


def test_patches_find_every_entry_point_and_restore():
    from prodfade import pdist
    original = pdist.ProductModel.cdf
    t = tracing.Tracer()
    tracing.install(t)
    try:
        assert t.unpatched == []
        assert pdist.ProductModel.cdf is not original
    finally:
        t.restore()
    assert pdist.ProductModel.cdf is original


class _Requests:
    """A stand-in workload: refusals in and out of the known-defect cells."""

    in_process = True
    probe = workloads.Workload.probe
    probe_every_s = 0.2

    def __init__(self):
        def refuse():
            raise ValueError("outside the domain")
        self.requests = [("known", refuse, True), ("other", refuse, False),
                         ("ok", lambda: (1, 1.0), True), ("crash", lambda: 1 / 0, True)]

    def start_pass(self, traced):
        pass


def test_only_known_defect_cells_may_refuse():
    load = _Requests()
    passes = [worker.run_pass(load, None, n) for n in (1, 2)]
    for p in passes:
        p["traced"] = False
    metrics, detail = worker.summarize(load, passes, [], set(), 1.0)
    # ZeroDivisionError is an ArithmeticError, so the known cell "crash"
    # counts as a refusal too; "other" is not a known cell.
    assert (detail["refused"], detail["failed"]) == (4, 2)
    assert metrics["served_frac"] == 2 / 8


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat_exactly_between_two_traced_runs(workload):
    counted = [name for name, unit in run.PER_LAYER
               if unit != "s" and name != "trace.overhead_ratio"]
    seen = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        seen.append({name: result["metrics"][name]["value"] for name in counted})
    assert seen[0] == seen[1]
    print(workload, json.dumps(seen[0], sort_keys=True))


def test_refuses_to_run_without_the_library_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "library", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)

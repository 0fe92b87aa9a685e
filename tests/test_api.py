import ast
import importlib.util
import inspect
import pkgutil
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import prodfade
from prodfade import mixture
from prodfade.asym import asym_cdf, asym_cdf_kappa_mu
from prodfade.mixture import ShadowedParams, cdf_single, expand, pdf_single
from prodfade.pdist import EnvelopeModel, ProductModel
from prodfade.sysmodels import (
    BackscatterConfig, WpcConfig, backscatter_power_cdf, gamma_product_cdf,
    nakagami_wpc_outage, wpc_outage, wpc_throughput,
)

MODULES = ["prodfade"] + [
    "prodfade." + info.name for info in pkgutil.iter_modules(prodfade.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    # A name deleted from a module must leave its export lists too.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


LINK = ShadowedParams(1.0, 2.0, 3, 5)
SIGNED = ShadowedParams(1.0, 1.0, 2, 1)  # mu > m: signed expansion
WPC = WpcConfig(1e6, 2, 3.0)
BACKSCATTER = BackscatterConfig(0.5, LINK, SIGNED)
POS = np.array([[0.05, 0.3, 1.0], [2.0, 0.7, 0.01]])
NONNEG = np.array([[0.0, 0.3, 1.0], [2.0, 0.0, 0.01]])


def _evaluators():
    """Every public elementwise evaluator, with a (2, 3) grid in its domain."""
    out = {
        "GammaMixture.pdf": (expand(SIGNED).pdf, NONNEG),
        "GammaMixture.cdf": (expand(SIGNED).cdf, NONNEG),
        "pdf_single": (partial(pdf_single, LINK), NONNEG),
        "cdf_single": (partial(cdf_single, LINK), NONNEG),
        "asym_cdf": (partial(asym_cdf, LINK), POS),
        "asym_cdf_kappa_mu": (partial(asym_cdf_kappa_mu, 2.0, 3, 1.5), POS),
        "wpc_outage": (partial(wpc_outage, WPC), 1e6 * POS),
        "wpc_throughput": (partial(wpc_throughput, WPC), 1e6 * POS),
        "nakagami_wpc_outage": (partial(nakagami_wpc_outage, WPC), 1e6 * POS),
        "gamma_product_cdf": (partial(gamma_product_cdf, 1.5, 0.5, 2.5, 0.3), NONNEG),
        "backscatter_power_cdf": (partial(backscatter_power_cdf, BACKSCATTER), POS),
    }
    for kind, model in (("positive", ProductModel(LINK, LINK)),
                        ("signed", ProductModel(LINK, SIGNED))):
        env = EnvelopeModel(model, 1.3)
        out.update({
            kind + " ProductModel.pdf": (model.pdf, POS),
            kind + " ProductModel.cdf": (model.cdf, NONNEG),
            kind + " ProductModel.mgf": (model.mgf, -10.0 * POS),
            kind + " EnvelopeModel.pdf": (env.pdf, POS),
            kind + " EnvelopeModel.cdf": (env.cdf, NONNEG),
        })
    return out


EVALUATORS = _evaluators()


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluators_keep_the_input_shape(name):
    # An n-D grid is evaluated as the flat grid, then given its shape
    # back; a 0-d input gives a float, an empty grid an empty result.
    fn, x = EVALUATORS[name]
    out = fn(x)
    assert out.shape == x.shape
    assert np.array_equal(out, fn(x.ravel()).reshape(x.shape))
    assert type(fn(np.array(x[0, 1]))) is float
    assert fn(np.empty((2, 0))).shape == (2, 0)


def test_only_the_helper_shapes_evaluator_results():
    # The array contract is written once, in mixture._points; the copies
    # it replaced had drifted apart on n-D input.
    helper = inspect.getsource(mixture._points)
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        text = path.read_text().replace(helper, "")
        for phrase in ("ndim == 0", "if scalar else"):
            assert phrase not in text, "%s: %r" % (path.name, phrase)


def _readers(tree, name):
    """The function around each read of ``name`` in ``tree``, ``None`` at
    module level: a load, an attribute lookup or an import."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_collapse_rule_reads_the_kappa_zero_tolerance():
    # Whether a link collapses at kappa near 0 is decided once, in the
    # form rule mixture._link_form, which models, mixtures and both fits'
    # batches call; the tolerance is otherwise only defined and exported.
    reads = []
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += [(path.stem, where) for where in _readers(tree, "KAPPA_ZERO_TOL")]
    assert reads == [("mixture", "_link_form")]


def _module_level(body):
    """The statements run on import: function and class bodies left out."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, []))


def test_no_module_imports_scipy_on_import():
    # scipy.special, .optimize and .integrate are imported by their first
    # call, so that a command that needs none of them loads no scipy.
    eager = []
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                eager.append("%s:%d" % (path.name, node.lineno))
    assert not eager


def test_no_edge_of_range_guard_comes_back():
    # Points, scale products and Bessel arguments travel as logs, so no
    # square, quotient or half of a point is formed and none needs a
    # guard at the edges of the double range: no module defines or reads
    # these names, and pdist and sysmodels silence no overflow.
    gone = {"_SQRT_DBL_MAX", "_cdf_argument", "_HALF_EXACT_MIN"}
    found = []
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in sorted(gone & names)]
            if (path.stem in ("pdist", "sysmodels") and isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "errstate"
                    and any(kw.arg == "over" for kw in node.keywords)):
                found.append("%s:%d np.errstate(over=...)" % (path.name, node.lineno))
    assert not found


def test_no_per_pair_scale_or_unbatched_sum_comes_back():
    # The kernel sums take (sets x distinct theta) log scale products and
    # batches alone, so no module defines or reads the per-pair picking
    # (Pairs.first, read as an attribute), the unbatched adapter
    # (_prepare) or the layout alias (pair_layout).
    gone = {"pair_layout", "_prepare", "first"}
    found = []
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None)}
            if not isinstance(node, ast.Attribute):
                names = {getattr(node, field, None) for field in ("id", "name")} - {"first"}
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in sorted(gone & names)]
    assert not found


def test_one_batch_path_for_fit_rounds():
    # Both fits score a round through the evaluators they build once per
    # fit (pdist._cdf_rows_at, _envelope_rows_at), with one residuals
    # function each: no module defines or reads the per-field batch
    # wrappers or a per-cell residual factory, and _cell_rows takes no
    # fill value, as a refused set's row is 0.0.
    gone = {"product_cdf_rows", "envelope_pdf_rows", "make_residuals"}
    found = []
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in sorted(gone & names)]
            if isinstance(node, ast.FunctionDef) and node.name == "_cell_rows":
                found += ["%s:%d _cell_rows(%s)" % (path.name, node.lineno, arg.arg)
                          for arg in node.args.args + node.args.kwonlyargs
                          if arg.arg == "fill"]
            if isinstance(node, ast.keyword) and node.arg == "fill":
                found.append("%s:%d fill=" % (path.name, node.lineno))
    assert not found


def test_one_owner_for_each_stopping_step_link_rule_and_cdf_range():
    # Each search stops on its own fit module constant, not on kappa_tol,
    # which meant an absolute simplex spread in one and a relative step in
    # the other; mixture alone defines a link's acceptance and a raw cdf's
    # range check, which pdist imports, so each refusal is written once,
    # and pdist does not read the weight-sum tolerance.
    found, messages = [], dict.fromkeys(("all scales must be > 0",
                                         "mixture weights must sum to 1 within"), 0)
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        text = path.read_text()
        for message in messages:
            messages[message] += text.count(message)
        for node in ast.walk(ast.parse(text)):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "arg")}
            if "kappa_tol" in names:
                found.append("%s:%d kappa_tol" % (path.name, node.lineno))
            if (isinstance(node, ast.FunctionDef) and path.stem != "mixture"
                    and node.name in ("_link_refusal", "_cdf_in_range")):
                found.append("%s:%d def %s" % (path.name, node.lineno, node.name))
            if path.stem == "pdist" and "WEIGHT_SUM_TOL" in names:
                found.append("pdist.py:%d WEIGHT_SUM_TOL" % node.lineno)
    assert not found
    assert messages == dict.fromkeys(messages, 1)


def test_the_single_link_and_the_product_share_one_rule_each():
    # mixture owns the cdf range tolerance, the log of the largest double,
    # the log-space moment sum and its failure rule, which GammaMixture and
    # pdist both call: a raw cdf's range check takes no tolerance, the
    # weight-sum tolerance means the weight sum alone, mixture looks up
    # scipy.special only for GammaMixture.cdf's incomplete gamma, and
    # the one fsum is mixture._weight_sum's, which the link refusal and
    # the moment sums call: pdist sums no weights itself.
    assigned, ranges, readers = [], [], {}
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                assigned += [(path.stem, target.id) for target in node.targets
                             if getattr(target, "id", None) in ("CDF_RANGE_TOL", "_LOG_DBL_MAX")]
            if isinstance(node, ast.FunctionDef) and node.name == "_cdf_in_range":
                ranges.append([arg.arg for arg in node.args.args])
        for name in ("WEIGHT_SUM_TOL", "special", "fsum"):
            readers[path.stem, name] = set(_readers(tree, name))
    assert sorted(assigned) == [("mixture", "CDF_RANGE_TOL"), ("mixture", "_LOG_DBL_MAX")]
    assert ranges == [["raw"]]
    assert {stem for (stem, name), where in readers.items()
            if name == "WEIGHT_SUM_TOL" and where} == {"mixture"}
    assert readers["mixture", "WEIGHT_SUM_TOL"] == {"_link_refusal"}
    assert readers["mixture", "special"] == {"cdf"}
    assert readers["mixture", "fsum"] == {"_weight_sum"}
    assert {stem for (stem, name), where in readers.items() if name == "fsum" and where} == {
        "mixture"}


def _unread_imports(tree):
    """The names that ``tree`` imports and never reads, names listed in its
    ``__all__`` counting as read."""
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
            read.update(ast.literal_eval(node.value))
    return ["%d %s" % (line, name) for line, name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # A rule that moves leaves no stale import of its old owner behind.
    unread = []
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        unread += ["%s:%s" % (path.name, entry) for entry in _unread_imports(
            ast.parse(path.read_text()))]
    assert not unread


def test_declared_dependencies_cover_every_import():
    # Every module that src/ imports, but the standard library and
    # prodfade itself, is a declared dependency, and every one that tests/
    # imports is a dependency or in the test extra (ROADMAP aim 3).
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}

    runtime = names(project["dependencies"])
    allowed = {"src": runtime, "tests": runtime | names(project["optional-dependencies"]["test"])}
    undeclared = []
    for folder, declared in allowed.items():
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                undeclared += ["%s:%d %s" % (path.relative_to(root), node.lineno, top)
                               for top in (module.split(".")[0] for module in modules)
                               if top not in sys.stdlib_module_names | {"prodfade"}
                               and top.lower() not in declared]
    assert not undeclared


def test_declared_scipy_floor_covers_least_squares_workers():
    # The pdf fit passes least_squares a workers map, which SciPy took
    # from 1.16 on; an older SciPy raises TypeError on it.  The declared
    # floor must be at least that release while fit passes it (ROADMAP
    # aim 3: floors match the APIs called).
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    tree = ast.parse((root / "src" / "prodfade" / "fit.py").read_text())
    passes_workers = any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "least_squares"
        and any(k.arg == "workers" for k in node.keywords) for node in ast.walk(tree))
    assert passes_workers
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    (floor,) = [re.fullmatch(r"scipy>=(\d+)\.(\d+)(?:\.\d+)?", req.replace(" ", ""))
                for req in project["dependencies"] if req.lower().startswith("scipy")]
    assert floor is not None and tuple(map(int, floor.groups())) >= (1, 16)


@pytest.mark.parametrize("extra_line, marker, code", [
    ("", "", 0),                        # the table as it is: the test passes
    ("misspelt_key = 1\n", "", 4),      # an unknown key is a usage error
    ("", "@pytest.mark.slwo\n", 2),     # an unregistered marker fails collection
], ids=["plain", "misspelt_key", "unregistered_marker"])
def test_pytest_config_refuses_unknown_keys_and_markers(tmp_path, extra_line, marker, code):
    # pytest runs a one-test project under a copy of the repo's ini table:
    # strictness must be real, not a warning (pytest 9 ignores the
    # --strict-config and --strict-markers flags in addopts).
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    table = text[text.index("[tool.pytest.ini_options]"):]
    end = re.search(r"^\[", table[1:], re.M)       # the next table, if any
    table = table if end is None else table[:end.start() + 1]
    (tmp_path / "pyproject.toml").write_text(table + extra_line)
    (tmp_path / "test_one.py").write_text("import pytest\n\n\n%sdef test_one():\n    pass\n"
                                          % marker)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_one.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == code, run.stdout + run.stderr


def test_benchmark_tracer_patches_every_entry_point():
    # perfbench/tracer.py wraps library names by module path; a refactor
    # that moves one leaves it unpatched, and its counters read 0.  Every
    # name must patch, and a signed product's cdf, pdf and mgf must each
    # reach a counted kernel call.  The patches are undone afterwards.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer.unpatched == []
        model = ProductModel(ShadowedParams(1.0, 1.0, 6, 2), ShadowedParams(1.0, 0.5, 4, 1))
        z = np.geomspace(1e-3, 10.0, 5)
        model.cdf(z)
        model.pdf(z)
        model.mgf(-z)
    finally:
        tracer.restore()
    for counter in ("gammagamma.weighted_cdf_sum.row_points",
                    "gammagamma.weighted_pdf_sum.row_points", "specfun.tricomi_u_times_xa.points"):
        assert tracer.counts[counter] > 0, counter
    assert ProductModel.cdf.__name__ == "cdf" and not hasattr(ProductModel.cdf, "__wrapped__")

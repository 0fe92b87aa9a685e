import ast
import importlib
import inspect
import pkgutil
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
    # Whether a link collapses at kappa near 0 is decided once, in
    # mixture._collapsed, which models, mixtures and both fits' batches
    # call; the tolerance is otherwise only defined and exported.
    reads = []
    for path in sorted(Path(prodfade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += [(path.stem, where) for where in _readers(tree, "KAPPA_ZERO_TOL")]
    assert reads == [("mixture", "_collapsed")]


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

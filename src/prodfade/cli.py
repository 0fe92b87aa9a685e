"""Batch command-line front-end.

Subcommands evaluate distributions on grids (``eval``), draw samples
(``sample``), fit measured curves (``fit-cdf``, ``fit-pdf``), run the
system models (``wpc``, ``backscatter``) and solve the tail-matching
equation (``match-kappa``).  All outputs are plot-ready CSV or JSON
with deterministic 17-digit formatting; each output file gets a
``.manifest.json`` sidecar recording command, resolved configuration,
seed and library version.

Exit codes: 0 success, 2 validation error, 3 ingestion error,
4 numerical failure (overflow / root finding).
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .asym import match_kappa
from .errors import IngestionError
from .fit import SearchConfig, fit_cdf, fit_pdf_mse
from .mixture import cdf_single, pdf_single, sample_single
from .pdist import ProductModel
from .sysmodels import backscatter_sweep, wpc_sweep
from . import io as pio

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INGESTION = 3
EXIT_NUMERICAL = 4


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _seed(value):
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    return seed


def _int_list(text):
    try:
        return tuple(int(v) for v in str(text).split(","))
    except ValueError:
        raise ValueError("expected a comma-separated integer list, got %r" % (text,))


def _model_dict(params):
    if isinstance(params, ProductModel):
        return {
            "link_a": _jsonable(params.link_a),
            "link_b": _jsonable(params.link_b),
        }
    return _jsonable(params)


def cmd_eval(args):
    params = pio.read_params_json(args.params, args.dist)
    grid = pio.parse_grid(args.grid)
    if np.any(grid <= 0.0):
        raise ValueError("eval grid must be strictly positive")
    if args.dist == "kms":
        pdf = pdf_single(params, grid)
        cdf = cdf_single(params, grid)
    else:
        pdf = params.pdf(grid)
        cdf = params.cdf(grid)
    pio.write_csv(args.out, ["x", "pdf", "cdf"], [grid, pdf, cdf])
    pio.write_manifest(args.out, "eval", {
        "dist": args.dist, "params": _model_dict(params), "grid": args.grid,
    })
    return EXIT_OK


def cmd_sample(args):
    params = pio.read_params_json(args.params, args.dist)
    rng = np.random.default_rng(args.seed)
    if args.dist == "kms":
        draws = sample_single(params, rng, args.n)
    else:
        draws = params.sample(rng, args.n)
    pio.write_csv(args.out, ["sample"], [draws])
    pio.write_manifest(args.out, "sample", {
        "dist": args.dist, "params": _model_dict(params), "n": args.n,
    }, seed=args.seed)
    return EXIT_OK


def _search_config(args, pdf_mode=False):
    kwargs = {
        "max_m": args.max_m,
        "mu_grid": _int_list(args.mu),
        "kappa_range": (0.0, args.kappa_max),
        "tie_links": args.tie_links,
        "n_starts": args.starts,
        "tie_tol": args.tie_tol,
    }
    if args.mu_hat is not None:
        kwargs["mu_hat_grid"] = _int_list(args.mu_hat)
    if args.m is not None:
        kwargs["m_grid"] = _int_list(args.m)
    if args.m_hat is not None:
        kwargs["m_hat_grid"] = _int_list(args.m_hat)
    if pdf_mode:
        if args.envelope_range is not None:
            lo, _, hi = args.envelope_range.partition(":")
            kwargs["envelope_scale_range"] = (float(lo), float(hi))
    else:
        kwargs["fit_scale"] = args.fit_scale
        kwargs["max_points"] = args.max_points
        if args.total_scale is not None:
            kwargs["total_scale"] = args.total_scale
        if args.min_cdf is not None:
            kwargs["min_cdf"] = args.min_cdf
    return SearchConfig(**kwargs)


def _write_fit(args, result):
    payload = {
        "parameters": result.parameters(),
        "objective": result.objective,
        "objective_value": result.objective_value,
        "trace_length": len(result.search_trace),
        "objective_evals": sum(entry["nfev"] for entry in result.search_trace),
        "seed": args.seed,
    }
    pio.write_json(args.out, payload)
    pio.write_manifest(args.out, args.command, {
        "data": args.data, "search": _jsonable(result.config),
    }, seed=args.seed)
    print("%s = %s" % (result.objective, pio.format_float(result.objective_value)))
    for link, name in ((result.model.link_a, "link_a"), (result.model.link_b, "link_b")):
        print("%s: kappa=%.6g mu=%d m=%d mean_power=%.6g"
              % (name, link.kappa, link.mu, link.m, link.mean_power))
    if result.envelope_scale is not None:
        print("envelope_scale=%.6g" % (result.envelope_scale,))
    return EXIT_OK


def cmd_fit_cdf(args):
    empirical = pio.read_empirical_csv(args.data)
    if empirical.kind != "cdf":
        raise ValueError("fit-cdf requires sample or x,cdf data; got %s" % empirical.kind)
    return _write_fit(args, fit_cdf(empirical, _search_config(args)))


def cmd_fit_pdf(args):
    empirical = pio.read_empirical_csv(args.data)
    if empirical.kind != "pdf":
        raise ValueError("fit-pdf requires x,pdf data; got %s" % empirical.kind)
    return _write_fit(args, fit_pdf_mse(empirical, _search_config(args, pdf_mode=True)))


def cmd_wpc(args):
    cfg = pio.read_wpc_json(args.config)
    grid = pio.parse_grid(args.grid)
    _, outage, throughput = wpc_sweep(cfg, grid)
    pio.write_csv(args.out, ["p_over_n0_db", "outage", "throughput"],
                  [grid, outage, throughput])
    pio.write_manifest(args.out, "wpc", {"config": _jsonable(cfg), "grid": args.grid})
    return EXIT_OK


def cmd_backscatter(args):
    cfg = pio.read_backscatter_json(args.config)
    grid = pio.parse_grid(args.grid)
    _, cdf = backscatter_sweep(cfg, grid)
    pio.write_csv(args.out, ["power_db", "cdf"], [grid, cdf])
    pio.write_manifest(args.out, "backscatter",
                      {"config": _jsonable(cfg), "grid": args.grid})
    return EXIT_OK


def cmd_match_kappa(args):
    kappa = match_kappa(args.K, args.mu, args.m, infinite_m=args.infinite_m)
    print(pio.format_float(kappa))
    if args.out:
        pio.write_json(args.out, {
            "kappa": kappa, "k_factor": args.K, "mu": args.mu, "m": args.m,
            "infinite_m": args.infinite_m,
        })
        pio.write_manifest(args.out, "match-kappa", {
            "K": args.K, "mu": args.mu, "m": args.m, "infinite_m": args.infinite_m,
        })
    return EXIT_OK


def _add_fit_flags(sub, pdf_mode=False):
    base = SearchConfig()
    sub.add_argument("--data", required=True, help="input CSV (sample / x,cdf / x,pdf)")
    sub.add_argument("--out", required=True, help="output JSON path")
    sub.add_argument("--max-m", type=int, default=base.max_m, dest="max_m",
                     help="upper bound of the m search grid (default %(default)s)")
    sub.add_argument("--mu", default=",".join(map(str, base.mu_grid)),
                     help="comma list of mu values (default %(default)s)")
    sub.add_argument("--mu-hat", default=None, dest="mu_hat",
                     help="comma list for the second link (default: same as --mu)")
    sub.add_argument("--m", default=None, help="explicit comma list of m values")
    sub.add_argument("--m-hat", default=None, dest="m_hat",
                     help="explicit comma list for the second link")
    sub.add_argument("--kappa-max", type=float, default=base.kappa_range[1], dest="kappa_max",
                     help="upper bound of the kappa search range (default %(default)s)")
    sub.add_argument("--tie-links", action="store_true", dest="tie_links",
                     help="give both links one shared kappa; mu and m still range "
                          "over each link's own grid, so the links may differ in "
                          "mu and m")
    sub.add_argument("--starts", type=int, default=base.n_starts,
                     help="local-search starts per integer cell (default %(default)s)")
    sub.add_argument("--tie-tol", type=float, default=base.tie_tol, dest="tie_tol",
                     help="objective margin treated as an equal-quality tie "
                          "(default %(default)s)")
    sub.add_argument("--seed", type=_seed, default=0,
                     help="recorded in the result for provenance")
    if pdf_mode:
        sub.add_argument("--envelope-range", default=None, dest="envelope_range",
                         help="lo:hi bounds for the mean envelope level")
    else:
        sub.add_argument("--max-points", type=int, default=base.max_points, dest="max_points",
                         help="evaluation points kept after thinning (default %(default)s)")
        sub.add_argument("--fit-scale", action="store_true", dest="fit_scale",
                         help="optimize the power scale instead of pinning it")
        sub.add_argument("--total-scale", type=float, default=None, dest="total_scale",
                         help="fix the power scale to this value")
        sub.add_argument("--min-cdf", type=float, default=None, dest="min_cdf",
                         help="override the admissible-set floor")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prodfade",
        description="Product-of-fading-channels statistics toolbox",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate pdf and cdf on a grid")
    p.add_argument("--dist", choices=("kms", "gg", "prod"), required=True)
    p.add_argument("--params", required=True, help="JSON parameter file")
    p.add_argument("--grid", required=True, help="start:stop:points[:log]")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw reproducible samples")
    p.add_argument("--dist", choices=("kms", "gg", "prod"), required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit-cdf", help="fit a product model to a measured CDF")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit_cdf)

    p = sub.add_parser("fit-pdf", help="fit an envelope density by least squares")
    _add_fit_flags(p, pdf_mode=True)
    p.set_defaults(func=cmd_fit_pdf)

    p = sub.add_parser("wpc", help="wireless-powered outage/throughput sweep")
    p.add_argument("--config", required=True, help="JSON link-budget file")
    p.add_argument("--grid", required=True, help="P/N0 sweep in dB, start:stop:points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wpc)

    p = sub.add_parser("backscatter", help="backscatter received-power CDF sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="received power sweep in dB")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_backscatter)

    p = sub.add_parser("match-kappa", help="tail-equivalent kappa for a given K")
    p.add_argument("--K", type=float, required=True, help="reference K-factor")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--infinite-m", action="store_true", dest="infinite_m")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_match_kappa)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IngestionError as exc:
        print("ingestion error: %s" % (exc,), file=sys.stderr)
        return EXIT_INGESTION
    except OSError as exc:
        print("i/o error: %s" % (exc,), file=sys.stderr)
        return EXIT_INGESTION
    except (OverflowError, ArithmeticError) as exc:
        print("numerical error: %s" % (exc,), file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print("validation error: %s" % (exc,), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

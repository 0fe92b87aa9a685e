"""File formats: CSV curves and samples, JSON configs and manifests.

All numeric output is serialized with 17 significant digits and LF
newlines regardless of platform or locale, so identical inputs produce
byte-identical files.  Every data file written by the command-line
tool is accompanied by a ``<name>.manifest.json`` sidecar recording
the command, the fully resolved configuration, the seed and the
library version; the manifest carries the only timestamp, keeping the
data file itself reproducible.

Error discipline: a file that cannot be read or does not parse raises
:class:`~prodfade.errors.IngestionError` (missing fields, and fields
that are not JSON numbers where a number goes, included); values that
parse but violate a domain constraint raise ``ValueError`` from the
owning type, or from the reader where a file's fields are not the
owning type's (the ``gg`` schema).
"""

import csv
import json
from datetime import datetime, timezone

import numpy as np

from .errors import IngestionError
from .fit import EmpiricalDistribution, empirical_from_samples
from .mixture import ShadowedParams, _as_int
from .pdist import ProductModel
from .sysmodels import BackscatterConfig, WpcConfig, _positive

__all__ = [
    "format_float",
    "parse_grid",
    "write_csv",
    "write_json",
    "write_manifest",
    "read_empirical_csv",
    "read_params_json",
    "read_wpc_json",
    "read_backscatter_json",
]


def format_float(value):
    """17-significant-digit decimal form; round-trips any double."""
    return format(float(value), ".17g")


def parse_grid(text):
    """Evaluation grid from ``start:stop:points`` or ``start:stop:points:log``.

    Linear grids are inclusive of both endpoints; log grids are
    geometric between two positive endpoints.
    """
    parts = str(text).split(":")
    if len(parts) not in (3, 4):
        raise ValueError("grid must be start:stop:points[:log], got %r" % (text,))
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError("grid fields must be numeric, got %r" % (text,)) from None
    if points < 1:
        raise ValueError("grid needs at least one point")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError("grid scale must be 'log', got %r" % (parts[3],))
        if start <= 0 or stop <= 0:
            raise ValueError("log grid endpoints must be positive")
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


def write_csv(path, header, columns):
    """Write named columns with deterministic formatting.

    ``header`` is a list of column names, ``columns`` the matching list
    of equal-length arrays.
    """
    columns = [np.atleast_1d(np.asarray(c, dtype=float)) for c in columns]
    if len(header) != len(columns):
        raise ValueError("header and columns disagree in length")
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must have equal length")
    # "%.17g" gives the bytes of format_float for every double (and
    # np.float64 is a float).  Rows are streamed one at a time: a join
    # would hold every row string at once, a tolist() every value.
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*columns))


def write_json(path, payload):
    """Deterministically ordered JSON with trailing newline."""
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(data_path, command, config, seed=None):
    """Sidecar manifest for a data file; returns the manifest path."""
    manifest_path = str(data_path) + ".manifest.json"
    from . import __version__
    write_json(manifest_path, {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "output": str(data_path),
    })
    return manifest_path


def _data_rows(reader):
    """Rows of ``reader`` with a non-blank field.

    Empty and whitespace-only rows are skipped.  The first field settles
    almost every row, so the scan of the others runs only when it is
    blank.
    """
    return (row for row in reader if row and (row[0].strip() or any(f.strip() for f in row)))


def _float_column(fields):
    """``fields`` parsed as floats into an array; None if one is not a number."""
    try:
        return np.fromiter(map(float, fields), dtype=float)
    except ValueError:
        return None


def _parse_float(path, line_no, field, text):
    try:
        return float(text)
    except ValueError:
        raise IngestionError(
            "%s line %d: field %r is not a number: %r" % (path, line_no, field, text)
        ) from None


def _raise_first_bad_row(path, names, exact):
    """Read ``path`` again and raise the IngestionError of its first bad data row.

    The fields of each data row are parsed in order as ``names``; with
    ``exact``, a row must also have exactly ``len(names)`` fields.  Line
    numbers are those of the file, blank lines included.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _data_rows(reader)
        next(rows)
        for row in rows:
            if exact and len(row) != len(names):
                raise IngestionError("%s line %d: expected %d fields, got %d"
                                     % (path, reader.line_num, len(names), len(row)))
            for name, text in zip(names, row):
                _parse_float(path, reader.line_num, name, text)
    raise IngestionError("%s: a data row that did not parse parsed when read again" % (path,))


def read_empirical_csv(path):
    """Empirical data from CSV.

    Accepted layouts (chosen by the header row):

    * ``sample`` -- one positive draw per line, converted to a step CDF;
      fields after the first are ignored;
    * ``x,cdf`` -- distribution-function points;
    * ``x,pdf`` -- density points.

    Blank and whitespace-only rows are skipped.  The rows are streamed
    once and parsed whole; only when a field does not parse is the file
    read again, to name the line.
    """
    try:
        with open(path, newline="") as fh:
            return _read_empirical(path, _data_rows(csv.reader(fh)))
    except OSError as exc:
        raise IngestionError("cannot read %s: %s" % (path, exc)) from exc


def _read_empirical(path, rows):
    header = [h.strip().lower() for h in next(rows, ())]
    if not header:
        raise IngestionError("%s: empty file" % (path,))

    if header == ["sample"]:
        samples = _float_column(row[0] for row in rows)
        if samples is None:
            _raise_first_bad_row(path, ("sample",), exact=False)
        if samples.size == 0:
            raise IngestionError("%s: no data rows" % (path,))
        return empirical_from_samples(samples)

    if header in (["x", "cdf"], ["x", "pdf"]):
        kind = header[1]
        body = list(rows)
        if not body:
            raise IngestionError("%s: no data rows" % (path,))
        xs = vals = None
        if all(len(row) == 2 for row in body):
            xs = _float_column(row[0] for row in body)
            vals = _float_column(row[1] for row in body)
        if xs is None or vals is None:
            _raise_first_bad_row(path, ("x", kind), exact=True)
        return EmpiricalDistribution(kind, xs, vals)

    if next(rows, None) is None:
        raise IngestionError("%s: no data rows" % (path,))
    raise IngestionError(
        "%s: unrecognized header %r; expected 'sample', 'x,cdf' or 'x,pdf'"
        % (path, ",".join(header))
    )


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IngestionError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise IngestionError("%s: malformed JSON: %s" % (path, exc)) from exc


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise IngestionError("%s: expected a JSON object, got %r" % (path, type(obj).__name__))
    if key not in obj:
        raise IngestionError("%s: missing field %r" % (path, key))
    return obj[key]


def _number(value, key, path):
    """``value`` if it is a JSON number; anything else in a numeric field
    (list, object, string, boolean, null) is a schema error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IngestionError("%s: field %r must be a number, got %s"
                             % (path, key, json.dumps(value)))
    return value


def _require_number(obj, key, path):
    return _number(_require(obj, key, path), key, path)


def _shadowed_from(obj, path, context):
    if not isinstance(obj, dict):
        raise IngestionError("%s: %s must be an object" % (path, context))
    missing = [k for k in ("kappa", "mu", "m") if k not in obj]
    if missing:
        raise IngestionError("%s: %s missing field(s) %s" % (path, context, missing))
    return ShadowedParams(*(
        _number(obj.get(k, 1.0), k, path) for k in ("mean_power", "kappa", "mu", "m")
    ))


def read_params_json(path, dist):
    """Distribution parameters for the ``eval``/``sample`` commands.

    ``dist`` selects the schema: ``kms`` (single channel, returns
    ShadowedParams), ``gg`` (``Gamma(m, omega) * Gamma(m_hat,
    omega_hat)``, the kappa = 0 product model) or ``prod`` (two-link
    product model).
    """
    obj = _load_json(path)
    if dist == "kms":
        return _shadowed_from(obj, path, "parameters")
    if dist == "gg":
        m, m_hat, omega, omega_hat = (
            _require_number(obj, k, path) for k in ("m", "m_hat", "omega", "omega_hat")
        )
        # validated as the file's fields, before they become link parameters
        m, m_hat = _as_int("m", m), _as_int("m_hat", m_hat)
        omega, omega_hat = _positive("omega", omega), _positive("omega_hat", omega_hat)
        return ProductModel(ShadowedParams.nakagami(m, m * omega),
                            ShadowedParams.nakagami(m_hat, m_hat * omega_hat))
    if dist == "prod":
        return ProductModel(
            _shadowed_from(_require(obj, "link_a", path), path, "link_a"),
            _shadowed_from(_require(obj, "link_b", path), path, "link_b"),
        )
    raise ValueError("dist must be 'kms', 'gg' or 'prod', got %r" % (dist,))


def read_wpc_json(path):
    """WpcConfig from JSON; see the sysmodels documentation for fields."""
    obj = _load_json(path)
    kwargs = {
        key: _require_number(obj, key, path)
        for key in ("tx_power_over_noise", "pb_antennas", "rician_k")
    }
    sd = obj.get("s_d_model", "rayleigh")
    if isinstance(sd, dict):
        kind = _require(sd, "kind", path)
        if kind == "rician":
            kwargs["s_d_model"] = "rician"
            kwargs["s_d_rician_k"] = _require_number(sd, "k_factor", path)
        elif kind == "shadowed":
            kwargs["s_d_model"] = _shadowed_from(sd, path, "s_d_model")
        else:
            raise IngestionError("%s: unknown s_d_model kind %r" % (path, kind))
    else:
        kwargs["s_d_model"] = sd
    for key in ("harvest_fraction", "efficiency", "path_loss_exponent",
                "d1", "d2", "rate", "m_proxy"):
        if key in obj:
            kwargs[key] = _number(obj[key], key, path)
    return WpcConfig(**kwargs)


def read_backscatter_json(path):
    """BackscatterConfig from JSON: mean_rx_power plus two links."""
    obj = _load_json(path)
    return BackscatterConfig(
        mean_rx_power=_require_number(obj, "mean_rx_power", path),
        forward=_shadowed_from(_require(obj, "forward", path), path, "forward"),
        reverse=_shadowed_from(_require(obj, "reverse", path), path, "reverse"),
    )

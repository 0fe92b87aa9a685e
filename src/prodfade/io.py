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
import math
import os
import re
import stat
from datetime import datetime, timezone
from io import StringIO
from itertools import chain

import numpy as np

from .errors import IngestionError
from .fit import EmpiricalDistribution, empirical_from_samples
from .mixture import ShadowedParams, _as_int, _positive
from .pdist import ProductModel
from .sysmodels import BackscatterConfig, WpcConfig

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
    geometric between two positive endpoints.  Both endpoints must be
    finite.
    """
    parts = str(text).split(":")
    if len(parts) not in (3, 4):
        raise ValueError("grid must be start:stop:points[:log], got %r" % (text,))
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError("grid fields must be numeric, got %r" % (text,)) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid endpoints must be finite, got %r" % (text,))
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


#: A blank row: a line whose fields hold nothing but whitespace, each
#: quoted or not.  A quoted field that spans lines is not blank.
_BLANK_ROW = re.compile(r'(?:"\s*")?\s*(?:,(?:"\s*")?\s*)*')

#: The reader's headers, each the names of the fields of a data row it parses.
_LAYOUTS = (("sample",), ("x", "cdf"), ("x", "pdf"))


def _data_rows(reader):
    """The rows of the csv ``reader`` that are not blank: a blank row is
    one line, as :data:`_BLANK_ROW` matches it."""
    end = 0
    for row in reader:
        start, end = end, reader.line_num
        if end - start > 1 or any(field.strip() for field in row):
            yield row


def _parse_number(path, line_no, field, text):
    """``text`` as a float, read as the C parser of :func:`np.loadtxt` reads it.

    Surrounding whitespace is allowed; the number itself must be ASCII
    without ``_`` separators, which ``float`` alone would accept.
    """
    number = text.strip()
    if number.isascii() and "_" not in number:
        try:
            return float(number)
        except ValueError:
            pass
    raise IngestionError("%s line %d: field %r is not a number: %r" % (path, line_no, field, text))


def _raise_first_bad_row(path, text, names, reason):
    """Raise the IngestionError of the first data row of ``text`` that does not parse.

    ``text`` is the file's text with its line ends made LF.  The fields
    of each data row are parsed in order as ``names``; with two names, a
    row must have exactly two fields.  Line numbers are those of the
    file, blank lines included.  A row that the csv module cannot split
    is named with its error; if every row parses, ``reason``, the
    bulk parser's complaint, names the file alone.
    """
    reader = csv.reader(StringIO(text))
    try:
        rows = _data_rows(reader)
        next(rows, None)   # the header
        for row in rows:
            if len(names) > 1 and len(row) != len(names):
                raise IngestionError("%s line %d: expected %d fields, got %d"
                                     % (path, reader.line_num, len(names), len(row)))
            for name, field in zip(names, row):
                _parse_number(path, reader.line_num, name, field)
    except csv.Error as exc:
        raise IngestionError("%s line %d: %s" % (path, reader.line_num, exc)) from None
    raise IngestionError("%s: %s" % (path, reason))


def _header(path, fh):
    """Header fields of the open file ``fh``, the number of its line, and
    whether a non-blank row follows it.

    One byte-order mark at the start of the file is dropped, and blank
    rows are skipped; the fields are stripped and lower-cased.
    """
    lines = enumerate(chain([fh.readline().removeprefix("\ufeff")], fh), 1)
    rows = ((n, line) for n, line in lines if not _BLANK_ROW.fullmatch(line))
    n, line = next(rows, (0, None))
    if line is None:
        return [], n, False
    try:
        header = [h.strip().lower() for h in next(csv.reader([line]))]
    except csv.Error as exc:
        raise IngestionError("%s line %d: %s" % (path, n, exc)) from None
    return header, n, next(rows, None) is not None


def _parse_rows(source, names, skip=0):
    """The data rows of ``source``, a path or a list of lines, as floats.

    One call of numpy's C text reader: ``sample`` rows give their first
    field (a 1-d array), curve rows their two fields (a (rows, 2)
    array).  Raises ``ValueError`` where a row does not parse, which an
    undecodable byte is too.
    """
    if len(names) == 1:
        return np.loadtxt(source, delimiter=",", comments=None, quotechar='"',
                          skiprows=skip, usecols=0, ndmin=1)
    data = np.loadtxt(source, delimiter=",", comments=None, quotechar='"',
                      skiprows=skip, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError("expected %d fields per row, got %d" % (len(names), data.shape[1]))
    return data


def _parse_text(path, text, names):
    """:func:`_parse_rows` of the file text ``text`` without its blank rows,
    or the error of its first bad row."""
    text = text.removeprefix("\ufeff")
    body = [line for line in text.split("\n") if not _BLANK_ROW.fullmatch(line)][1:]
    if not body:
        raise IngestionError("%s: no data rows" % (path,))
    try:
        return _parse_rows(body, names)
    except ValueError as exc:
        _raise_first_bad_row(path, text, names, exc)


def read_empirical_csv(path):
    """Empirical data from CSV.

    Accepted layouts (chosen by the header row):

    * ``sample`` -- one positive draw per line, converted to a step CDF;
      fields after the first are ignored;
    * ``x,cdf`` -- distribution-function points;
    * ``x,pdf`` -- density points.

    The header is the first non-blank row, its names matched without
    regard to case or surrounding whitespace; one byte-order mark at
    the start of the file is dropped.  Fields are split at commas, a
    field may be wrapped in double quotes, and a number may have
    whitespace around it but is written in ASCII without ``_``
    separators.  Blank rows, lines whose fields are all empty or
    whitespace, are skipped, and LF, CRLF and CR line ends are all read.

    The data rows of a regular file are parsed in one call of numpy's C
    text reader, given the path; only a file with blank rows is read
    again, and only a file with a bad row is scanned row by row, to name
    the first bad line.  A pipe or other stream can be read only once,
    so its text is read whole and parsed as a file with blank rows is.
    Every failure to read or parse the file, an undecodable byte
    included, raises :class:`~prodfade.errors.IngestionError`.
    """
    try:
        with open(path) as fh:
            text = None if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else fh.read()
            header, skip, more = _header(path, fh if text is None else StringIO(text))
        if not header:
            raise IngestionError("%s: empty file" % (path,))
        if not more:
            raise IngestionError("%s: no data rows" % (path,))
        names = tuple(header)
        if names not in _LAYOUTS:
            raise IngestionError(
                "%s: unrecognized header %r; expected 'sample', 'x,cdf' or 'x,pdf'"
                % (path, ",".join(header)))
        data = None
        if text is None:
            try:
                data = _parse_rows(path, names, skip)
            except ValueError:   # a blank row, a bad row or an undecodable byte
                text = _read_text(path)
        if data is None:
            data = _parse_text(path, text, names)
    except OSError as exc:
        raise IngestionError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    if len(names) == 1:
        return empirical_from_samples(data)
    xs, vals = data.T.copy()
    return EmpiricalDistribution(names[1], xs, vals)


def _read_text(path):
    """The text of ``path`` in the default encoding, its line ends made LF."""
    with open(path) as fh:
        return fh.read()


def _undecodable(path, exc):
    """IngestionError for ``path``, whose text ``exc`` could not decode,
    naming the line of its first bad byte when ``path`` is a regular
    file, which can be read again."""
    try:
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                data = fh.read()
            data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        head = data[:whole.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return IngestionError("cannot decode %s line %d: %s" % (path, line, whole))
    except OSError:
        pass
    return IngestionError("cannot decode %s: %s" % (path, exc))


def _load_json(path):
    """The JSON value in ``path``; one byte-order mark at its start is dropped."""
    try:
        return json.loads(_read_text(path).removeprefix("\ufeff"))
    except OSError as exc:
        raise IngestionError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
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

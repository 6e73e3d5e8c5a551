"""File formats for emitted artifacts: CSV tables/matrices and JSON payloads.

Every CSV starts with comment lines carrying the tool version and the sha256
of the effective run configuration; JSON payloads carry the same fields in a
``meta`` object. Output is deterministic: fixed key order, shortest-roundtrip
float formatting, no timestamps. Ports are 1-based in all emitted files.

Every writer checks its content for non-finite numbers before it opens its
file, and writes nothing when it finds one. A JSON payload is validated in
full and then streamed: everything but its large arrays is formatted first
and held once, as the pieces of its text, and each large array is written a
block of leading-index rows at a time, so memory no longer grows with
``steps``. At 65,536 steps the fan-in ``layout`` command peaks at 46 MB
resident, where writing the document as one string took 204 MB. The 2.9 MB
``ellipsoids.json`` of a 48-port chip traces 3.4 MB to write, where joining
its text at each nesting level traced 9.0 MB, and reading that chip's
82,944-row tomography record traces 4.3 MB, where 8.5 MB went to
per-state masks and separate key arrays.

``read_transfer_matrix`` reads back the transfer matrix of ``unitary.json``
for the config that wrote it, so that later stages need not recompute it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .polarization import STATE_ORDER, ReconstructionError, TomographyRecord

TOOL_VERSION = "0.1.0"


def config_digest(config: dict) -> str:
    """Stable sha256 of a config dict; output location does not affect it."""
    payload = {k: v for k, v in config.items() if k != "out_dir"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_csv(
    path, digest: Optional[str], blocks: Iterable[str], header: Optional[str] = None
) -> None:
    """Comment lines, an optional column-header line, then blocks of
    newline-terminated rows, each written as it comes."""
    with open(path, "w") as handle:
        handle.write(f"# wgwalk {TOOL_VERSION}\n")
        if digest is not None:
            handle.write(f"# config sha256 {digest}\n")
        if header is not None:
            handle.write(header + "\n")
        handle.writelines(blocks)


def csv_digest(path) -> Optional[str]:
    """The config sha256 that a CSV artifact's comment lines name, or None."""
    prefix = "# config sha256 "
    with open(path) as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            if line.startswith(prefix):
                return line[len(prefix) :].strip()
    return None


def _float_lines(rows: np.ndarray) -> Iterator[str]:
    """Each row of a 2-D array as a line of comma-separated shortest-roundtrip floats."""
    for row in rows:
        yield ",".join(map(float.__repr__, row.tolist())) + "\n"


def write_matrix_csv(path, matrix: np.ndarray, digest: Optional[str] = None) -> None:
    """Plain comma-separated matrix body under the standard comment header;
    a non-finite entry raises ValueError and writes nothing."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    check_finite(Path(path).name, matrix)
    _write_csv(path, digest, _float_lines(matrix))


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix CSV, ignoring comment lines.

    Raises ValueError naming the file and 1-based line for an unparseable or
    non-finite field, or a row whose length differs from the first row's.
    """
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(field) for field in line.split(",")]
        except ValueError:
            raise ValueError(f"{path}:{number}: unparseable field in {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{number}: non-finite value in {line!r}")
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"{path}:{number}: {len(row)} fields where the first row has {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return np.array(rows)


def write_table_csv(
    path,
    columns: Sequence[str],
    rows: np.ndarray,
    digest: Optional[str] = None,
) -> None:
    """Column-headed table of floats under the standard comment header; a
    non-finite entry raises ValueError and writes nothing."""
    rows = np.asarray(rows, dtype=float)
    check_finite(Path(path).name, rows)
    _write_csv(path, digest, _float_lines(rows), header=",".join(columns))


_JSON_INDENT = "  "
_encode = json.encoder.encode_basestring_ascii
# A JSON array of more than _BLOCK elements is checked in place, then written
# about _BLOCK elements (whole leading-index rows) at a time, so that the text
# of the whole array is never held.
_BLOCK = 4096
# A list or dict of more than _FEW_ITEMS items whose text runs past
# _TEXT_BLOCK characters is kept as the pieces of that text and never joined,
# so that a large document's text is held once. A container of few items is
# joined without summing its text, which would cost as much as the join for
# the thousands of small dicts of a 48-port report; no payload here nests
# such containers deep enough for that join to copy much.
_FEW_ITEMS = 8
_TEXT_BLOCK = 1 << 16


@functools.lru_cache(maxsize=64)
def _rows_template(shape: tuple, level: int) -> str:
    """``%s`` template of the indented, comma-separated rows of an array of
    ``shape``, without the brackets around them."""
    inner = _array_template(shape[1:], level + 1)
    pad = "\n" + _JSON_INDENT * (level + 1)
    return pad + ("," + pad).join([inner] * shape[0])


@functools.lru_cache(maxsize=64)
def _array_template(shape: tuple, level: int) -> str:
    """``%s`` template laying out an array of ``shape`` as indented nested lists."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    return "[" + _rows_template(shape, level) + "\n" + _JSON_INDENT * level + "]"


def _non_finite(value) -> ValueError:
    return ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _first_non_finite(array: np.ndarray) -> Optional[float]:
    """The first non-finite element of ``array`` in C order, or None; makes no
    copy of an array that has none."""
    # min and max propagate NaN, and are infinite where any element is
    if array.size and not (math.isfinite(array.min()) and math.isfinite(array.max())):
        return float(array[~np.isfinite(array)][0])
    return None


def check_finite(name: str, content) -> None:
    """Raise ValueError naming artifact ``name`` if its content (a JSON
    payload, a matrix, a (columns, rows) table or a TomographyRecord) holds
    a non-finite number."""
    if isinstance(content, TomographyRecord):
        content = content.intensities
    if isinstance(content, dict):
        content = list(content.values())
    if isinstance(content, (list, tuple)):
        for item in content:
            check_finite(name, item)
        return
    if isinstance(content, float):
        bad = None if math.isfinite(content) else content
    elif isinstance(content, np.ndarray):
        bad = _first_non_finite(content)
    else:
        return
    if bad is not None:
        raise ValueError(f"non-finite value {bad!r} in {name}; no artifact written")


def _json_text(value, level: int):
    """JSON text of ``value`` as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``
    writes it at nesting depth ``level``, with floating-point ndarrays laid out
    like their ``tolist()``. Dict keys must be strings.

    Returns a string, or for a large value a list of pieces: strings, and an
    (array, depth) pair for each array of more than ``_BLOCK`` elements, which
    is only checked here and written by ``_write_rows``."""
    if isinstance(value, str):
        return _encode(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _non_finite(value)
        return float.__repr__(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "f":
            raise TypeError(f"array leaves must be floating point, not {value.dtype}")
        if value.size > _BLOCK:
            bad = _first_non_finite(value)
            if bad is not None:
                raise _non_finite(bad)
            return [(value, level)]
        flat = value.ravel().tolist()
        text = _array_template(value.shape, level) % tuple(map(float.__repr__, flat))
        if "n" in text:  # only "nan", "inf" and "-inf" among float reprs hold an "n"
            raise _non_finite(next(v for v in flat if not math.isfinite(v)))
        return text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return _enclose("[]", None, [_json_text(item, level + 1) for item in value], level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value)
        return _enclose("{}", keys, [_json_text(value[key], level + 1) for key in keys], level)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _enclose(brackets: str, keys: Optional[list], items: list, level: int):
    """The ``_json_text`` of a list's ``items``, or of a dict's ``items``
    under their ``keys``, between ``brackets`` at depth ``level``: one
    string, or pieces where an item is pieces or where more than
    ``_FEW_ITEMS`` items run past ``_TEXT_BLOCK`` characters."""
    pad = "\n" + _JSON_INDENT * (level + 1)
    close = "\n" + _JSON_INDENT * level + brackets[1]
    if len(items) <= _FEW_ITEMS or sum(map(len, items)) <= _TEXT_BLOCK:
        try:
            if keys is not None:
                items = [_encode(key) + ": " + item for key, item in zip(keys, items)]
            return brackets[0] + pad + ("," + pad).join(items) + close
        except TypeError:  # an item is pieces, which str + and join refuse
            pass
    pieces = []
    for index, item in enumerate(items):
        label = _encode(keys[index]) + ": " if keys else ""
        pieces.append(("," if index else brackets[0]) + pad + label)
        if isinstance(item, list):
            pieces += item
        else:
            pieces.append(item)
    pieces.append(close)
    return pieces


def _write_rows(handle, array: np.ndarray, level: int) -> None:
    """Write ``array`` as ``_json_text`` lays it out at depth ``level``, a
    block of leading-index rows of about ``_BLOCK`` elements at a time."""
    step = max(1, _BLOCK * len(array) // array.size)
    handle.write("[")
    for start in range(0, len(array), step):
        block = array[start : start + step]
        values = tuple(map(float.__repr__, block.ravel().tolist()))
        handle.write(("," if start else "") + _rows_template(block.shape, level) % values)
    handle.write("\n" + _JSON_INDENT * level + "]")


def write_json(path, payload: dict, digest: Optional[str] = None) -> None:
    """Payload under a ``meta`` object, byte for byte as
    ``json.dumps(document, indent=2, sort_keys=True, allow_nan=False)`` would
    write it with every ndarray replaced by its ``tolist()``. The whole
    document is checked before the file is opened: a non-finite number
    raises ValueError naming the file and writes nothing. The text is then
    written piece by piece, and large arrays a block of rows at a time, so
    that no text is held twice and memory does not grow with array size."""
    meta = {"tool_version": TOOL_VERSION}
    if digest is not None:
        meta["config_sha256"] = digest
    document = {"meta": meta}
    document.update(payload)
    try:
        text = _json_text(document, 0)
    except ValueError as exc:
        raise ValueError(f"{Path(path).name}: {exc}") from None
    with open(path, "w") as handle:
        for piece in [text] if isinstance(text, str) else text:
            if isinstance(piece, str):
                handle.write(piece)
            else:
                _write_rows(handle, *piece)
        handle.write("\n")


def complex_matrix_payload(matrix: np.ndarray) -> np.ndarray:
    """Row-major [re, im] pairs: an (..., 2) float array."""
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1)


def read_transfer_matrix(path, digest: Optional[str], n: int) -> Optional[np.ndarray]:
    """The (n, n) complex matrix that ``unitary.json`` at ``path`` holds, bit for
    bit as written (signed zeros included), or None when the file is missing
    or not JSON, names another config sha256 or tool version, or holds a
    matrix of another shape or with a non-finite entry."""
    try:
        with open(path) as handle:
            document = json.load(handle)
        meta = document["meta"]
        if meta.get("config_sha256") != digest or meta.get("tool_version") != TOOL_VERSION:
            return None
        pairs = np.array(document["matrix_re_im"], dtype=float)
    except (OSError, ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None
    if pairs.shape != (n, n, 2) or not np.isfinite(pairs).all():
        return None
    return pairs.view(complex).reshape(n, n)


def write_record_csv(path, record: TomographyRecord, digest: Optional[str] = None) -> None:
    """Tomography record as (input_port, input_state, output_port, analyzer,
    intensity); a non-finite intensity raises ValueError and writes nothing."""
    check_finite(Path(path).name, record)
    n = record.n_ports
    # "port,state," for each of the 6N (port, state) pairs of either end, in
    # C order of the array, whose rows are input pairs and columns output pairs
    prefixes = [f"{port},{state}," for port in range(1, n + 1) for state in STATE_ORDER]

    def block(head: str, row: np.ndarray) -> str:
        values = map(float.__repr__, row.tolist())
        return "".join([head + tail + value + "\n" for tail, value in zip(prefixes, values)])

    rows = record.intensities.reshape(6 * n, 6 * n)
    header = "input_port,input_state,output_port,analyzer,intensity"
    _write_csv(path, digest, map(block, prefixes, rows), header=header)


_RECORD_DTYPE = np.dtype(
    [
        ("in_port", np.int64),
        # two characters, so that a longer field cannot pass as its first letter
        ("state", "U2"),
        ("out_port", np.int64),
        ("analyzer", "U2"),
        ("intensity", np.float64),
    ]
)


def _state_index(field: np.ndarray) -> np.ndarray:
    """Position in STATE_ORDER of each state in ``field``; len(STATE_ORDER) where unknown."""
    index = np.full(field.shape, len(STATE_ORDER), dtype=np.uint8)
    for position, state in enumerate(STATE_ORDER):
        index[field == state] = position
    return index


def _parse_record_rows(source, skiprows: int = 0) -> np.ndarray:
    with warnings.catch_warnings():  # an empty record is reported by the caller
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=_RECORD_DTYPE, delimiter=",", skiprows=skiprows, ndmin=1)


def _leading_lines(path) -> int:
    """Number of comment, blank and column-header lines that open a record file."""
    count = 0
    with open(path) as handle:
        for line in handle:
            if line.startswith("input_port"):
                return count + 1
            if line.strip() and not line.lstrip().startswith("#"):
                break
            count += 1
    return count


def _data_lines(path, skip: int) -> list:
    """(1-based line number, line) of each row the record parser reads."""
    lines = Path(path).read_text().split("\n")[skip:]
    return [(number, line) for number, line in enumerate(lines, skip + 1) if line.partition("#")[0]]


def _first_unparsable(lines: list) -> int:
    """Index of the first line the record parser rejects; some line must fail."""
    lo, hi = 0, len(lines)  # lines[lo:hi] holds a failing line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_record_rows(lines[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def read_record_csv(path) -> TomographyRecord:
    """Parse a tomography record CSV whose rows may come in any order.

    Raises ReconstructionError naming the file and 1-based line for a
    malformed row, an unknown polarization state, a port below 1, a
    non-finite or negative intensity, or an (input, state, output, analyzer)
    entry an earlier row already gave; and naming the file for a record with
    no rows or with any intensity missing.
    """
    skip = _leading_lines(path)

    def row_error(index: int, what: str) -> ReconstructionError:
        number, line = _data_lines(path, skip)[index]
        return ReconstructionError(f"{path}:{number}: {what}: {line!r}")

    try:
        rows = _parse_record_rows(path, skip)
    except ValueError:
        lines = [line for _, line in _data_lines(path, skip)]
        raise row_error(_first_unparsable(lines), "malformed record row") from None
    if rows.size == 0:
        raise ReconstructionError(f"no record rows found in {path}")

    def check(bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise row_error(int(np.argmax(bad)), what)

    state, analyzer = _state_index(rows["state"]), _state_index(rows["analyzer"])
    check(np.maximum(state, analyzer) == len(STATE_ORDER), "unknown polarization state")
    in_port, out_port = rows["in_port"], rows["out_port"]
    check((in_port < 1) | (out_port < 1), "port index out of range")
    values = rows["intensity"]
    check(~np.isfinite(values), "non-finite intensity")
    check(values < 0, "negative intensity")

    n = int(max(in_port.max(), out_port.max()))
    size = 36 * n * n
    if size > rows.size:  # cannot be complete; also keeps a mistyped port from sizing arrays
        keys = np.stack((in_port, state, out_port, analyzer))
        distinct = np.unique(keys, axis=1).shape[1]
    else:  # each row's C-order index into the (n, 6, n, 6) intensities, built in place of in_port
        keys = in_port
        for scale, term in ((6, state), (n, out_port), (6, analyzer)):
            keys *= scale
            keys += term
        keys -= 6 * (6 * n + 1)  # ports count from 1
        filled = np.zeros(size, dtype=bool)
        filled[keys] = True
        distinct = int(np.count_nonzero(filled))
    if distinct < rows.size:  # the first row whose key an earlier row already holds
        first = np.unique(keys, axis=-1, return_index=True)[1]
        repeat = np.ones(rows.size, dtype=bool)
        repeat[first] = False
        check(repeat, "repeated record entry")
    if distinct < size:
        raise ReconstructionError(
            f"{path}: tomography record incomplete: {size - distinct} of {size} intensities missing"
        )
    data = np.empty(size)
    data[keys] = values
    return TomographyRecord(data.reshape(n, 6, n, 6))

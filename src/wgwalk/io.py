"""File formats for emitted artifacts: CSV tables/matrices and JSON payloads.

Every CSV starts with comment lines carrying the tool version and the sha256
of the effective run configuration; JSON payloads carry the same fields in a
``meta`` object. Output is deterministic: fixed key order, shortest-roundtrip
float formatting, no timestamps. Ports are 1-based in all emitted files.

Every writer checks its content for non-finite numbers, and for what JSON
cannot hold, before it opens its file, and writes nothing when it finds one.
The items of an iterator in a JSON payload are checked only as they are
formatted, so whoever builds them checks what they are built from. A JSON
payload is written as it is formatted, and none of its text is kept: each
array of more than about 1,024 elements a block of leading-index rows at a
time, and every list, object and iterator an item at a time, so memory
grows neither with ``steps`` nor with port count.

``read_transfer_matrix`` reads back the transfer matrix of ``unitary.json``
for the config that wrote it, so that later stages need not recompute it.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Optional

import numpy as np

# The interpreter's own SHA-256: hashlib loads OpenSSL's libcrypto, which
# added about 3.6 MB to the resident memory of every wgwalk process.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # builds that ship only OpenSSL's hashes
        from hashlib import sha256

from .polarization import STATE_ORDER, ReconstructionError, TomographyRecord

TOOL_VERSION = "0.1.0"


def config_digest(config: dict) -> str:
    """Stable sha256 of a config dict; output location does not affect it."""
    payload = {k: v for k, v in config.items() if k != "out_dir"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


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


def _opening_lines(path) -> tuple:
    """The number of comment, blank and column-header lines that open a CSV, and
    the config sha256 that the first digest comment among them names, or None;
    a comment is a line whose first non-blank character is ``#``."""
    prefix, count, digest = "# config sha256 ", 0, None
    with open(path) as handle:
        for line in handle:
            if line.startswith("input_port"):
                return count + 1, digest
            text = line.lstrip()
            if text and not text.startswith("#"):
                break
            if digest is None and text.startswith(prefix):
                digest = text[len(prefix) :].strip()
            count += 1
    return count, digest


def csv_digest(path) -> Optional[str]:
    """The config sha256 that a CSV artifact's opening comment lines name, or None."""
    return _opening_lines(path)[1]


def _float_lines(rows: np.ndarray) -> Iterator[str]:
    """Each row of a 2-D array as a line of comma-separated shortest-roundtrip floats."""
    for row in rows:
        yield ",".join(map(float.__repr__, row.tolist())) + "\n"


def _undecodable(path, exc: UnicodeDecodeError) -> str:
    """A message naming ``path``, the 1-based line of its first byte that
    ``exc``'s codec cannot decode, and why; ``exc`` may count its position
    from the start of one chunk of the file."""
    data = Path(path).read_bytes()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as first:
        exc = first
    line = data.count(b"\n", 0, exc.start) + 1
    return f"{path}:{line}: {exc}"


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix CSV, ignoring comment lines.

    Raises ValueError naming the file and 1-based line for a byte that is not
    text, an unparseable or non-finite field, or a row whose length differs
    from the first row's.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(_undecodable(path, exc)) from None
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
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
    columns: Optional[Sequence[str]],
    rows: np.ndarray,
    digest: Optional[str] = None,
) -> None:
    """Rows of floats (a 0-d or 1-d array as one row) under the standard
    comment header and, unless ``columns`` is None, a column-header line; a
    non-finite entry raises ValueError and writes nothing."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    check_finite(Path(path).name, rows)
    header = None if columns is None else ",".join(columns)
    _write_csv(path, digest, _float_lines(rows), header=header)


_JSON_INDENT = "  "
_encode = json.encoder.encode_basestring_ascii
# A JSON array of more than _BLOCK elements is written about _BLOCK elements
# (whole leading-index rows) at a time, so that the text of the whole array is
# never held, and a block's text (about 40 bytes an element) stays below
# glibc's 128 KiB mmap threshold.
_BLOCK = 1024


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


def _float_array(array: np.ndarray) -> np.ndarray:
    if array.dtype.kind != "f":
        raise TypeError(f"array leaves must be floating point, not {array.dtype}")
    return array


def check_finite(name: str, content) -> None:
    """Raise ValueError naming artifact ``name`` if its content (a JSON
    payload, a matrix, a (columns, rows) table or a TomographyRecord) holds
    a non-finite number, and TypeError, with a note naming ``name``, if it
    holds what ``_write_value`` cannot write: a dict key that is not a
    string, an ndarray that is not floating point, or another leaf that
    ``_scalar_text`` refuses. The items of an iterator are not looked at."""
    if isinstance(content, TomographyRecord):
        content = content.intensities
    pending = [content]
    try:
        while pending:
            value, bad = pending.pop(), None
            if isinstance(value, dict):
                for key in value:
                    if not isinstance(key, str):
                        raise TypeError(f"dict key {key!r} is not a string")
                pending += value.values()
            elif isinstance(value, (list, tuple)):
                pending += value
            elif isinstance(value, np.ndarray):
                bad = _first_non_finite(_float_array(value))
            elif isinstance(value, float):
                bad = None if math.isfinite(value) else value
            elif not isinstance(value, Iterator):
                _scalar_text(value)  # the formatter's TypeError for a leaf JSON cannot hold
            if bad is not None:
                raise ValueError(f"non-finite value {bad!r} in {name}; no artifact written")
    except TypeError as exc:
        exc.__notes__ = [f"in {name}; no artifact written"]  # PEP 678, shown from Python 3.11
        raise


def _array_text(array: np.ndarray, template: str) -> str:
    """``template`` filled with the shortest-roundtrip floats of ``array`` in C order."""
    flat = array.ravel().tolist()
    text = template % tuple(map(float.__repr__, flat))
    if "n" in text:  # only "nan", "inf" and "-inf" among float reprs hold an "n"
        raise _non_finite(next(v for v in flat if not math.isfinite(v)))
    return text


def _scalar_text(value) -> str:
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
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_value(write, value, level: int) -> None:
    """Pass ``write`` the text of ``value`` as ``json.dumps(indent=2,
    sort_keys=True, allow_nan=False)`` lays it out at nesting depth ``level``,
    with a floating-point ndarray as its ``tolist()`` and an iterator as the
    list of its items; dict keys must be strings. An array of more than
    ``_BLOCK`` elements goes a block of leading-index rows at a time, and a
    dict, list, tuple or iterator an item at a time, so that the text of no
    container is ever held whole. A non-finite float raises ValueError as it
    is formatted."""
    if isinstance(value, np.ndarray):
        if _float_array(value).size <= _BLOCK:
            write(_array_text(value, _array_template(value.shape, level)))
            return
        step = max(1, _BLOCK * len(value) // value.size)
        for start in range(0, len(value), step):
            block = value[start : start + step]
            write(("," if start else "[") + _array_text(block, _rows_template(block.shape, level)))
        write("\n" + _JSON_INDENT * level + "]")
        return
    if isinstance(value, dict):
        brackets, items = "{}", ((_encode(key) + ": ", value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple, Iterator)):
        brackets, items = "[]", (("", item) for item in value)
    else:
        write(_scalar_text(value))
        return
    pad = "\n" + _JSON_INDENT * (level + 1)
    opening = brackets[0]
    for label, item in items:
        write(opening + pad + label)
        opening = ","
        _write_value(write, item, level + 1)
    write("\n" + _JSON_INDENT * level + brackets[1] if opening == "," else brackets)


def write_json(path, payload: dict, digest: Optional[str] = None) -> None:
    """Payload under a ``meta`` object, byte for byte as
    ``json.dumps(document, indent=2, sort_keys=True, allow_nan=False)`` would
    write it with every ndarray replaced by its ``tolist()`` and every
    iterator by a list of its items. The document is checked before the file
    is opened (see ``check_finite``): what it cannot hold raises, naming the
    file, and nothing is written. The items of an iterator are checked only as they are
    formatted, so whoever builds them checks what they are built from. The
    text is written as it is formatted (see ``_write_value``) and none of it
    is kept."""
    meta = {"tool_version": TOOL_VERSION}
    if digest is not None:
        meta["config_sha256"] = digest
    document = {"meta": meta}
    document.update(payload)
    check_finite(Path(path).name, document)
    with open(path, "w") as handle:
        _write_value(handle.write, document, 0)
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
        ("in_port", np.int32),
        # two bytes, so that a longer field cannot pass as its first letter; a
        # field that Latin-1 cannot encode fails the parse
        ("state", "S2"),
        ("out_port", np.int32),
        ("analyzer", "S2"),
        ("intensity", np.float64),
    ]
)


def _state_index(field: np.ndarray) -> np.ndarray:
    """Position in STATE_ORDER of each state in ``field``; len(STATE_ORDER) where unknown."""
    index = np.full(field.shape, len(STATE_ORDER), dtype=np.uint8)
    for position, state in enumerate(STATE_ORDER):
        index[field == state.encode()] = position
    return index


def _parse_record_rows(source, skiprows: int = 0) -> np.ndarray:
    with warnings.catch_warnings():  # an empty record is reported by the caller
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=_RECORD_DTYPE, delimiter=",", skiprows=skiprows, ndmin=1)


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

    Raises ReconstructionError naming the file and 1-based line for a byte
    that is not text, a malformed row, an unknown polarization state, a port
    below 1, a non-finite or negative intensity, or an (input, state, output,
    analyzer) entry an earlier row already gave; and naming the file for a
    record with no rows or with any intensity missing.
    """

    def row_error(index: int, what: str) -> ReconstructionError:
        number, line = _data_lines(path, skip)[index]
        return ReconstructionError(f"{path}:{number}: {what}: {line!r}")

    try:
        skip = _opening_lines(path)[0]
        try:
            rows = _parse_record_rows(path, skip)
        except ValueError:  # an undecodable byte too, which _data_lines meets again
            lines = [line for _, line in _data_lines(path, skip)]
            raise row_error(_first_unparsable(lines), "malformed record row") from None
    except UnicodeDecodeError as exc:
        raise ReconstructionError(_undecodable(path, exc)) from None
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

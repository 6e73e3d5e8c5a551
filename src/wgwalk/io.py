"""File formats for emitted artifacts: CSV tables/matrices and JSON payloads.

Every CSV starts with comment lines carrying the tool version and the sha256
of the effective run configuration; JSON payloads carry the same fields in a
``meta`` object. Output is deterministic: fixed key order, shortest-roundtrip
float formatting, no timestamps. Ports are 1-based in all emitted files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .polarization import STATE_ORDER, ReconstructionError, TomographyRecord

TOOL_VERSION = "0.1.0"


def config_digest(config: dict) -> str:
    """Stable sha256 of a config dict; output location does not affect it."""
    payload = {k: v for k, v in config.items() if k != "out_dir"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _comment_lines(digest: Optional[str]) -> List[str]:
    lines = [f"# wgwalk {TOOL_VERSION}"]
    if digest is not None:
        lines.append(f"# config sha256 {digest}")
    return lines


def _fmt(value) -> str:
    return repr(float(value))


def write_matrix_csv(path, matrix: np.ndarray, digest: Optional[str] = None) -> None:
    """Plain comma-separated matrix body under the standard comment header."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = _comment_lines(digest)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


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
    rows: Iterable[Sequence],
    digest: Optional[str] = None,
) -> None:
    lines = _comment_lines(digest)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table_csv(path):
    """Read a column-headed table CSV: returns (column names, float rows)."""
    columns = None
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append([float(field) for field in line.split(",")])
    if columns is None or not rows:
        raise ValueError(f"no table content in {path}")
    return columns, np.array(rows)


def write_json(path, payload: dict, digest: Optional[str] = None) -> None:
    meta = {"tool_version": TOOL_VERSION}
    if digest is not None:
        meta["config_sha256"] = digest
    document = {"meta": meta}
    document.update(payload)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n")


def complex_matrix_payload(matrix: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def complex_matrix_from_payload(payload) -> np.ndarray:
    data = np.asarray(payload, dtype=float)
    if data.ndim != 3 or data.shape[2] != 2:
        raise ValueError("complex matrix payload must be nested [re, im] pairs")
    return data[..., 0] + 1j * data[..., 1]


def write_record_csv(path, record: TomographyRecord, digest: Optional[str] = None) -> None:
    """Tomography record as (input_port, input_state, output_port, analyzer, intensity)."""
    lines = _comment_lines(digest)
    lines.append("input_port,input_state,output_port,analyzer,intensity")
    ports = range(1, record.n_ports + 1)
    labels = itertools.product(ports, STATE_ORDER, ports, STATE_ORDER)  # C order of the array
    values = record.intensities.ravel().tolist()
    for (in_port, state, out_port, analyzer), value in zip(labels, values):
        lines.append(f"{in_port},{state},{out_port},{analyzer},{_fmt(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_record_csv(path) -> TomographyRecord:
    """Parse a tomography record CSV; incomplete records are rejected."""
    state_index = {s: k for k, s in enumerate(STATE_ORDER)}
    entries = []
    max_port = 0
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("input_port"):
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise ReconstructionError(f"malformed record row: {line!r}")
        in_port, state, out_port, analyzer, value = fields
        try:
            in_port = int(in_port)
            out_port = int(out_port)
            value = float(value)
        except ValueError as exc:
            raise ReconstructionError(f"malformed record row: {line!r}") from exc
        if state not in state_index or analyzer not in state_index:
            raise ReconstructionError(f"unknown polarization state in row: {line!r}")
        entries.append((in_port, state_index[state], out_port, state_index[analyzer], value))
        max_port = max(max_port, in_port, out_port)
    if max_port == 0:
        raise ReconstructionError(f"no record rows found in {path}")
    n = max_port
    data = np.zeros((n, 6, n, 6))
    filled = np.zeros((n, 6, n, 6), dtype=bool)
    for in_port, state_idx, out_port, an_idx, value in entries:
        if not (1 <= in_port <= n and 1 <= out_port <= n):
            raise ReconstructionError(f"port index out of range: {in_port}, {out_port}")
        data[in_port - 1, state_idx, out_port - 1, an_idx] = value
        filled[in_port - 1, state_idx, out_port - 1, an_idx] = True
    if not filled.all():
        missing = int(filled.size - filled.sum())
        raise ReconstructionError(
            f"tomography record incomplete: {missing} of {filled.size} intensities missing"
        )
    return TomographyRecord(data)

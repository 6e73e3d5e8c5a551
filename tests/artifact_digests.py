"""The artifact chain and its recorded digests, ``tests/artifact_digests.json``.

The chain is every subcommand on the four shipped configs, a noisy
``simulate``, a ``correlations`` in a fresh directory (which computes U where
the chained one reads ``unitary.json``) and one ``fidelity``, run in one
process through ``cli.main``. The record holds each command's exit code,
refusals included, and for each artifact its sha256 and a value fingerprint,
with the numpy version and platform it was made on.

``tests/test_artifact_digests.py`` reruns the chain and compares it with the
record: byte for byte on the recorded numpy and platform, and elsewhere, where
``eigh`` and BLAS products may round differently, by values within 1e-12 of
each file's largest entry. When a change moves bytes on purpose, rewrite the
record with

    PYTHONPATH=src python tests/artifact_digests.py

and name every file whose digest moved in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import re
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

import numpy as np

from wgwalk import cli

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_suffix(".json")

# Each command as its words, in run order; {configs} is the shipped configs'
# directory and {out} the directory the chain writes into.
CHAIN = [
    f"{command} --config {{configs}}/{name}.json --out {{out}}/{name}"
    for name in ("ellipse_walk", "fanin_frontend", "fanin_walk", "paper_chip")
    for command in (
        "layout",
        "propagate",
        "correlations",
        "hom",
        "tomography --mode simulate",
        "tomography --mode reconstruct",
        "tomography --mode report",
    )
] + [
    "tomography --mode simulate --noise 0.01 --config {configs}/ellipse_walk.json --out {out}/noisy",
    "correlations --config {configs}/paper_chip.json --out {out}/fresh",
    "fidelity {out}/ellipse_walk/gamma_indistinguishable.csv"
    " {out}/paper_chip/gamma_indistinguishable.csv --out {out}/fidelity",
]

# Relative tolerance of the value comparison, against each file's largest entry.
VALUE_TOLERANCE = 1e-12

# A number as JSON and shortest-roundtrip floats write it, standing alone: not
# a digit of a hex digest, a version string or a column name such as p_1.
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def platform_name() -> str:
    """The system, machine and CPU features that numpy's SIMD dispatch and
    OpenBLAS's kernel choice read."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    features = " ".join(sorted(name for name, present in __cpu_features__.items() if present))
    return f"{platform.system()}-{platform.machine()} [{features}]"


def _weights(count: int) -> list:
    """Fixed weights in [-0.5, 0.5), exact in IEEE arithmetic on any platform."""
    return [(k * _GOLDEN) % 1.0 - 0.5 for k in range(count)]


def fingerprint(data: bytes) -> dict:
    """sha256 of the bytes, sha256 of the text with each number replaced by
    ``#``, the count of numbers, the largest magnitude among them and their
    exactly rounded ``_weights`` sum."""
    values = []

    def take(match) -> str:
        values.append(float(match.group()))
        return "#"

    skeleton = _NUMBER.sub(take, data.decode())
    return {
        "sha256": sha256(data).hexdigest(),
        "skeleton_sha256": sha256(skeleton.encode()).hexdigest(),
        "values": len(values),
        "largest": max(map(abs, values), default=0.0),
        "checksum": math.fsum(w * v for w, v in zip(_weights(len(values)), values)),
    }


def run_chain(out: Path) -> dict:
    """Run ``CHAIN`` into ``out`` and record it as ``RECORD`` holds it."""
    codes = {}
    for line in CHAIN:
        argv = [word.format(configs=ROOT / "configs", out=out) for word in line.split()]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[line] = cli.main(argv)
    files = sorted(path for path in out.rglob("*") if path.is_file())
    return {
        "numpy": np.__version__,
        "platform": platform_name(),
        "exit_codes": codes,
        "artifacts": {
            path.relative_to(out).as_posix(): fingerprint(path.read_bytes()) for path in files
        },
    }


def _values_differ(want: dict, got: dict) -> bool:
    if want["skeleton_sha256"] != got["skeleton_sha256"]:
        return True
    tolerance = VALUE_TOLERANCE * want["largest"]
    spread = math.fsum(map(abs, _weights(want["values"])))
    return (
        abs(got["largest"] - want["largest"]) > tolerance
        or abs(got["checksum"] - want["checksum"]) > tolerance * spread
    )


def mismatches(recorded: dict, measured: dict) -> list:
    """A line for each exit code and artifact of ``measured`` that differs
    from ``recorded``, with a note of how the artifacts were compared."""
    codes = recorded["exit_codes"], measured["exit_codes"]
    lines = [
        f"{line}: exit code {codes[1].get(line)} where {codes[0].get(line)} was recorded"
        for line in sorted(codes[0].keys() | codes[1].keys())
        if codes[0].get(line) != codes[1].get(line)
    ]
    want, got = recorded["artifacts"], measured["artifacts"]
    lines += [f"{name}: recorded, not written" for name in want if name not in got]
    lines += [f"{name}: written, not recorded" for name in got if name not in want]
    same_build = all(recorded[key] == measured[key] for key in ("numpy", "platform"))
    for name in (name for name in want if name in got):
        if same_build and want[name]["sha256"] != got[name]["sha256"]:
            lines.append(f"{name}: sha256 moved")
        elif not same_build and _values_differ(want[name], got[name]):
            lines.append(f"{name}: values moved")
    if lines:
        how = (
            "byte for byte"
            if same_build
            else f"by values within {VALUE_TOLERANCE:g} of each file's largest entry, not byte"
            f" for byte, since the record was made on numpy {recorded['numpy']},"
            f" {recorded['platform']}, and this is numpy {measured['numpy']}, {measured['platform']}"
        )
        lines.append(
            f"(artifacts compared {how}; if the bytes moved on purpose, rewrite tests/{RECORD.name}"
            " with `PYTHONPATH=src python tests/artifact_digests.py` and name every moved"
            " file in CHANGES.md)"
        )
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        record = run_chain(Path(out))
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}: {len(record['artifacts'])} artifacts of {len(CHAIN)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: the pipeline subcommands of ``_COMMANDS``, plus fidelity.

Every subcommand reads one JSON run configuration and writes plot-ready
artifacts into the output directory; ``correlations`` and ``hom`` take the
transfer matrix from the ``unitary.json`` that ``propagate`` wrote there for
the same config, when it is usable. Each stage computes its artifacts in
full before ``main`` writes any of them, so a failing command writes
nothing. Exit codes are stable: 0 success, 2 configuration or path error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from . import io
from .config import ConfigError, RunConfig, load_run_config
from .coupling import build_coupling_matrix
from .geometry import pairwise_distances
from .polarization import (
    ReconstructionError,
    TomographyRecord,
    build_polarized_chip,
    pdl_report,
    poincare_ellipsoid,
    reconstruct_mueller,
    simulate_tomography,
)
from .propagation import evolve_amplitudes, propagate_z_dependent, unitary
from .twophoton import (
    gamma_distinguishable,
    gamma_indistinguishable,
    hom_scan,
    similarity,
    visibility,
)

_NORMALIZATION_GUARD = 1e-9

RECORD_FILENAME = "tomography_record.csv"
TRANSFER_FILENAME = "unitary.json"

# File name -> content, in write order. Content is a JSON payload dict, a
# matrix array, a (columns, rows) table or a TomographyRecord.
Artifacts = Dict[str, object]


def _chip_propagators(cfg: RunConfig):
    """Coupling matrix at the final cross-section, fan-in matrix, total U."""
    c = build_coupling_matrix(
        cfg.layout, cfg.coupling, neighbor_cutoff=cfg.neighbor_cutoff_um
    )
    n = cfg.layout.n
    if cfg.layout.fan_in is not None:
        z0, z1 = cfg.layout.z_span
        fan = propagate_z_dependent(
            cfg.layout, cfg.coupling, z0, z1, cfg.steps, cfg.neighbor_cutoff_um
        )
    else:
        fan = np.eye(n, dtype=complex)
    total = unitary(c, cfg.z_mm) @ fan
    return c, fan, total


def _transfer(cfg: RunConfig) -> np.ndarray:
    """The chip's transfer matrix U: the one ``propagate`` wrote into the output
    directory for this config and tool version, if it reads back unitary to
    within the normalization guard, and otherwise computed as ``propagate``
    computes it. Such a file holds the computed U bit for bit, so both give
    the same artifacts."""
    n = cfg.layout.n
    u = io.read_transfer_matrix(cfg.out_dir / TRANSFER_FILENAME, cfg.digest, n)
    if u is not None and np.max(np.abs(u.conj().T @ u - np.eye(n))) <= _NORMALIZATION_GUARD:
        return u
    return _chip_propagators(cfg)[2]


def _input_pair(cfg: RunConfig) -> tuple:
    if len(cfg.input_ports) != 2:
        raise ConfigError("'input_ports' must list two ports for this command")
    i, j = cfg.input_ports[0], cfg.input_ports[1]
    if i == j:
        raise ConfigError("'input_ports' must list two distinct ports")
    return i, j


def cmd_layout(cfg: RunConfig) -> Artifacts:
    layout = cfg.layout
    payload = {
        "count": layout.n,
        "positions_um": layout.positions,
        "z_span_mm": list(layout.z_span) if layout.z_span else None,
    }
    if layout.fan_in is not None:
        z0, z1 = layout.z_span
        samples = np.linspace(z0, z1, cfg.steps + 1)
        payload["profile"] = {
            "z_mm": samples,
            "positions_um": layout.positions_at(samples),
        }
    return {"layout.json": payload, "distances.csv": pairwise_distances(layout)}


def _check_normalized(deviation, what: str) -> None:
    # written so that a NaN deviation fails too
    if not deviation <= _NORMALIZATION_GUARD:
        raise ValueError(f"{what} not normalized (deviation {deviation:.3e})")


def cmd_propagate(cfg: RunConfig) -> Artifacts:
    c, fan, total = _chip_propagators(cfg)
    port = cfg.input_ports[0]
    grid = np.linspace(0.0, cfg.z_mm, cfg.trace_points)
    probabilities = np.abs(evolve_amplitudes(c, fan[:, port], grid)) ** 2
    _check_normalized(np.max(np.abs(probabilities.sum(axis=-1) - 1.0)), "intensity trace")
    columns = ["z"] + [f"p_{k + 1}" for k in range(cfg.layout.n)]
    return {
        "trace.csv": (columns, np.column_stack([grid, probabilities])),
        TRANSFER_FILENAME: {
            "n_ports": cfg.layout.n,
            "input_port": port + 1,
            "z_mm": cfg.z_mm,
            "fan_in_span_mm": list(cfg.layout.z_span) if cfg.layout.z_span else None,
            "matrix_re_im": io.complex_matrix_payload(total),
        },
    }


def cmd_correlations(cfg: RunConfig) -> Artifacts:
    i, j = _input_pair(cfg)
    total = _transfer(cfg)
    gi = gamma_indistinguishable(total, i, j)
    gd = gamma_distinguishable(total, i, j)
    for kind, matrix in (("indistinguishable", gi), ("distinguishable", gd)):
        _check_normalized(abs(np.sum(np.triu(matrix)) - 1.0), f"{kind} correlations")
    diff = gd - gi
    return {
        "gamma_indistinguishable.csv": gi,
        "gamma_distinguishable.csv": gd,
        "gamma_difference.csv": diff,
        "correlations.json": {
            "input_ports": [i + 1, j + 1],
            "indistinguishable": gi,
            "distinguishable": gd,
            "difference": diff,
        },
    }


def cmd_hom(cfg: RunConfig) -> Artifacts:
    if cfg.hom is None:
        raise ConfigError("missing config section 'hom'")
    i, j = _input_pair(cfg)
    total = _transfer(cfg)
    delays, sigma = cfg.hom.delays, cfg.hom.coherence_sigma
    ks, ls = np.triu_indices(cfg.layout.n)
    pairs = list(zip(ks.tolist(), ls.tolist()))
    columns = ["delay"] + [f"C_{k + 1}_{l + 1}" for k, l in pairs]
    rows = np.column_stack([delays, hom_scan(total, i, j, delays, sigma)])
    counts = rows[:, 1:]  # a view: the (D, P) scan is held once, in the table

    values = visibility(delays, counts, sigma, mode=cfg.hom.visibility_mode)
    summary = [
        {"output_pair": [k + 1, l + 1], "visibility": None if math.isnan(v) else v}
        for (k, l), v in zip(pairs, values.tolist())
    ]
    return {
        "hom_scan.csv": (columns, rows),
        "visibility.json": {
            "input_ports": [i + 1, j + 1],
            "coherence_sigma": sigma,
            "mode": cfg.hom.visibility_mode,
            "pairs": summary,
        },
    }


def _load_record(cfg: RunConfig):
    path = cfg.out_dir / RECORD_FILENAME
    if not path.exists():
        raise ConfigError(f"tomography record not found: {path} (run mode 'simulate' first)")
    record = io.read_record_csv(path)
    if record.n_ports != cfg.layout.n:
        raise ReconstructionError(
            f"tomography record {path} covers {record.n_ports} ports, "
            f"but the layout has {cfg.layout.n}"
        )
    digest = io.csv_digest(path)
    if digest and digest != cfg.digest:
        raise ReconstructionError(
            f"tomography record {path} was simulated from config sha256 {digest}, but this "
            f"run's config has sha256 {cfg.digest}; --seed, --steps and --noise overrides "
            "count toward it, so give 'simulate' and this mode the same ones"
        )
    return record


def cmd_tomography_simulate(cfg: RunConfig) -> Artifacts:
    pol = cfg.polarization
    if pol is None:
        raise ConfigError("missing config section 'polarization'")
    chip = build_polarized_chip(
        cfg.layout,
        pol.model_h,
        pol.model_v,
        birefringence=pol.birefringence,
        pol_rotation=pol.pol_rotation,
        loss_h=pol.loss_h,
        loss_v=pol.loss_v,
        z=cfg.z_mm,
        neighbor_cutoff=cfg.neighbor_cutoff_um,
        steps=cfg.steps,
    )
    record = simulate_tomography(chip, pol.photometric_noise, random.Random(cfg.seed))
    return {RECORD_FILENAME: record}


def cmd_tomography_reconstruct(cfg: RunConfig) -> Artifacts:
    matrices, residuals = reconstruct_mueller(_load_record(cfg))
    return {
        "mueller.json": {
            "n_ports": matrices.shape[0],
            "matrices": matrices,
            "residuals": residuals,
        }
    }


def cmd_tomography_report(cfg: RunConfig) -> Artifacts:
    record = _load_record(cfg)
    matrices, _ = reconstruct_mueller(record)
    e = poincare_ellipsoid(matrices)
    # the per-pair objects are built a row at a time as the file is written,
    # so their arrays are checked here, before any artifact is written
    arrays = [e["center"], e["semi_axes"], e["orientation"], *e["markers"].values()]
    io.check_finite("ellipsoids.json", [*arrays, e["average_power"]])
    powers, degenerate = e["average_power"].tolist(), e["degenerate"].tolist()
    n = record.n_ports

    def row(out_port: int) -> list:
        return [
            {
                "output_port": out_port + 1,
                "input_port": in_port + 1,
                "center": e["center"][out_port, in_port],
                "semi_axes": e["semi_axes"][out_port, in_port],
                "orientation": e["orientation"][out_port, in_port],
                "markers": {s: v[out_port, in_port] for s, v in e["markers"].items()},
                "average_power": powers[out_port][in_port],
                "degenerate": degenerate[out_port][in_port],
            }
            for in_port in range(n)
        ]

    return {
        "ellipsoids.json": {"ellipsoids": map(row, range(n))},
        "pdl.json": {"excess_v_loss_by_input_port": pdl_report(record)},
    }


def cmd_fidelity(file_a, file_b) -> Artifacts:
    for path in (file_a, file_b):
        if not Path(path).exists():
            raise ConfigError(f"input file not found: {path}")
    try:
        a = io.read_matrix_csv(file_a)
        b = io.read_matrix_csv(file_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if a.shape != b.shape:  # both are 2-D: read_matrix_csv refuses a ragged row
        raise ValueError(
            f"cannot compare {file_a} ({a.shape[0]} x {a.shape[1]}) with {file_b} "
            f"({b.shape[0]} x {b.shape[1]}): the matrices must have identical shapes"
        )
    value = similarity(a, b)
    return {"fidelity.json": {"similarity": value, "files": [Path(file_a).name, Path(file_b).name]}}


# Subcommand -> (help, stage), or (help, {mode: stage}) whose first mode is the default.
_COMMANDS = {
    "layout": ("materialize the waveguide layout and its distance matrix", cmd_layout),
    "propagate": ("single-photon z-trace and final transfer matrix", cmd_propagate),
    "correlations": ("two-photon correlation matrices for one input pair", cmd_correlations),
    "hom": ("two-photon coincidences across relative input delays", cmd_hom),
    "tomography": (
        "simulate, reconstruct, or report six-state tomography",
        {
            "simulate": cmd_tomography_simulate,
            "reconstruct": cmd_tomography_reconstruct,
            "report": cmd_tomography_report,
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgwalk",
        description="Quantum walks of one and two photons in coupled waveguide arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, stage) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--steps", type=int, default=None, help="override z-integration steps")
        cmd.add_argument("--noise", type=float, default=None, help="override photometric noise")
        if isinstance(stage, dict):
            cmd.add_argument(
                "--mode",
                choices=tuple(stage),
                default=next(iter(stage)),
                help="which tomography stage to run",
            )
    fid = sub.add_parser("fidelity", help="overlap fidelity S between two matrix CSVs")
    fid.add_argument("file_a", help="first correlation-matrix CSV")
    fid.add_argument("file_b", help="second correlation-matrix CSV")
    fid.add_argument("--out", default=".", help="directory for fidelity.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fidelity":
            artifacts = cmd_fidelity(args.file_a, args.file_b)
            out, digest = Path(args.out), None
        else:
            cfg = load_run_config(
                args.config, seed=args.seed, steps=args.steps, noise=args.noise, out=args.out
            )
            _, stage = _COMMANDS[args.command]
            artifacts = (stage[args.mode] if isinstance(stage, dict) else stage)(cfg)
            out, digest = cfg.out_dir, cfg.digest
        # Every writer checks its content before it opens its file; the
        # artifacts after the first are checked here as well, so that a
        # command that fails writes nothing.
        for name, content in list(artifacts.items())[1:]:
            io.check_finite(name, content)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts.items():
            path = out / name
            if isinstance(content, dict):
                io.write_json(path, content, digest)
            elif isinstance(content, TomographyRecord):
                io.write_record_csv(path, content, digest)
            else:  # a (columns, rows) table, or a matrix with no column header
                columns, rows = content if isinstance(content, tuple) else (None, content)
                io.write_table_csv(path, columns, rows, digest)
            if name == "fidelity.json":  # S is reported only once it is on disk
                print(f"S = {content['similarity']!r}")
            print(f"wrote {path}")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

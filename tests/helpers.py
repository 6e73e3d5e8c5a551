"""Shared test utilities: independent oracles and random-instance builders.

The oracles here deliberately avoid the code paths they check: the matrix
exponential uses scaling-and-squaring of a truncated Taylor series instead of
an eigendecomposition, and Stokes vectors of pure fields are computed from
first principles.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from wgwalk.coupling import CouplingModel
from wgwalk.geometry import elliptical_layout
from wgwalk.polarization import STATE_ORDER, STOKES_STATES, JonesTransfer, build_polarized_chip

PAPER_SEMI_MAJOR_UM = 10.2
PAPER_SEMI_MINOR_UM = 7.0


def paper_ellipse(n: int = 6):
    return elliptical_layout(n, PAPER_SEMI_MAJOR_UM, PAPER_SEMI_MINOR_UM)


def expm_taylor(matrix: np.ndarray, terms: int = 24) -> np.ndarray:
    """Power-series matrix exponential with scaling and squaring."""
    m = np.asarray(matrix, dtype=complex)
    norm = np.linalg.norm(m, np.inf)
    squarings = int(np.ceil(np.log2(norm))) + 1 if norm > 0.5 else 0
    scaled = m / (2.0**squarings)
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary via QR with phase fixing (generically asymmetric)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a + a.T) / 2.0


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def field_stokes(field) -> np.ndarray:
    """Stokes vector of a pure Jones field, from first principles."""
    ex, ey = field
    cross = ex * np.conj(ey)
    return np.array(
        [
            abs(ex) ** 2 + abs(ey) ** 2,
            abs(ex) ** 2 - abs(ey) ** 2,
            2.0 * cross.real,
            2.0 * cross.imag,
        ]
    )


def random_chip(
    rng: np.random.Generator, n_ports: int = 6, lossless: bool = False
) -> JonesTransfer:
    """Random physical vectorial chip on the standard ellipse geometry."""
    layout = paper_ellipse(n_ports)
    model_h = CouplingModel(
        c0_per_mm=rng.uniform(0.3, 1.2),
        kappa_per_um=rng.uniform(0.3, 0.8),
        r0_um=10.0,
        beta_per_mm=rng.uniform(-0.5, 0.5),
    )
    model_v = CouplingModel(
        c0_per_mm=rng.uniform(0.3, 1.2),
        kappa_per_um=rng.uniform(0.3, 0.8),
        r0_um=10.0,
        beta_per_mm=rng.uniform(-0.5, 0.5),
    )
    return build_polarized_chip(
        layout,
        model_h,
        model_v,
        birefringence=rng.normal(0.0, 0.5, n_ports),
        pol_rotation=rng.normal(0.0, 0.25, n_ports),
        loss_h=None if lossless else rng.uniform(0.8, 1.0, n_ports),
        loss_v=None if lossless else rng.uniform(0.7, 1.0, n_ports),
        z=rng.uniform(0.5, 2.0),
    )


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


def complex_matrix_from_payload(payload) -> np.ndarray:
    """Complex matrix from the nested [re, im] pairs of an emitted payload."""
    data = np.asarray(payload, dtype=float)
    if data.ndim != 3 or data.shape[2] != 2:
        raise ValueError("complex matrix payload must be nested [re, im] pairs")
    return data[..., 0] + 1j * data[..., 1]


def poincare_ellipsoid_reference(m: np.ndarray, degenerate_tol: float = 1e-12):
    """One matrix at a time, as the ellipsoid report used to compute it: the
    bit-level reference for the stacked ``poincare_ellipsoid``. Returns
    (center, semi_axes, orientation, markers, average_power, degenerate)."""
    rotation, axes, _ = np.linalg.svd(m[1:, 1:])
    if np.linalg.det(rotation) < 0:
        rotation = rotation.copy()
        rotation[:, -1] *= -1.0
    markers = {}
    for state in ("H", "D", "R"):
        out = m @ STOKES_STATES[state]
        direction_norm = np.linalg.norm(out[1:])
        markers[state] = out[0] * out[1:] / direction_norm if direction_norm > 0 else np.zeros(3)
    average_power = float(np.mean([(m @ STOKES_STATES[s])[0] for s in STATE_ORDER]))
    degenerate = bool(np.all(axes <= degenerate_tol))
    return m[1:, 0].copy(), axes, rotation, markers, average_power, degenerate

"""Shared test utilities: independent oracles and random-instance builders.

The oracles here deliberately avoid the code paths they check: the matrix
exponential uses scaling-and-squaring of a truncated Taylor series instead of
an eigendecomposition, two-photon statistics come from brute-force Fock-space
evolution, the z-ordered product is the one-segment-at-a-time loop, and
Stokes vectors of pure fields and Mueller matrices of Jones blocks are
computed from first principles, and tomography is simulated for every input
port at once and reconstructed by one least-squares call on the whole
record. The single-photon helpers, the raised-sine path, the scaled fan-in
and ellipse configs and the tracemalloc peak are conveniences that only the
tests use.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from wgwalk import polarization
from wgwalk.coupling import CouplingModel, build_coupling_matrix
from wgwalk.geometry import WaveguideLayout, _raised_sine, elliptical_layout
from wgwalk.polarization import (
    JONES_STATES,
    STATE_ORDER,
    STOKES_STATES,
    TomographyRecord,
    build_polarized_chip,
    standard_normal,
)
from wgwalk.propagation import evolve_amplitudes, unitary
from wgwalk.twophoton import _validated_inputs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PAPER_SEMI_MAJOR_UM = 10.2
PAPER_SEMI_MINOR_UM = 7.0


def paper_ellipse(n: int = 6):
    return elliptical_layout(n, PAPER_SEMI_MAJOR_UM, PAPER_SEMI_MINOR_UM)


def scaled_fanin_walk(factor: int, steps: int = 1024) -> dict:
    """configs/fanin_walk.json with each of its three ellipses scaled by
    ``factor`` in core count and in both semi-axes, over ``steps`` segments."""
    raw = json.loads((CONFIGS / "fanin_walk.json").read_text())
    for stage in ("input", "intermediate", "final"):
        ellipse = raw["layout"][stage]
        ellipse["count"] *= factor
        ellipse["semi_major_um"] *= factor
        ellipse["semi_minor_um"] *= factor
    raw["steps"] = steps
    return raw


def scaled_ellipse_walk(factor: int, noise: float = 0.01) -> dict:
    """configs/ellipse_walk.json with ``factor`` times the cores on an ellipse
    ``factor`` times as large, its per-guide polarization vectors repeated,
    and ``noise`` as its photometric noise."""
    raw = json.loads((CONFIGS / "ellipse_walk.json").read_text())
    raw["layout"]["count"] *= factor
    raw["layout"]["semi_major_um"] *= factor
    raw["layout"]["semi_minor_um"] *= factor
    pol = raw["polarization"]
    for key in ("birefringence_per_mm", "pol_rotation_per_mm", "loss_h", "loss_v"):
        pol[key] *= factor
    pol["photometric_noise"] = noise
    return raw


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


# Change of basis between the coherency vector (ExEx*, ExEy*, EyEx*, EyEy*)
# and the Stokes vector, and its exact inverse.
_A_STOKES = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, -1j, 1j, 0],
    ],
    dtype=complex,
)
_A_STOKES_INV = 0.5 * np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1j],
        [0, 0, 1, -1j],
        [1, -1, 0, 0],
    ],
    dtype=complex,
)


def jones_to_mueller(jones: np.ndarray) -> np.ndarray:
    """4 x 4 Mueller matrix of a 2 x 2 Jones block."""
    j = np.asarray(jones, dtype=complex)
    if j.shape != (2, 2):
        raise ValueError("expected a 2 x 2 Jones block")
    m = _A_STOKES @ np.kron(j, j.conj()) @ _A_STOKES_INV
    return m.real


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
) -> np.ndarray:
    """Jones transfer of a random physical vectorial chip on the standard
    ellipse geometry."""
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


def fock_oracle(propagator, i: int, j: int) -> np.ndarray:
    """Brute-force two-photon evolution in the photon-number basis.

    Expands the two-photon input over all ordered output mode pairs, collects
    amplitudes onto the N(N+1)/2 unordered number-basis states (sqrt(2)
    normalization for doubly occupied modes), and squares. Deliberately
    loop-based and independent of the closed-form correlation expressions.
    """
    u = np.asarray(propagator)
    i, j = _validated_inputs(u, i, j)
    n = u.shape[0]
    basis = [(k, l) for k in range(n) for l in range(k, n)]
    index = {pair: pos for pos, pair in enumerate(basis)}
    amplitudes = np.zeros(len(basis), dtype=complex)
    for m in range(n):  # output mode of the photon from input i
        for q in range(n):  # output mode of the photon from input j
            contribution = u[m, i] * u[q, j]
            if m == q:
                amplitudes[index[(m, m)]] += np.sqrt(2.0) * contribution
            else:
                amplitudes[index[(min(m, q), max(m, q))]] += contribution
    probabilities = np.abs(amplitudes) ** 2
    values = np.zeros((n, n))
    for (k, l), pos in index.items():
        values[k, l] = probabilities[pos]
        values[l, k] = probabilities[pos]
    return values


def propagate_per_step(
    layout: WaveguideLayout,
    model: CouplingModel,
    z_start: float,
    z_end: float,
    steps: int,
    neighbor_cutoff: Optional[float] = None,
    exponential: Callable[[np.ndarray, float], np.ndarray] = unitary,
) -> np.ndarray:
    """Midpoint-rule z-ordered product built one segment at a time, each
    segment exp(i dz C) taken by ``exponential(C, dz)`` (``eigh`` by default):
    the reference for the batched ``propagate_z_dependent``."""
    dz = (z_end - z_start) / steps
    u = np.eye(layout.n, dtype=complex)
    for k in range(steps):
        z_mid = z_start + (k + 0.5) * dz
        c = build_coupling_matrix(layout, model, z=z_mid, neighbor_cutoff=neighbor_cutoff)
        u = exponential(c, dz) @ u
    return u


def single_photon_distribution(propagator, input_port: int) -> np.ndarray:
    """Output probabilities |U[k, input]|^2; sums to 1 for unitary U."""
    u = np.asarray(propagator)
    if not 0 <= input_port < u.shape[0]:
        raise IndexError(f"input port {input_port} out of range for {u.shape[0]} ports")
    return np.abs(u[:, input_port]) ** 2


def intensity_trace(
    coupling_matrix: np.ndarray, input_port: int, z_grid: Sequence[float]
) -> np.ndarray:
    """Single-photon output distribution at each z of a nondecreasing grid.

    Returns one row per grid point; every row sums to 1 for Hermitian C.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim != 1 or z_grid.size == 0:
        raise ValueError("z_grid must be a nonempty 1-D sequence")
    if np.any(np.diff(z_grid) < 0):
        raise ValueError("z_grid must be nondecreasing")
    n = np.asarray(coupling_matrix).shape[0]
    if not 0 <= input_port < n:
        raise IndexError(f"input port {input_port} out of range for {n} ports")
    one_hot = np.zeros(n, dtype=complex)
    one_hot[input_port] = 1.0
    amps = evolve_amplitudes(coupling_matrix, one_hot, z_grid)
    return np.abs(amps) ** 2


def raised_sine_path(start, end, length: float) -> Callable[[float], np.ndarray]:
    """S-bend path from ``start`` to ``end`` over z in [0, length] mm, through
    the library's fan-in bend.

    The trajectory is x(z) = x0 + dx (z/L - sin(2 pi z/L)/(2 pi)) per
    coordinate: endpoints are exact and the first derivative vanishes at both
    ends, the standard bend-loss-minimizing form.
    """
    if length <= 0:
        raise ValueError("path length must be positive")
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)

    def path(z: float) -> np.ndarray:
        if not 0.0 <= z <= length:
            raise ValueError(f"z = {z} mm outside path domain [0, {length}] mm")
        return _raised_sine(p0, p1, length, z).reshape(p0.shape)

    return path


def port_block(chip: np.ndarray, out_port: int, in_port: int) -> np.ndarray:
    """2 x 2 Jones block from one input port to one output port."""
    r, c = 2 * out_port, 2 * in_port
    return chip[r : r + 2, c : c + 2]


def simulate_tomography_all_ports(
    chip: np.ndarray, photometric_noise: float = 0.0, rng: Optional[random.Random] = None
) -> TomographyRecord:
    """Tomography record with the fields of every input port formed at once
    and the noise drawn in one call."""
    n = chip.shape[0] // 2
    jones = np.stack([JONES_STATES[s] for s in STATE_ORDER])
    blocks = chip.reshape(n, 2, n, 2)  # out port, out pol, in port, in pol
    fields = np.einsum("kpjq,sq->jskp", blocks, jones)  # in port, state, out port, out pol
    analyzers = jones.conj().T
    record = np.empty((n, 6, n, 6))
    for port, field in enumerate(fields):
        np.abs(field @ analyzers, out=record[port])
    record **= 2
    if photometric_noise > 0:
        flat = record.reshape(-1)
        flat *= 1.0 + photometric_noise * standard_normal(rng, flat.size)
        np.maximum(flat, 0.0, out=flat)
    return TomographyRecord(record)


def reconstruct_mueller_one_shot(record: TomographyRecord):
    """Mueller matrices and residuals from one least-squares call with a
    column per (output port, input port, component)."""
    n = record.n_ports
    design = polarization._STOKES_INPUTS
    rhs = (record.intensities @ polarization._ANALYZER_STOKES).transpose(1, 2, 0, 3).reshape(6, -1)
    solution = np.linalg.lstsq(design, rhs, rcond=None)[0]
    matrices = np.ascontiguousarray(solution.T).reshape(n, n, 4, 4)
    misfit = (design @ solution - rhs).reshape(6, n, n, 4)
    misfit = np.moveaxis(misfit, 0, 2).reshape(n, n, 24)  # rows hold (state, component)
    return matrices, np.sqrt(np.mean(misfit**2, axis=-1))

"""Vectorial chip model and six-state polarization tomography.

The chip is modelled at the Jones level: a 2N x 2N transfer matrix on the
port-major mode basis where index 2p is the horizontal mode of port p and
index 2p + 1 its vertical mode. Stokes vectors are bare length-4 float arrays
(S0, S1, S2, S3) with the convention

    S = (|Ex|^2 + |Ey|^2, |Ex|^2 - |Ey|^2, 2 Re(Ex Ey*), 2 Im(Ex Ey*)),

so right circular light (1, -i)/sqrt(2) has S3 = +1. The circular Jones
states are L = (|H> + i|V>)/sqrt(2) and R = (|H> - i|V>)/sqrt(2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .coupling import CouplingModel, build_coupling_matrix
from .geometry import WaveguideLayout
from .propagation import unitary, z_ordered_product

PASSIVITY_TOL = 1e-9

# A Mueller map whose semi-axes are all at most this is a degenerate ellipsoid.
DEGENERATE_TOL = 1e-12

_SQRT2 = np.sqrt(2.0)

# Noise is drawn this many values at a time; even, so that a chunk holds whole
# Box-Muller pairs and the values do not depend on it.
_NOISE_CHUNK = 1 << 13

STATE_ORDER = ("H", "V", "D", "A", "L", "R")

JONES_STATES: Dict[str, np.ndarray] = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "L": np.array([1.0, 1j], dtype=complex) / _SQRT2,
    "R": np.array([1.0, -1j], dtype=complex) / _SQRT2,
}

STOKES_STATES: Dict[str, np.ndarray] = {
    "H": np.array([1.0, 1.0, 0.0, 0.0]),
    "V": np.array([1.0, -1.0, 0.0, 0.0]),
    "D": np.array([1.0, 0.0, 1.0, 0.0]),
    "A": np.array([1.0, 0.0, -1.0, 0.0]),
    "L": np.array([1.0, 0.0, 0.0, -1.0]),
    "R": np.array([1.0, 0.0, 0.0, 1.0]),
}


class ReconstructionError(ValueError):
    """A tomography record cannot be inverted into a Mueller array."""


@dataclass(frozen=True)
class TomographyRecord:
    """Intensities indexed [input_port, input_state, output_port, analyzer].

    Both polarization axes follow ``STATE_ORDER`` = (H, V, D, A, L, R); for a
    six-port chip this is the full 6 x 6 x 6 x 6 protocol.
    """

    intensities: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.intensities, dtype=float)
        if data.ndim != 4 or data.shape[1] != 6 or data.shape[3] != 6:
            raise ValueError("record must have shape (N, 6, N, 6)")
        if data.shape[0] != data.shape[2]:
            raise ValueError("record must cover equal input and output port counts")
        if np.any(data < 0):
            raise ValueError("intensities must be nonnegative")
        object.__setattr__(self, "intensities", data)

    @property
    def n_ports(self) -> int:
        return self.intensities.shape[0]


def _per_guide(values, n: int, default: float, name: str) -> np.ndarray:
    if values is None:
        return np.full(n, default, dtype=float)
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a length-{n} vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def build_polarized_chip(
    layout: WaveguideLayout,
    model_h: CouplingModel,
    model_v: CouplingModel,
    birefringence: Optional[Sequence[float]] = None,
    pol_rotation: Optional[Sequence[float]] = None,
    loss_h: Optional[Sequence[float]] = None,
    loss_v: Optional[Sequence[float]] = None,
    z: float = 1.0,
    neighbor_cutoff: Optional[float] = None,
    steps: int = 64,
) -> np.ndarray:
    """Jones transfer of a chip with polarization-dependent imperfections, a
    complex 2N x 2N array on the port-major mode basis.

    Builds a 2N x 2N Hermitian generator whose horizontal modes couple
    through ``model_h`` and vertical modes through ``model_v``; per-guide
    ``birefringence`` (1/mm) splits the propagation constants by +d/2 on H
    and -d/2 on V, and ``pol_rotation`` (1/mm) mixes H and V within each
    guide. On a fan-in layout the chip first propagates through the fan-in,
    by the ``steps``-segment z-ordered product of that generator; the final
    cross-section then acts over z mm as the exact exponential of the
    generator. ``loss_h``/``loss_v`` amplitude attenuations in (0, 1] are
    applied to the output modes after propagation. A per-guide vector of
    another length or with a non-finite entry raises ValueError naming it.

    With equal coupling models, zero birefringence and rotation, and unit
    losses, the result is the scalar propagator tensored with the
    polarization identity.
    """
    n = layout.n
    delta_beta = _per_guide(birefringence, n, 0.0, "birefringence")
    mixing = _per_guide(pol_rotation, n, 0.0, "pol_rotation")
    att_h = _per_guide(loss_h, n, 1.0, "loss_h")
    att_v = _per_guide(loss_v, n, 1.0, "loss_v")
    for name, att in (("loss_h", att_h), ("loss_v", att_v)):
        if not np.all((att > 0) & (att <= 1)):
            raise ValueError(f"{name} amplitudes must lie in (0, 1]")
    idx = np.arange(n)

    def generator(z_at=None) -> np.ndarray:
        c_h = build_coupling_matrix(layout, model_h, z=z_at, neighbor_cutoff=neighbor_cutoff)
        c_v = build_coupling_matrix(layout, model_v, z=z_at, neighbor_cutoff=neighbor_cutoff)
        g = np.zeros(c_h.shape[:-2] + (2 * n, 2 * n))
        g[..., 0::2, 0::2] = c_h
        g[..., 1::2, 1::2] = c_v
        g[..., 2 * idx, 2 * idx] += delta_beta / 2.0
        g[..., 2 * idx + 1, 2 * idx + 1] -= delta_beta / 2.0
        g[..., 2 * idx, 2 * idx + 1] = mixing
        g[..., 2 * idx + 1, 2 * idx] = mixing
        return g

    propagated = unitary(generator(), z)
    if layout.fan_in is not None:
        z0, z1 = layout.z_span
        propagated = propagated @ z_ordered_product(generator, z0, z1, steps)
    attenuation = np.empty(2 * n)
    attenuation[0::2] = att_h
    attenuation[1::2] = att_v
    return attenuation[:, None] * propagated


def standard_normal(rng: random.Random, count: int) -> np.ndarray:
    """``count`` standard normal draws from ``rng``.

    Each pair of 64-bit MT19937 words gives two 53-bit uniforms, and Box-Muller
    turns them into two normals, which land at consecutive positions; an odd
    count drops the second normal of the last pair.
    """
    words = np.frombuffer(rng.randbytes(16 * ((count + 1) // 2)), dtype="<u8")
    uniform = (words >> np.uint64(11)) * 2.0**-53  # in [0, 1)
    radius = np.sqrt(-2.0 * np.log1p(-uniform[0::2]))
    angle = 2.0 * math.pi * uniform[1::2]
    normals = np.empty(2 * radius.size)
    normals[0::2] = radius * np.cos(angle)
    normals[1::2] = radius * np.sin(angle)
    return normals[:count]


def simulate_tomography(
    chip: np.ndarray,
    photometric_noise: float = 0.0,
    rng: Optional[random.Random] = None,
) -> TomographyRecord:
    """Six-state, six-analyzer tomography record of a 2N x 2N Jones transfer.

    Every input port is excited with the six canonical polarization states;
    every output port is projected onto the same six analyzer states.
    ``photometric_noise`` is the relative sigma of multiplicative Gaussian
    intensity noise (clipped at zero), drawn from ``rng`` (a fresh unseeded
    ``random.Random`` when None) by ``standard_normal`` in the C order of the
    record; 0 gives the exact noiseless record, and a sigma so large that a
    noisy intensity overflows raises ValueError. The complex fields are formed
    one input port at a time. A chip that is not square with even size, or not
    passive (lossy is allowed, but no singular value above 1), raises
    ValueError first.
    """
    chip = np.asarray(chip, dtype=complex)
    if chip.ndim != 2 or chip.shape[0] != chip.shape[1] or chip.shape[0] % 2 != 0:
        raise ValueError("Jones transfer must be square with even dimension")
    top = np.linalg.svd(chip, compute_uv=False)[0]
    if top > 1.0 + PASSIVITY_TOL:
        raise ValueError(f"Jones transfer not passive: max singular value {top:.9f}")
    if photometric_noise < 0:
        raise ValueError("photometric_noise must be nonnegative")
    n = chip.shape[0] // 2
    jones = np.stack([JONES_STATES[s] for s in STATE_ORDER])
    blocks = chip.reshape(n, 2, n, 2)  # out port, out pol, in port, in pol
    analyzers = jones.conj().T
    record = np.empty((n, 6, n, 6))
    for port in range(n):
        field = np.einsum("kpq,sq->skp", blocks[:, :, port], jones)  # state, out port, out pol
        np.abs(field @ analyzers, out=record[port])
    record **= 2
    if photometric_noise > 0:
        rng = random.Random() if rng is None else rng
        flat = record.reshape(-1)  # a view: the noise is applied in place
        for start in range(0, flat.size, _NOISE_CHUNK):
            chunk = flat[start : start + _NOISE_CHUNK]
            with np.errstate(over="ignore", invalid="ignore"):
                chunk *= 1.0 + photometric_noise * standard_normal(rng, chunk.size)
            if not np.isfinite(chunk).all():
                raise ValueError(
                    f"photometric_noise {photometric_noise!r} overflows a noisy tomography intensity"
                )
        np.maximum(flat, 0.0, out=flat)
    return TomographyRecord(record)


_STOKES_INPUTS = np.stack([STOKES_STATES[s] for s in STATE_ORDER])  # (6, 4)

# Analyzer intensities (rows in STATE_ORDER) -> S = (I_H + I_V, I_H - I_V, I_D - I_A, I_R - I_L)
_ANALYZER_STOKES = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],  # H
        [1.0, -1.0, 0.0, 0.0],  # V
        [0.0, 0.0, 1.0, 0.0],  # D
        [0.0, 0.0, -1.0, 0.0],  # A
        [0.0, 0.0, 0.0, -1.0],  # L
        [0.0, 0.0, 0.0, 1.0],  # R
    ]
)


def reconstruct_mueller(record: TomographyRecord) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares Mueller matrices from a six-state tomography record.

    For every (output, input) port pair the six measured output Stokes
    vectors are regressed against the six canonical input states (24
    equations for 16 unknowns); the redundant protocol averages photometric
    noise. Returns ``(matrices, residuals)``: ``matrices[i, j]`` of shape
    (N, N, 4, 4) maps input-port-j Stokes vectors to output-port-i ones, and
    ``residuals[i, j]`` of shape (N, N) is that pair's rms equation residual.
    The problems are solved one input port at a time, so the temporaries hold
    N, not N**2, port pairs.
    """
    n = record.n_ports
    matrices = np.empty((n, n, 4, 4))
    residuals = np.empty((n, n))
    for port, intensities in enumerate(record.intensities):
        # One least-squares problem with a column per (out, component).
        rhs = (intensities @ _ANALYZER_STOKES).reshape(6, -1)
        solution = np.linalg.lstsq(_STOKES_INPUTS, rhs, rcond=None)[0]
        matrices[:, port] = solution.T.reshape(n, 4, 4)
        misfit = (_STOKES_INPUTS @ solution - rhs).reshape(6, n, 4)
        misfit = np.moveaxis(misfit, 0, 1).reshape(n, 24)  # rows hold (state, component)
        residuals[:, port] = np.sqrt(np.mean(misfit**2, axis=-1))
    return matrices, residuals


def poincare_ellipsoid(mueller: np.ndarray) -> dict:
    """Geometry of the image of the unit Poincare sphere under a Mueller map.

    Fully polarized unit-power inputs (1, s) map to center + B s where the
    center is the lower part of the first column and B the lower-right 3 x 3
    block; the singular values of B are the semi-axes and its left singular
    vectors the principal directions. Markers give the mapped H, D, and R
    inputs as arrows along the output polarization direction scaled by
    transmitted power, and ``average_power`` is the mean output S0 over the
    six canonical inputs.

    Returns the ``ellipsoids.json`` fields by name: ``center``,
    ``semi_axes``, ``orientation``, ``markers`` (a dict of H, D and R),
    ``average_power`` and ``degenerate``. Each is an array with the leading
    axes of ``mueller`` (0-d ``average_power`` and ``degenerate`` for one
    4 x 4 matrix), and each entry of a stack of shape (..., 4, 4) equals bit
    for bit the call on that matrix alone.
    """
    m = np.asarray(mueller, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (4, 4) or not np.all(np.isfinite(m)):
        raise ValueError("expected a finite 4 x 4 Mueller matrix")
    rotation, axes, _ = np.linalg.svd(m[..., 1:, 1:])
    rotation[np.linalg.det(rotation) < 0, :, -1] *= -1.0  # keep proper rotations
    outputs = {s: m @ STOKES_STATES[s] for s in STATE_ORDER}  # one matvec per matrix
    markers = {}
    for state in ("H", "D", "R"):
        out = outputs[state]
        direction = out[..., 1:]
        # sqrt of the same dot product np.linalg.norm takes of one vector
        norm = np.sqrt(direction[..., None, :] @ direction[..., :, None])[..., 0]
        markers[state] = np.zeros_like(direction)
        np.divide(out[..., :1] * direction, norm, out=markers[state], where=norm > 0)
    powers = np.stack([outputs[s][..., 0] for s in STATE_ORDER], axis=-1)
    return {
        "center": m[..., 1:, 0].copy(),
        "semi_axes": axes,
        "orientation": rotation,
        "markers": markers,
        "average_power": np.mean(powers, axis=-1),
        "degenerate": np.all(axes <= DEGENERATE_TOL, axis=-1),
    }


def extract_h_subspace(matrices: np.ndarray) -> np.ndarray:
    """Estimated |U|^2 in the horizontal subspace.

    Applies each Mueller matrix of the (N, N, 4, 4) ``matrices`` that
    ``reconstruct_mueller`` returns to the H Stokes vector and gives the
    (N, N) H-projected transmitted power (S0 + S1)/2 of the outputs, the
    intensity-level transfer a polarization-insensitive measurement of
    horizontal light would see.
    """
    stokes_out = matrices @ STOKES_STATES["H"]
    return 0.5 * (stokes_out[..., 0] + stokes_out[..., 1])


def pdl_report(record: TomographyRecord) -> np.ndarray:
    """Per-input-port excess loss of vertical vs horizontal excitation.

    Total transmitted power for an input is the sum of I_H + I_V over all
    output ports; the entry for input port p is 1 - P_V(p) / P_H(p).
    """
    h_idx = STATE_ORDER.index("H")
    v_idx = STATE_ORDER.index("V")
    # I_H + I_V at an output port is its total intensity S0
    totals = record.intensities[:, :, :, (h_idx, v_idx)].sum(axis=(2, 3))
    power_h = totals[:, h_idx]
    power_v = totals[:, v_idx]
    if np.any(power_h <= 0):
        raise ValueError("loss ratio undefined: zero transmitted power for an H input")
    return 1.0 - power_v / power_h

"""Propagators U(z) = exp(i z C), amplitude traces and z-ordered products.

The matrix exponential of the real-symmetric (more generally Hermitian)
coupling matrix is evaluated spectrally, so the result is unitary by
construction. ``u[k, j]`` is the complex amplitude from input port j to
output port k; ports are 0-based throughout the library.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .coupling import CouplingModel, build_coupling_matrix
from .geometry import WaveguideLayout

# Default numerical tolerances; overridable per call where they matter.
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10

# Segments whose generators are sampled and diagonalized together by
# z_ordered_product; bounds its temporaries at this many cross-sections.
SEGMENTS_PER_BATCH = 32


def _check_hermitian(c: np.ndarray, tol: float) -> None:
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise ValueError("coupling matrix must be square")
    deviation = np.max(np.abs(c - np.swapaxes(c, -1, -2).conj()))
    if deviation > tol:
        raise ValueError(
            f"coupling matrix is not Hermitian (max deviation {deviation:.3e})"
        )


def unitary(
    coupling_matrix: np.ndarray, z: float, hermiticity_tol: float = HERMITICITY_TOL
) -> np.ndarray:
    """Propagator exp(i z C) of a Hermitian coupling matrix.

    Uses the eigendecomposition of C, so unitarity holds to machine precision
    regardless of ||z C||. A stack of shape (..., n, n) gives the stack of
    propagators over the same length z, each equal bit for bit to the call on
    that matrix alone.
    """
    c = np.asarray(coupling_matrix)
    _check_hermitian(c, hermiticity_tol)
    if z < 0:
        raise ValueError("propagation length must be nonnegative")
    w, v = np.linalg.eigh(c)
    return (v * np.exp(1j * z * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def evolve_amplitudes(
    coupling_matrix: np.ndarray,
    initial: np.ndarray,
    z_grid: Sequence[float],
    hermiticity_tol: float = HERMITICITY_TOL,
) -> np.ndarray:
    """Amplitude vectors exp(i z C) @ initial for every z in the grid.

    Diagonalizes C once; returns an array of shape (len(z_grid), N).
    """
    c = np.asarray(coupling_matrix)
    _check_hermitian(c, hermiticity_tol)
    z_grid = np.asarray(z_grid, dtype=float)
    a0 = np.asarray(initial, dtype=complex)
    w, v = np.linalg.eigh(c)
    modal = v.conj().T @ a0
    phases = np.exp(1j * np.outer(z_grid, w))
    return (phases * modal) @ v.T


def z_ordered_product(
    generator: Callable[[np.ndarray], np.ndarray],
    z_start: float,
    z_end: float,
    steps: int,
) -> np.ndarray:
    """Transfer matrix of the z-dependent generator H(z) over [z_start, z_end].

    The interval is split into ``steps`` equal segments; segment k applies
    exp(i dz H(z_k)) with H sampled at its midpoint z_k, and the product is
    taken in z order (later segments on the left). It converges to the
    z-ordered exponential as steps grows. ``generator`` maps an array of z to
    the stack of Hermitian matrices there (N x N scalar couplings or 2N x 2N
    Jones generators alike); it is called once per batch of
    ``SEGMENTS_PER_BATCH`` midpoints.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if z_end < z_start:
        raise ValueError("z_end must not precede z_start")
    dz = (z_end - z_start) / steps
    midpoints = z_start + (np.arange(steps) + 0.5) * dz
    u = None
    for first in range(0, steps, SEGMENTS_PER_BATCH):
        segments = unitary(generator(midpoints[first : first + SEGMENTS_PER_BATCH]), dz)
        if u is None:
            u = np.eye(segments.shape[-1], dtype=complex)
        for segment in segments:
            u = segment @ u
    return u


def propagate_z_dependent(
    layout: WaveguideLayout,
    model: CouplingModel,
    z_start: float,
    z_end: float,
    steps: int,
    neighbor_cutoff: Optional[float] = None,
) -> np.ndarray:
    """Midpoint-rule z-ordered product of exp(i dz C(z)) along a z-dependent layout.

    See :func:`z_ordered_product`; the layout profile must cover
    [z_start, z_end].
    """
    return z_ordered_product(
        lambda z: build_coupling_matrix(layout, model, z=z, neighbor_cutoff=neighbor_cutoff),
        z_start,
        z_end,
        steps,
    )

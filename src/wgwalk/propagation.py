"""Propagators U(z) = exp(i z C), amplitude traces and z-ordered products.

The matrix exponential of the real-symmetric (more generally Hermitian)
coupling matrix over an arbitrary length z is evaluated spectrally, so the
result is unitary by construction. The short segments of a z-ordered product
use a scaled Taylor cos/sin series instead, which needs only matrix products.
``u[k, j]`` is the complex amplitude from input port j to output port k;
ports are 0-based throughout the library.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .coupling import CouplingModel, build_coupling_matrix
from .geometry import WaveguideLayout

# Largest |C - C^H| entry accepted as Hermitian.
HERMITICITY_TOL = 1e-12

# Segments whose generators z_ordered_product samples and exponentiates
# together. A batch holds about BATCH_ELEMENTS matrix elements (32 segments of
# 24 x 24), so that its temporaries, a few copies of the stack, do not grow
# with the matrix size n; but at least MIN_BATCH_SEGMENTS segments, so that
# large generators (48 x 48 and up) do not pay the fixed cost of a batch per
# segment or two. The first batch holds MIN_BATCH_SEGMENTS, as n is read from
# its shape.
BATCH_ELEMENTS = 18_432
MIN_BATCH_SEGMENTS = 8

# Taylor kernel: each dz H is scaled by 2**-s until its 1-norm is at most
# _TAYLOR_THETA, where the first omitted term, ||X||**14 / 14!, is at most
# 4.3e-20. Coefficients of the cos series in X**2 and of sin(X) / X likewise.
_TAYLOR_THETA = 0.25
_COS = [(-1) ** k / math.factorial(2 * k) for k in range(7)]
_SINC = [(-1) ** k / math.factorial(2 * k + 1) for k in range(7)]


def _check_hermitian(c: np.ndarray) -> None:
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise ValueError("coupling matrix must be square")
    deviation = np.max(np.abs(c - np.swapaxes(c, -1, -2).conj()))
    # written so that a NaN deviation fails too
    if not deviation <= HERMITICITY_TOL:
        raise ValueError(
            f"coupling matrix is not Hermitian (max deviation {deviation:.3e})"
        )


def unitary(coupling_matrix: np.ndarray, z: float) -> np.ndarray:
    """Propagator exp(i z C) of a Hermitian coupling matrix.

    Uses the eigendecomposition of C, so unitarity holds to machine precision
    regardless of ||z C||. A stack of shape (..., n, n) gives the stack of
    propagators over the same length z, each equal bit for bit to the call on
    that matrix alone.
    """
    c = np.asarray(coupling_matrix)
    _check_hermitian(c)
    if z < 0:
        raise ValueError("propagation length must be nonnegative")
    w, v = np.linalg.eigh(c)
    return (v * np.exp(1j * z * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def evolve_amplitudes(
    coupling_matrix: np.ndarray, initial: np.ndarray, z_grid: Sequence[float]
) -> np.ndarray:
    """Amplitude vectors exp(i z C) @ initial for every z in the grid.

    Diagonalizes C once; returns an array of shape (len(z_grid), N).
    """
    c = np.asarray(coupling_matrix)
    _check_hermitian(c)
    z_grid = np.asarray(z_grid, dtype=float)
    a0 = np.asarray(initial, dtype=complex)
    w, v = np.linalg.eigh(c)
    modal = v.conj().T @ a0
    phases = np.exp(1j * np.outer(z_grid, w))
    return (phases * modal) @ v.T


def _exp_i_taylor(h: np.ndarray, dz: float) -> np.ndarray:
    """exp(i dz H) for a (k, n, n) stack of Hermitian H, by scaling and squaring.

    Each matrix gets its own scaling 2**-s, the smallest s >= 0 with
    ||dz H||_1 / 2**s <= _TAYLOR_THETA, so a matrix's result does not depend
    on its stack-mates. cos X and sin X are summed through X**12 and X**13
    from X**2, X**4 and X**6 (six products, real when H is real), and
    cos X + i sin X is squared s times.
    """
    x = dz * h
    norms = np.max(np.sum(np.abs(x), axis=-2), axis=-1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("segment generator is not finite")
    _check_hermitian(h)
    mantissa, exponent = np.frexp(norms / _TAYLOR_THETA)
    s = np.maximum(exponent - (mantissa == 0.5), 0)
    x = x * np.ldexp(1.0, -s)[:, None, None]  # exact: a power of two
    eye = np.eye(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2

    def even(c):  # sum of c[k] X**2k for k <= 6, with X**6 factored out of the tail
        return c[0] * eye + c[1] * x2 + c[2] * x4 + x6 @ (
            c[3] * eye + c[4] * x2 + c[5] * x4 + c[6] * x6
        )

    u = even(_COS) + 1j * (x @ even(_SINC))
    for squaring in range(int(s.max())):
        again = s > squaring
        root = u[again]
        u[again] = root @ root
    return u


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
    the stack of n x n Hermitian matrices there (N x N scalar couplings or
    2N x 2N Jones generators alike); it is called once per batch of
    midpoints, whose segment exponentials come from one scaled Taylor
    evaluation. The first batch holds ``MIN_BATCH_SEGMENTS`` segments and
    each later one ``max(MIN_BATCH_SEGMENTS, BATCH_ELEMENTS // n**2)``, so
    a batch holds about BATCH_ELEMENTS matrix elements up to n = 48 and
    8 n**2 above, whatever ``steps``. Each segment is scaled on its own, so
    the result does not depend on the batching. A non-finite or non-Hermitian
    generator raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if z_end < z_start:
        raise ValueError("z_end must not precede z_start")
    dz = (z_end - z_start) / steps
    # All midpoints at once, 8 bytes a segment: a step count too large for
    # this array fails here at once, not after days of products.
    midpoints = z_start + (np.arange(steps) + 0.5) * dz
    u = None
    first, size = 0, MIN_BATCH_SEGMENTS
    while first < steps:
        segments = _exp_i_taylor(generator(midpoints[first : first + size]), dz)
        first += size
        if u is None:
            n = segments.shape[-1]
            u = np.eye(n, dtype=complex)
            size = max(MIN_BATCH_SEGMENTS, BATCH_ELEMENTS // n**2)
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

    See :func:`z_ordered_product`; the layout's ``z_span`` must cover
    [z_start, z_end].
    """
    return z_ordered_product(
        lambda z: build_coupling_matrix(layout, model, z=z, neighbor_cutoff=neighbor_cutoff),
        z_start,
        z_end,
        steps,
    )

"""Transverse waveguide layouts and z-dependent fan-in trajectories.

Units are fixed package-wide: transverse coordinates in micrometers (um),
propagation distance z in millimeters (mm). Layout builders return immutable
``WaveguideLayout`` objects; layouts produced by :func:`fan_in_layout` also
hold their two-stage raised-sine fan-in as plain data, so every layout can be
pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class WaveguideLayout:
    """Positions of N waveguide cores in the transverse plane.

    ``positions`` is an (N, 2) array in um; for a fan-in layout it is the final
    cross-section, and ``fan_in`` holds the (input positions, intermediate
    positions, stage1_mm, stage2_mm) of :func:`fan_in_layout`.
    """

    positions: np.ndarray
    fan_in: Optional[Tuple[np.ndarray, np.ndarray, float, float]] = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be an (N, 2) array with N >= 1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def z_span(self) -> Optional[Tuple[float, float]]:
        """Closed z domain [0, stage1_mm + stage2_mm] of the fan-in; None without one."""
        return None if self.fan_in is None else (0.0, self.fan_in[2] + self.fan_in[3])

    def positions_at(self, z=None) -> np.ndarray:
        """Cross-section at propagation distance z, or the static one.

        An array of z gives the stacked cross-sections, shape z.shape + (N, 2).
        """
        if z is None:
            return self.positions
        if self.fan_in is None:
            raise ValueError("layout has no fan-in")
        z0, z1 = self.z_span
        zs = np.asarray(z)
        outside = ~((z0 <= zs) & (zs <= z1))  # NaN counts as outside
        if np.any(outside):
            bad = zs[outside][0] if zs.ndim else z
            raise ValueError(f"z = {bad} mm outside profile domain [{z0}, {z1}] mm")
        p0, p1, stage1, stage2 = self.fan_in
        zs = np.asarray(z, dtype=float)
        first = zs <= stage1
        # each stage's bend is evaluated on its own samples only
        out = np.empty(zs.shape + self.positions.shape)
        out[first] = _raised_sine(p0, p1, stage1, zs[first])
        out[~first] = _raised_sine(p1, self.positions, stage2, zs[~first] - stage1)
        return out


def linear_layout(n: int, pitch: float) -> WaveguideLayout:
    """Collinear array on the x-axis: core k at (k * pitch, 0) um."""
    if n < 1:
        raise ValueError("waveguide count must be at least 1")
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    x = pitch * np.arange(n, dtype=float)
    return WaveguideLayout(np.column_stack([x, np.zeros(n)]))


def elliptical_layout(
    n: int, a: float, b: float, angle_offset: float = 0.0
) -> WaveguideLayout:
    """Cores with equal angular spacing on an ellipse.

    Core k sits at (a cos t_k, b sin t_k) with t_k = angle_offset + 2 pi k / n,
    counterclockwise, so index 0 lies at angle ``angle_offset``.
    """
    if n < 1:
        raise ValueError("waveguide count must be at least 1")
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    theta = angle_offset + _TWO_PI * np.arange(n, dtype=float) / n
    return WaveguideLayout(np.column_stack([a * np.cos(theta), b * np.sin(theta)]))


def permuted_layout(layout: WaveguideLayout, order: Sequence[int]) -> WaveguideLayout:
    """Relabel cores so that new index k occupies old index order[k]."""
    idx = np.asarray(order, dtype=int)
    if sorted(idx.tolist()) != list(range(layout.n)):
        raise ValueError(f"order must be a permutation of 0..{layout.n - 1}")
    if layout.fan_in is None:
        return WaveguideLayout(layout.positions[idx])
    p0, p1, stage1, stage2 = layout.fan_in
    return WaveguideLayout(layout.positions[idx], (p0[idx], p1[idx], stage1, stage2))


def _raised_sine(start: np.ndarray, end: np.ndarray, length: float, z):
    # zero-slope-at-endpoints S-bend, applied component-wise; an array of z
    # gives one (N, 2) cross-section per entry
    u = np.asarray(z, dtype=float)[..., None, None] / length
    s = u - np.sin(_TWO_PI * u) / _TWO_PI
    return start + (end - start) * s


def fan_in_layout(
    input_layout: WaveguideLayout,
    intermediate: WaveguideLayout,
    final: WaveguideLayout,
    stage1_length: float,
    stage2_length: float,
) -> WaveguideLayout:
    """Two-stage raised-sine fan-in through an intermediate cross-section.

    Every core follows a raised-sine bend from its input position to the
    intermediate one over ``stage1_length`` mm, then another to its final
    position over ``stage2_length`` mm; the profile is continuous at the
    stage boundary. The returned layout's static positions are the final
    cross-section and its fan-in spans [0, stage1 + stage2].
    """
    if not input_layout.n == intermediate.n == final.n:
        raise ValueError("input, intermediate, and final layouts must have equal N")
    if stage1_length <= 0 or stage2_length <= 0:
        raise ValueError("stage lengths must be positive")
    return WaveguideLayout(
        final.positions.copy(),
        (input_layout.positions, intermediate.positions, stage1_length, stage2_length),
    )


def pairwise_distances(layout: WaveguideLayout, z=None) -> np.ndarray:
    """Symmetric matrix of Euclidean core separations (um) at a cross-section.

    An array of z gives the stack of matrices, shape z.shape + (N, N).
    """
    pos = layout.positions_at(z)
    x, y = pos[..., 0], pos[..., 1]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return np.sqrt(dx * dx + dy * dy)

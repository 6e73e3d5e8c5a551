"""Evanescent coupling: geometric cross-sections to Hermitian coupling matrices.

The coupling rate between two cores separated by r um follows the exponential
law C(r) = c0 exp(-kappa (r - r0)) in 1/mm; diagonal entries carry the
propagation constant beta (1/mm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import WaveguideLayout, pairwise_distances


@dataclass(frozen=True)
class CouplingModel:
    """Exponential-decay coupling law plus propagation constant.

    The defaults form an illustrative profile (unit rate at 10 um separation,
    halving every ln(2)/0.5 ~ 1.4 um, zero beta), not a calibrated fit to any
    particular device; override per run via configuration.
    """

    c0_per_mm: float = 1.0
    kappa_per_um: float = 0.5
    r0_um: float = 10.0
    beta_per_mm: float = 0.0

    def __post_init__(self):
        if self.c0_per_mm < 0:
            raise ValueError("c0_per_mm must be nonnegative")
        if self.kappa_per_um <= 0:
            raise ValueError("kappa_per_um must be positive")
        if self.r0_um <= 0:
            raise ValueError("r0_um must be positive")


def coupling_constant(r, model: CouplingModel):
    """Coupling rate (1/mm) at separation r (um); strictly decreasing in r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("core separation must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        c = model.c0_per_mm * np.exp(-model.kappa_per_um * (r - model.r0_um))
    if not np.all(np.isfinite(c)):
        raise ValueError(
            f"coupling law c0 exp(-kappa (r - r0)) overflows at r = "
            f"{np.min(r[~np.isfinite(c)])} um (c0 = {model.c0_per_mm} /mm, "
            f"kappa = {model.kappa_per_um} /um, r0 = {model.r0_um} um)"
        )
    return c


def build_coupling_matrix(
    layout: WaveguideLayout,
    model: CouplingModel,
    z=None,
    neighbor_cutoff: Optional[float] = None,
) -> np.ndarray:
    """N x N symmetric coupling matrix at a layout cross-section.

    Off-diagonal entries apply the exponential law to the pairwise distances
    (zeroed beyond ``neighbor_cutoff`` um when given); the diagonal is the
    model's uniform beta. An array of z gives the stack of matrices, shape
    z.shape + (N, N).
    """
    r = pairwise_distances(layout, z)
    diagonal = np.eye(r.shape[-1], dtype=bool)
    c = coupling_constant(np.where(diagonal, model.r0_um, r), model)
    if neighbor_cutoff is not None:
        c = np.where(r > neighbor_cutoff, 0.0, c)
    return np.where(diagonal, model.beta_per_mm, c)

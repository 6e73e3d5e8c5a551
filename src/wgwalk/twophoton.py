"""Two-photon coincidence statistics, HOM delay scans, and overlap fidelity.

Two photons enter distinct input ports i and j and are detected in output
ports (k, l). Correlation matrices are stored as full N x N symmetric arrays
with the bosonic 1/(1 + delta_{k,l}) weight baked into the entries, so for a
unitary propagator the upper triangle (k <= l) sums to exactly 1: each entry
is the probability of detecting that unordered output pair.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def _validated_inputs(u: np.ndarray, i: int, j: int) -> Tuple[int, int]:
    """Check the input pair and canonicalize its order.

    All correlation formulas are symmetric in (i, j); evaluating them on the
    sorted pair makes the exchange symmetry hold bit for bit.
    """
    n = u.shape[0]
    for port in (i, j):
        if not 0 <= port < n:
            raise IndexError(f"input port {port} out of range for {n} ports")
    if i == j:
        raise ValueError(
            "input ports must differ: two photons in one guide are not supported"
        )
    return min(i, j), max(i, j)


def gamma_indistinguishable(propagator, i: int, j: int) -> np.ndarray:
    """Coincidences for temporally indistinguishable photons in inputs i, j.

    The pair amplitudes interfere: entry (k, l) is
    |U[k,i] U[l,j] + U[k,j] U[l,i]|^2 / (1 + delta_{k,l}).
    """
    u = np.asarray(propagator)
    i, j = _validated_inputs(u, i, j)
    pair = np.outer(u[:, i], u[:, j])
    amplitudes = pair + pair.T
    return np.abs(amplitudes) ** 2 / (1.0 + np.eye(u.shape[0]))


def gamma_distinguishable(propagator, i: int, j: int) -> np.ndarray:
    """Coincidences for temporally distinguishable photons (independent walks).

    Each photon walks on its own; entry (k, l) is the Bernoulli-trial sum
    (|U[k,i] U[l,j]|^2 + |U[k,j] U[l,i]|^2) / (1 + delta_{k,l}).
    """
    u = np.asarray(propagator)
    i, j = _validated_inputs(u, i, j)
    p_i = np.abs(u[:, i]) ** 2
    p_j = np.abs(u[:, j]) ** 2
    return (np.outer(p_i, p_j) + np.outer(p_j, p_i)) / (1.0 + np.eye(u.shape[0]))


def _overlap(delays, coherence_sigma: float) -> np.ndarray:
    """Gaussian mode overlap exp(-dt^2 / (2 sigma^2)) at each delay dt."""
    # written so that a NaN sigma fails too
    if not coherence_sigma > 0:
        raise ValueError("coherence_sigma must be positive")
    # delay / sigma first, so that a tiny sigma overflows to a zero overlap
    # instead of squaring to zero and making the zero-delay row 0/0
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * (delays / coherence_sigma) ** 2)


def hom_scan(
    propagator,
    i: int,
    j: int,
    delays: Sequence[float],
    coherence_sigma: float,
) -> np.ndarray:
    """Coincidence scans of every unordered output pair against input delay.

    ``delays`` and ``coherence_sigma`` share the same (arbitrary) time units.
    Column p of the (D, P) result is the scan of the p-th output pair k <= l
    in ``np.triu_indices(N)`` order, P = N (N + 1) / 2; entry [d, p] is its
    coincidence probability at delay ``delays[d]``, the form that
    :func:`visibility` takes. Partial distinguishability enters through a
    single Gaussian mode overlap gamma(dt) = exp(-dt^2 / (2 sigma^2)); each
    delay point is the convex combination gamma * Gamma_indistinguishable +
    (1 - gamma) * Gamma_distinguishable, so the scan interpolates between
    full two-photon interference at zero delay and independent walkers far
    away. Only the P pairs are formed, never the (D, N, N) cube.
    """
    overlap = _overlap(delays, coherence_sigma)
    gi = gamma_indistinguishable(propagator, i, j)
    gd = gamma_distinguishable(propagator, i, j)
    ks, ls = np.triu_indices(gi.shape[0])
    scan = overlap[:, None] * (gi - gd)[ks, ls]
    scan += gd[ks, ls]
    return scan


def visibility(delays, counts, coherence_sigma: float, mode: str = "extrema") -> np.ndarray:
    """Interference visibility of P output pairs.

    ``counts`` has shape (T, P): column p is the coincidence scan of one
    output pair over the T ``delays``, in the units of ``coherence_sigma``.
    Returns a (P,) float array with NaN where the visibility is undefined.

    ``mode="extrema"`` returns the unsigned (C_max - C_min) / C_max of the raw
    scan. ``mode="fit"`` fits baseline - depth * exp(-dt^2 / (2 sigma^2)) at
    the fixed width sigma = ``coherence_sigma`` and returns the signed
    depth / baseline: on a :func:`hom_scan` scan that is
    (Gamma_d - Gamma_i) / Gamma_d, negative on a coincidence peak.

    A visibility is undefined for a pair without coincidences, and in fit
    mode also where the fitted baseline is not positive. Fit mode raises
    ValueError for a ``coherence_sigma`` that is not positive and for delays
    on which the overlap takes fewer than two distinct values, or values too
    close together to fit (see ``_fit_visibility``).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or np.shape(delays) != counts.shape[:1]:
        raise ValueError(f"counts of shape {counts.shape} do not match {np.size(delays)} delays")
    if counts.shape[0] == 0:
        raise ValueError("empty delay scan")
    if mode == "extrema":
        c_max = np.max(counts, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(c_max > 0.0, (c_max - np.min(counts, axis=0)) / c_max, np.nan)
    if mode == "fit":
        return _fit_visibility(delays, counts, coherence_sigma)
    raise ValueError(f"unknown visibility mode {mode!r}")


# The fit's error grows like the float epsilon times the condition number of
# its design [1, -overlap]: below this bound it stays below about 1e-10.
_FIT_MAX_CONDITION = 1e6


def _fit_visibility(delays: np.ndarray, counts: np.ndarray, coherence_sigma: float) -> np.ndarray:
    """Fitted depth / baseline of every column of ``counts`` (T, P), NaN where undefined.

    At a fixed width the dip is linear in (baseline, depth), and its (T, 2)
    design matrix [1, -overlap] is shared by every pair, so one pseudo-inverse
    fits all P columns at once. A flat column gives 0.0, or NaN without
    coincidences. Two parameters need the overlap to take two distinct values
    on the delays, far enough apart that the design's condition number stays
    within ``_FIT_MAX_CONDITION``; anything else raises ValueError.
    """
    overlap = _overlap(delays, coherence_sigma)
    design = np.stack([np.ones_like(overlap), -overlap], axis=1)
    singular = np.linalg.svd(design, compute_uv=False)
    condition = singular[0] / singular[1] if singular.size == 2 and singular[1] > 0 else np.inf
    if condition > _FIT_MAX_CONDITION:
        raise ValueError(
            f"fit-mode visibility on the {overlap.size} delays from {np.min(delays):g} to"
            f" {np.max(delays):g} at coherence_sigma {coherence_sigma:g}: exp(-delay^2 /"
            " (2 coherence_sigma^2)) takes fewer than two distinct values, or values too"
            f" close together (condition number {condition:.2g} of the fit, above"
            f" {_FIT_MAX_CONDITION:g}), so baseline and depth cannot be told apart"
        )
    baseline, depth = np.linalg.pinv(design) @ counts
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(baseline > 0.0, depth / baseline, np.nan)
    flat = np.ptp(counts, axis=0) == 0.0  # nothing to fit
    return np.where(flat, np.where(counts[0] > 0.0, 0.0, np.nan), values)


def similarity(gamma_a, gamma_b) -> float:
    """Overlap fidelity between two nonnegative coincidence distributions.

    S = (sum sqrt(G G'))^2 / (sum G sum G'); equals 1 exactly when the
    normalized matrices coincide and 0 for disjoint supports. Invariant under
    separate positive rescaling of either argument; takes the arrays that
    ``gamma_indistinguishable``, ``gamma_distinguishable`` and ``hom_scan``
    return, or any nonnegative arrays of one shape.
    """
    a = np.asarray(gamma_a, dtype=float)
    b = np.asarray(gamma_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("distributions must have identical shapes")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("similarity requires finite entries")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("similarity requires nonnegative entries")
    total_a = float(np.sum(a))
    total_b = float(np.sum(b))
    if total_a == 0.0 or total_b == 0.0:
        raise ValueError("similarity undefined for an all-zero distribution")
    return float(np.sum(np.sqrt(a * b)) ** 2 / (total_a * total_b))

"""Two-photon coincidence statistics, HOM delay scans, and overlap fidelity.

Two photons enter distinct input ports i and j and are detected in output
ports (k, l). Correlation matrices are stored as full N x N symmetric arrays
with the bosonic 1/(1 + delta_{k,l}) weight baked into the entries, so for a
unitary propagator the upper triangle (k <= l) sums to exactly 1: each entry
is the probability of detecting that unordered output pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import curve_fit

from .propagation import _as_transfer_matrix

KIND_INDISTINGUISHABLE = "indistinguishable"
KIND_DISTINGUISHABLE = "distinguishable"
KIND_DIFFERENCE = "difference"


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of coincidence probabilities for one input pair."""

    values: np.ndarray
    kind: str
    input_pair: Tuple[int, int]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def upper_triangle_sum(self) -> float:
        return float(np.sum(np.triu(self.values)))


@dataclass(frozen=True)
class HomScan:
    """Coincidence matrices across relative input delays.

    ``delays`` and ``coherence_sigma`` share the same (arbitrary) time units;
    ``coincidences[d, k, l]`` is the coincidence probability of output pair
    (k, l) at delay ``delays[d]``.
    """

    delays: np.ndarray
    coincidences: np.ndarray
    coherence_sigma: float
    input_pair: Tuple[int, int]


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


def gamma_indistinguishable(propagator, i: int, j: int) -> CorrelationMatrix:
    """Coincidences for temporally indistinguishable photons in inputs i, j.

    The pair amplitudes interfere: entry (k, l) is
    |U[k,i] U[l,j] + U[k,j] U[l,i]|^2 / (1 + delta_{k,l}).
    """
    u = _as_transfer_matrix(propagator)
    i, j = _validated_inputs(u, i, j)
    pair = np.outer(u[:, i], u[:, j])
    amplitudes = pair + pair.T
    values = np.abs(amplitudes) ** 2 / (1.0 + np.eye(u.shape[0]))
    return CorrelationMatrix(values, KIND_INDISTINGUISHABLE, (i, j))


def gamma_distinguishable(propagator, i: int, j: int) -> CorrelationMatrix:
    """Coincidences for temporally distinguishable photons (independent walks).

    Each photon walks on its own; entry (k, l) is the Bernoulli-trial sum
    (|U[k,i] U[l,j]|^2 + |U[k,j] U[l,i]|^2) / (1 + delta_{k,l}).
    """
    u = _as_transfer_matrix(propagator)
    i, j = _validated_inputs(u, i, j)
    p_i = np.abs(u[:, i]) ** 2
    p_j = np.abs(u[:, j]) ** 2
    values = (np.outer(p_i, p_j) + np.outer(p_j, p_i)) / (1.0 + np.eye(u.shape[0]))
    return CorrelationMatrix(values, KIND_DISTINGUISHABLE, (i, j))


def quantum_difference(propagator, i: int, j: int) -> CorrelationMatrix:
    """Element-wise gamma_distinguishable - gamma_indistinguishable.

    Positive entries mark output pairs whose coincidences two-photon
    interference suppresses (bunching), negative entries enhanced ones.
    """
    gi = gamma_indistinguishable(propagator, i, j)
    gd = gamma_distinguishable(propagator, i, j)
    return CorrelationMatrix(gd.values - gi.values, KIND_DIFFERENCE, (i, j))


def fock_oracle(propagator, i: int, j: int) -> CorrelationMatrix:
    """Brute-force two-photon evolution in the photon-number basis.

    Expands the two-photon input over all ordered output mode pairs, collects
    amplitudes onto the N(N+1)/2 unordered number-basis states (sqrt(2)
    normalization for doubly occupied modes), and squares. Deliberately
    loop-based and independent of the closed-form correlation expressions.
    """
    u = _as_transfer_matrix(propagator)
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
    return CorrelationMatrix(values, KIND_INDISTINGUISHABLE, (i, j))


def hom_scan(
    propagator,
    i: int,
    j: int,
    delays: Sequence[float],
    coherence_sigma: float,
) -> HomScan:
    """Coincidence matrices as a function of relative input delay.

    Partial distinguishability enters through a single Gaussian mode overlap
    gamma(dt) = exp(-dt^2 / (2 sigma^2)); each delay point is the convex
    combination gamma * Gamma_indistinguishable + (1 - gamma) *
    Gamma_distinguishable, so the scan interpolates between full two-photon
    interference at zero delay and independent walkers far away.
    """
    if coherence_sigma <= 0:
        raise ValueError("coherence_sigma must be positive")
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    gi = gamma_indistinguishable(propagator, i, j).values
    gd = gamma_distinguishable(propagator, i, j).values
    overlap = np.exp(-(delays**2) / (2.0 * coherence_sigma**2))
    coincidences = gd[None, :, :] + overlap[:, None, None] * (gi - gd)[None, :, :]
    return HomScan(delays, coincidences, float(coherence_sigma), (i, j))


def visibility(scan: HomScan, output_pair: Tuple[int, int], mode: str = "extrema") -> float:
    """Interference visibility (C_max - C_min) / C_max for one output pair.

    ``mode="extrema"`` uses the raw scan extrema. ``mode="fit"`` fits a
    three-parameter Gaussian baseline - depth * exp(-dt^2 / (2 width^2)) and
    returns depth / baseline, so a coincidence peak (inverted dip) comes out
    negative.
    """
    k, l = output_pair
    counts = scan.coincidences[:, k, l]
    if counts.size == 0:
        raise ValueError("empty delay scan")
    if mode == "extrema":
        c_max = float(np.max(counts))
        if c_max <= 0.0:
            raise ValueError(
                f"visibility undefined: no coincidences at output pair {output_pair}"
            )
        return (c_max - float(np.min(counts))) / c_max
    if mode == "fit":
        return _fit_visibility(scan.delays, counts, scan.coherence_sigma)
    raise ValueError(f"unknown visibility mode {mode!r}")


def _fit_visibility(delays: np.ndarray, counts: np.ndarray, width_guess: float) -> float:
    if np.ptp(counts) == 0.0:  # flat scan, nothing to fit
        if counts[0] <= 0.0:
            raise ValueError("visibility undefined: no coincidences in scan")
        return 0.0

    def dip(t, baseline, depth, width):
        return baseline - depth * np.exp(-(t**2) / (2.0 * width**2))

    far = float(np.max(np.abs(delays)))
    baseline0 = float(counts[np.argmax(np.abs(delays))]) if far > 0 else float(np.max(counts))
    depth0 = baseline0 - float(counts[np.argmin(np.abs(delays))])
    p0 = [baseline0, depth0, width_guess]
    params, _ = curve_fit(dip, delays, counts, p0=p0, maxfev=10000)
    baseline, depth, _width = params
    if baseline <= 0.0:
        raise ValueError("visibility undefined: fitted baseline is not positive")
    return float(depth / baseline)


def similarity(gamma_a, gamma_b) -> float:
    """Overlap fidelity between two nonnegative coincidence distributions.

    S = (sum sqrt(G G'))^2 / (sum G sum G'); equals 1 exactly when the
    normalized matrices coincide and 0 for disjoint supports. Invariant under
    separate positive rescaling of either argument. Accepts CorrelationMatrix
    objects or bare arrays.
    """
    a = np.asarray(getattr(gamma_a, "values", gamma_a), dtype=float)
    b = np.asarray(getattr(gamma_b, "values", gamma_b), dtype=float)
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

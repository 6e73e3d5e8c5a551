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
    # written so that a NaN sigma fails too
    if not coherence_sigma > 0:
        raise ValueError("coherence_sigma must be positive")
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    gi = gamma_indistinguishable(propagator, i, j)
    gd = gamma_distinguishable(propagator, i, j)
    ks, ls = np.triu_indices(gi.shape[0])
    # delay / sigma first, so that a tiny sigma overflows to a zero overlap
    # instead of squaring to zero and making the zero-delay row 0/0
    with np.errstate(over="ignore"):
        overlap = np.exp(-0.5 * (delays / coherence_sigma) ** 2)
    scan = overlap[:, None] * (gi - gd)[ks, ls]
    scan += gd[ks, ls]
    return scan


def visibility(delays, counts, coherence_sigma: float, mode: str = "extrema") -> np.ndarray:
    """Interference visibility (C_max - C_min) / C_max of P output pairs.

    ``counts`` has shape (T, P): column p is the coincidence scan of one
    output pair over the T ``delays``, in the units of ``coherence_sigma``.
    Returns a (P,) float array with NaN where the visibility is undefined.

    ``mode="extrema"`` uses the raw scan extrema. ``mode="fit"`` fits a
    three-parameter Gaussian baseline - depth * exp(-dt^2 / (2 width^2)),
    starting from width ``coherence_sigma``, and returns depth / baseline, so
    a coincidence peak (inverted dip) comes out negative.

    A visibility is undefined for a pair without coincidences, and in fit
    mode also where the fitted baseline is not positive or the fit did not
    converge. Fit mode raises ValueError for a ``coherence_sigma`` that is not
    positive and for fewer than three distinct |delay| values.
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
        if not coherence_sigma > 0:
            raise ValueError("coherence_sigma must be positive")
        return _fit_visibility(delays, counts, coherence_sigma)
    raise ValueError(f"unknown visibility mode {mode!r}")


# Levenberg-Marquardt settings of the dip fit. Damping starts at
# _FIT_DAMPING and is divided by 10 on an accepted step, multiplied by 10 on a
# rejected one. A pair stops at a relative step below _FIT_XTOL, at an
# accepted step that lowers the cost by less than _FIT_FTOL of it, or at an
# rms residual within _FIT_ROUNDOFF of the largest count; a pair still running
# after _FIT_MAX_ITER steps is undefined. Two delays whose |t| differ by at most
# _FIT_SAME_DELAY of the largest |t| count as one |t|.
_FIT_MAX_ITER = 200
_FIT_XTOL = 1e-13
_FIT_FTOL = 1e-15
_FIT_ROUNDOFF = 4.0 * np.finfo(float).eps
_FIT_DAMPING = 1e-3
_FIT_SAME_DELAY = 1e-9
# Pairs fitted in one batch: its arrays peak at about 9 kB per pair at 81 delays.
_FIT_CHUNK = 256


def _dip_terms(params: np.ndarray, t: np.ndarray, y: np.ndarray):
    """Residuals (P, T), Jacobian (P, T, 3) and cost (P,) of the dip model for P pairs."""
    baseline, depth, width = params[:, 0:1], params[:, 1:2], params[:, 2:3]
    # A wild trial step (say, a width near zero) can overflow; its cost is
    # then not finite and the step is rejected.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = np.exp(-(t**2) / (2.0 * width**2))
        d_width = -depth * g * t**2 / width**3
        residuals = baseline - depth * g - y
        cost = np.sum(residuals**2, axis=1)
    return residuals, np.stack([np.ones_like(g), -g, d_width], axis=-1), cost


def _normal_equations(jacobian: np.ndarray, residuals: np.ndarray):
    """J^T J (P, 3, 3) and J^T r (P, 3) of each of P pairs."""
    return np.einsum("ptj,ptk->pjk", jacobian, jacobian), np.einsum("ptj,pt->pj", jacobian, residuals)


def _fit_visibility(delays: np.ndarray, counts: np.ndarray, width_guess: float) -> np.ndarray:
    """Fitted depth / baseline of every column of ``counts`` (T, P), NaN where undefined.

    The dips are fitted by Levenberg-Marquardt (Marquardt's diagonal
    scaling, analytic Jacobian, one batched 3x3 solve per step), _FIT_CHUNK
    pairs at a time. Each pair's iterates depend on that pair alone, so the
    chunks give the bits of one batch over all P pairs, at a fraction of its
    memory: for the 1,176 pairs of a 48-port chip over 81 delays the fit
    traces 1.4-2.3 MB, where one batch traced 8.6-15.7 MB. A flat column
    gives 0.0, or NaN without coincidences. The model depends on t only
    through t**2, so its three parameters need at least three distinct |t|;
    fewer raise ValueError.
    """
    t = np.asarray(delays, dtype=float)
    magnitudes = np.sort(np.abs(t))
    distinct = 1 + np.count_nonzero(np.diff(magnitudes) > _FIT_SAME_DELAY * magnitudes[-1])
    if distinct < 3:
        raise ValueError(
            f"fit-mode visibility needs at least three distinct |delay| values, got {distinct}"
        )
    y = np.asarray(counts, dtype=float).T
    values = np.empty(y.shape[0])
    for start in range(0, y.shape[0], _FIT_CHUNK):
        stop = start + _FIT_CHUNK
        values[start:stop] = _fit_pairs(t, y[start:stop], width_guess)
    return values


def _fit_pairs(t: np.ndarray, y: np.ndarray, width_guess: float) -> np.ndarray:
    """``_fit_visibility`` of the P pairs whose scans are the rows of ``y`` (P, T), in one batch."""
    n_pairs = y.shape[0]
    near, far = np.argmin(np.abs(t)), np.argmax(np.abs(t))
    baseline0 = y[:, far] if abs(t[far]) > 0 else np.max(y, axis=1)
    params = np.stack(
        [baseline0, baseline0 - y[:, near], np.full(n_pairs, float(width_guess))], axis=1
    )
    flat = np.ptp(y, axis=1) == 0.0  # flat scan, nothing to fit
    floor = y.shape[1] * (_FIT_ROUNDOFF * np.max(np.abs(y), axis=1)) ** 2
    residuals, jacobian, cost = _dip_terms(params, t, y)
    done = flat | (cost <= floor)
    # Only the normal equations at the current parameters are kept, not the
    # (P, T, 3) Jacobian they come from.
    normal, gradient = np.empty((n_pairs, 3, 3)), np.empty((n_pairs, 3))
    (live,) = np.nonzero(~done)
    normal[live], gradient[live] = _normal_equations(jacobian[live], residuals[live])
    del residuals, jacobian
    damping = np.full(n_pairs, _FIT_DAMPING)
    for _ in range(_FIT_MAX_ITER):
        (live,) = np.nonzero(~done)
        if live.size == 0:
            break
        # Solve in units of the Jacobian column norms, so that baseline, depth
        # and width are damped alike whatever the scale of the counts. A zero
        # column (the width at depth 0) gets unit scale and a zero step.
        live_normal = normal[live]
        size = np.sqrt(np.diagonal(live_normal, axis1=1, axis2=2))
        unit = np.where(size > 0.0, size, 1.0)
        scaled = live_normal / (unit[:, :, None] * unit[:, None, :])
        damped = scaled + damping[live, None, None] * np.eye(3)
        step = -np.linalg.solve(damped, (gradient[live] / unit)[..., None])[..., 0] / unit
        trial = params[live] + step
        trial_residuals, trial_jacobian, trial_cost = _dip_terms(trial, t, y[live])
        better = trial_cost < cost[live]  # False for a cost that is not finite
        converged = np.linalg.norm(size * step, axis=1) <= _FIT_XTOL * np.linalg.norm(
            size * params[live], axis=1
        )
        converged |= better & (
            (cost[live] - trial_cost <= _FIT_FTOL * cost[live]) | (trial_cost <= floor[live])
        )
        accepted = live[better]
        params[accepted] = trial[better]
        normal[accepted], gradient[accepted] = _normal_equations(
            trial_jacobian[better], trial_residuals[better]
        )
        cost[accepted] = trial_cost[better]
        damping[live] = np.where(better, damping[live] / 10.0, damping[live] * 10.0)
        done[live] = converged
    baseline, depth = params[:, 0], params[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(done & (baseline > 0.0), depth / baseline, np.nan)
    return np.where(flat, np.where(y[:, 0] > 0.0, 0.0, np.nan), values)


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

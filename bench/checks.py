"""Output checker: physics invariants and the benchmark's own references.

Nothing here imports wgwalk. Geometry, the coupling law, the z-ordered fan-in
product and the Jones chip are re-derived from the config and README, so a
change to the program's integrator or file layout is judged against an
independent reference, never against byte hashes of earlier outputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional

import numpy as np
from scipy.linalg import expm

STATIC_U_TOL = 1e-9  # |U - expm(i z C)| for chips without fan-in
FANIN_U_TOL = 1e-4  # |U - U_ref| for fan-in chips: midpoint at the configured steps is ~1e-5 or better
REF_TOL = 1e-9  # Richardson error estimate of the finer Magnus4 product at which U_ref counts as converged
EXACT_TOL = 1e-9  # recomputations of closed forms from the program's own emitted numbers
FIT_TOL = 1e-8  # fit-mode visibility against the exact dip depth / baseline

STATES = ("H", "V", "D", "A", "L", "R")
_S2 = 1 / math.sqrt(2)
JONES = np.array([[1, 0], [0, 1], [_S2, _S2], [_S2, -_S2], [_S2, 1j * _S2], [_S2, -1j * _S2]])
STOKES = np.array(
    [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0], [1, 0, 0, -1], [1, 0, 0, 1]], float
)


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got, want, tol: float) -> float:
    got, want = np.asarray(got), np.asarray(want)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    _require(err <= tol, f"{name}: deviation {err:.3e} > {tol:.0e}")
    return err


def _reject_constant(token):
    raise CheckFailed(f"non-standard JSON constant {token}")


def read_json(path: Path):
    _require(path.exists(), f"missing {path.name}")
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def read_csv(path: Path, header: bool = False):
    _require(path.exists(), f"missing {path.name}")
    lines = [l for l in path.read_text().splitlines() if l.strip() and not l.startswith("#")]
    columns = lines.pop(0).split(",") if header else None
    data = np.array([[float(x) for x in l.split(",")] for l in lines])
    _require(np.all(np.isfinite(data)), f"{path.name}: non-finite value")
    return (columns, data) if header else data


# --- independent physics ---------------------------------------------------


def cross_section(spec: dict) -> np.ndarray:
    kind = spec["kind"]
    n = spec["count"]
    if kind == "linear":
        return np.column_stack([spec["pitch_um"] * np.arange(n), np.zeros(n)])
    if kind == "ellipse":
        t = spec.get("angle_offset_rad", 0.0) + 2 * np.pi * np.arange(n) / n
        return np.column_stack([spec["semi_major_um"] * np.cos(t), spec["semi_minor_um"] * np.sin(t)])
    raise ValueError(f"unsupported layout kind {kind!r}")


def _stages(layout: dict):
    """Fan-in as (start, end, length) raised-sine stages."""
    p = [cross_section(layout[k]) for k in ("input", "intermediate", "final")]
    return [(p[0], p[1], layout["stage1_mm"]), (p[1], p[2], layout["stage2_mm"])]


def _bend(p0, p1, length, z):
    u = np.asarray(z, float) / length
    s = u - np.sin(2 * np.pi * u) / (2 * np.pi)
    return p0 + (p1 - p0) * s[..., None, None]


def positions_at(layout: dict, z) -> np.ndarray:
    """Cross-sections (len(z), N, 2) along a fan-in profile."""
    z = np.asarray(z, float)
    (a0, a1, l1), (b0, b1, l2) = _stages(layout)
    first = _bend(a0, a1, l1, np.minimum(z, l1))
    second = _bend(b0, b1, l2, np.clip(z - l1, 0.0, l2))
    return np.where((z <= l1)[:, None, None], first, second)


def final_positions(layout: dict) -> np.ndarray:
    return cross_section(layout["final"] if layout["kind"] == "fanin" else layout)


def distances(pos: np.ndarray) -> np.ndarray:
    x, y = pos[..., 0], pos[..., 1]
    return np.hypot(x[..., :, None] - x[..., None, :], y[..., :, None] - y[..., None, :])


def coupling(pos: np.ndarray, law: Optional[dict], cutoff=None) -> np.ndarray:
    law = dict({"c0_per_mm": 1.0, "kappa_per_um": 0.5, "r0_um": 10.0, "beta_per_mm": 0.0}, **(law or {}))
    r = distances(pos)
    eye = np.eye(pos.shape[-2], dtype=bool)
    safe = np.where(eye, law["r0_um"], r)
    c = law["c0_per_mm"] * np.exp(-law["kappa_per_um"] * (safe - law["r0_um"]))
    if cutoff is not None:
        c = np.where(r > cutoff, 0.0, c)
    return np.where(eye, law["beta_per_mm"], c)


def _magnus4(p0, p1, length, steps, law, cutoff) -> np.ndarray:
    """Fourth-order Magnus product over one raised-sine stage (two Gauss points)."""
    h = length / steps
    mid = (np.arange(steps) + 0.5) * h
    g = h * math.sqrt(3) / 6
    c1 = coupling(_bend(p0, p1, length, mid - g), law, cutoff)
    c2 = coupling(_bend(p0, p1, length, mid + g), law, cutoff)
    k = 0.5 * h * (c1 + c2) - 1j * (math.sqrt(3) / 12) * h * h * (c1 @ c2 - c2 @ c1)
    w, v = np.linalg.eigh(k)
    factors = (v * np.exp(1j * w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    while len(factors) > 1:  # z-ordered product, later factors on the left, pairwise
        if len(factors) % 2:
            factors = np.concatenate([factors, np.eye(factors.shape[-1])[None]])
        factors = factors[1::2] @ factors[0::2]
    return factors[0]


def fanin_reference(cfg: dict, max_steps: int = 1 << 16):
    """Converged fan-in product: Richardson-extrapolated Magnus4, doubling steps.

    Returns (U_ref, error estimate, steps used for the finer product).
    """
    law, cutoff = cfg.get("coupling"), cfg.get("neighbor_cutoff_um")
    stages = _stages(cfg["layout"])
    total = sum(length for _, _, length in stages)

    def product(steps):
        u = np.eye(stages[0][0].shape[0], dtype=complex)
        for p0, p1, length in stages:
            u = _magnus4(p0, p1, length, max(1, round(steps * length / total)), law, cutoff) @ u
        return u

    steps = max(1, cfg.get("steps", 64) // 2)
    coarse = product(steps)
    while True:
        fine = product(2 * steps)
        estimate = float(np.max(np.abs(fine - coarse))) / 15
        if estimate <= REF_TOL or 2 * steps >= max_steps:
            return (16 * fine - coarse) / 15, estimate, 2 * steps
        steps, coarse = 2 * steps, fine


def chip_reference(cfg: dict) -> dict:
    """Reference total transfer matrix of a chip config (fan-in, then the static tail)."""
    layout = cfg["layout"]
    c = coupling(final_positions(layout), cfg.get("coupling"), cfg.get("neighbor_cutoff_um"))
    tail = expm(1j * cfg.get("z_mm", 1.0) * c)
    if layout["kind"] != "fanin":
        return {"u": tail, "tol": STATIC_U_TOL, "estimate": 0.0}
    fan, estimate, steps = fanin_reference(cfg)
    if estimate > FANIN_U_TOL / 100:
        raise CheckFailed(f"reference not converged at {steps} steps (estimate {estimate:.1e})")
    return {"u": tail @ fan, "tol": FANIN_U_TOL, "estimate": estimate, "steps": steps}


def jones_chip(cfg: dict) -> np.ndarray:
    """2N x 2N Jones transfer of the README's vectorial chip model."""
    pol = cfg["polarization"]
    pos = final_positions(cfg["layout"])
    n = pos.shape[0]
    cutoff = cfg.get("neighbor_cutoff_um")
    law = cfg.get("coupling")
    g = np.zeros((2 * n, 2 * n))
    g[0::2, 0::2] = coupling(pos, pol.get("coupling_h") or law, cutoff)
    g[1::2, 1::2] = coupling(pos, pol.get("coupling_v") or law, cutoff)
    idx = np.arange(n)
    delta = np.asarray(pol.get("birefringence_per_mm") or np.zeros(n))
    g[2 * idx, 2 * idx] += delta / 2
    g[2 * idx + 1, 2 * idx + 1] -= delta / 2
    mix = np.asarray(pol.get("pol_rotation_per_mm") or np.zeros(n))
    g[2 * idx, 2 * idx + 1] = mix
    g[2 * idx + 1, 2 * idx] = mix
    att = np.empty(2 * n)
    att[0::2] = pol.get("loss_h") or np.ones(n)
    att[1::2] = pol.get("loss_v") or np.ones(n)
    return att[:, None] * expm(1j * cfg.get("z_mm", 1.0) * g)


def tomography_record(jones: np.ndarray) -> np.ndarray:
    """Noiseless intensities [input_port, input_state, output_port, analyzer]."""
    n = jones.shape[0] // 2
    blocks = jones.reshape(n, 2, n, 2)  # out port, out pol, in port, in pol
    fields = np.einsum("kpjq,sq->jskp", blocks, JONES)
    return np.abs(np.einsum("jskp,ap->jska", fields, JONES.conj())) ** 2


def mueller_fit(record: np.ndarray):
    """Least-squares Mueller array [out, in, 4, 4] and rms residuals."""
    i = record  # [in, state, out, analyzer]
    stokes = np.stack([i[..., 0] + i[..., 1], i[..., 0] - i[..., 1], i[..., 2] - i[..., 3], i[..., 5] - i[..., 4]], -1)
    stokes = np.transpose(stokes, (2, 0, 1, 3))  # out, in, state, 4
    m = np.einsum("ks,oisj->oijk", np.linalg.pinv(STOKES), stokes)
    misfit = np.einsum("sk,oijk->oisj", STOKES, m) - stokes
    return m, np.sqrt(np.mean(misfit**2, axis=(2, 3)))


def gammas(u: np.ndarray, i: int, j: int):
    pair = np.outer(u[:, i], u[:, j])
    weight = 1.0 + np.eye(u.shape[0])
    gi = np.abs(pair + pair.T) ** 2 / weight
    pi, pj = np.abs(u[:, i]) ** 2, np.abs(u[:, j]) ** 2
    gd = (np.outer(pi, pj) + np.outer(pj, pi)) / weight
    return gi, gd


# --- per-command checks ----------------------------------------------------


class Checker:
    """Checks each command's artifacts; keeps the chip references it computed."""

    def __init__(self, workload):
        self.workload = workload
        self.refs: Dict[str, dict] = {}
        self.u_err: Dict[str, float] = {}
        self._records = {}  # the last parsed tomography record, keyed by path and mtime

    def reference(self, chip: str) -> dict:
        if chip not in self.refs:
            try:
                self.refs[chip] = chip_reference(self.workload.config(chip))
            except CheckFailed as exc:  # judged, and reported, by the chip's propagate check
                self.refs[chip] = {"error": str(exc), "estimate": math.inf}
        return self.refs[chip]

    def check(self, command, exit_code: int) -> Optional[str]:
        """None when the command passed, else the reason it failed."""
        if command.action == "propagate" and exit_code == 3 and command in self.workload.probes:
            return None  # the program refusing an unresolvable chip is a correct outcome
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            getattr(self, "_" + command.action)(command)
        except CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None

    def _cfg(self, command):
        return self.workload.config(command.chip), self.workload.out_dirs[command.chip]

    def _layout(self, command):
        cfg, out = self._cfg(command)
        doc = read_json(out / "layout.json")
        final = final_positions(cfg["layout"])
        _close("layout positions", doc["positions_um"], final, EXACT_TOL)
        _close("distances.csv", read_csv(out / "distances.csv"), distances(final), EXACT_TOL)
        if cfg["layout"]["kind"] == "fanin":
            z = np.asarray(doc["profile"]["z_mm"])
            _require(len(z) == cfg.get("steps", 64) + 1, f"profile has {len(z)} samples")
            _close("profile positions", doc["profile"]["positions_um"], positions_at(cfg["layout"], z), EXACT_TOL)

    def _unitary(self, command) -> np.ndarray:
        doc = read_json(self.workload.out_dirs[command.chip] / "unitary.json")
        pairs = np.asarray(doc["matrix_re_im"], float)
        return pairs[..., 0] + 1j * pairs[..., 1]

    def _propagate(self, command):
        cfg, out = self._cfg(command)
        u = self._unitary(command)
        n = final_positions(cfg["layout"]).shape[0]
        _require(u.shape == (n, n), f"unitary shape {u.shape}")
        _close("unitarity", u.conj().T @ u, np.eye(n), EXACT_TOL)
        ref = self.reference(command.chip)
        _require("error" not in ref, ref.get("error", ""))
        u_err = _close("U vs reference", u, ref["u"], ref["tol"])
        trace = read_csv(out / "trace.csv", header=True)[1]
        _require(trace.shape == (cfg.get("trace_points", 200), n + 1), f"trace shape {trace.shape}")
        _close("trace row sums", trace[:, 1:].sum(axis=1), np.ones(len(trace)), EXACT_TOL)
        port = cfg.get("input_ports", [1])[0] - 1
        _close("trace end vs |U|^2", trace[-1, 1:], np.abs(u[:, port]) ** 2, EXACT_TOL)
        self.u_err[command.chip] = u_err

    def _correlations(self, command):
        cfg, out = self._cfg(command)
        i, j = (p - 1 for p in cfg["input_ports"][:2])
        gi, gd = gammas(self._unitary(command), i, j)
        doc = read_json(out / "correlations.json")
        for name, want in (("indistinguishable", gi), ("distinguishable", gd), ("difference", gd - gi)):
            _close(f"gamma_{name}.csv", read_csv(out / f"gamma_{name}.csv"), want, EXACT_TOL)
            _close(f"correlations.json {name}", doc[name], want, EXACT_TOL)
        _close("upper-triangle sum", np.sum(np.triu(gi)), 1.0, EXACT_TOL)

    def _hom(self, command):
        cfg, out = self._cfg(command)
        gi = read_csv(out / "gamma_indistinguishable.csv")
        gd = read_csv(out / "gamma_distinguishable.csv")
        columns, scan = read_csv(out / "hom_scan.csv", header=True)
        pairs = [tuple(int(p) - 1 for p in c.split("_")[1:]) for c in columns[1:]]
        k, l = np.array(pairs).T
        hom = cfg["hom"]
        overlap = np.exp(-scan[:, 0] ** 2 / (2 * hom["coherence_sigma"] ** 2))
        _close("hom scan", scan[:, 1:], gd[k, l] + overlap[:, None] * (gi - gd)[k, l], EXACT_TOL)
        zero = int(np.argmin(np.abs(scan[:, 0])))
        _require(abs(scan[zero, 0]) < 1e-12, "scan has no zero-delay row")
        _close("zero-delay row vs gamma_indistinguishable", scan[zero, 1:], gi[k, l], EXACT_TOL)
        vis = read_json(out / "visibility.json")["pairs"]
        _require(len(vis) == len(pairs), f"{len(vis)} visibilities for {len(pairs)} pairs")
        got = np.array([np.nan if v["visibility"] is None else v["visibility"] for v in vis])
        c = scan[:, 1:]
        if hom.get("visibility_mode", "extrema") == "fit":
            # The scan is exactly baseline - depth * gaussian with baseline gd, depth gd - gi.
            base, want, tol = gd[k, l], (gd - gi)[k, l], FIT_TOL
        else:
            base, want, tol = c.max(0), c.max(0) - c.min(0), EXACT_TOL
        want = np.divide(want, base, out=np.full_like(base, np.nan), where=base > 0)
        _require(np.array_equal(np.isnan(got), np.isnan(want)), "visibility defined on the wrong pairs")
        _close("visibilities", np.nan_to_num(got), np.nan_to_num(want), tol)

    def _record(self, out: Path) -> np.ndarray:
        path = out / "tomography_record.csv"
        stat = path.stat()
        key = (path, stat.st_mtime_ns, stat.st_size)
        if key not in self._records:
            self._records = {key: self._parse_record(path)}
        return self._records[key]

    def _parse_record(self, path: Path) -> np.ndarray:
        rows = [l.split(",") for l in path.read_text().splitlines()
                if l.strip() and not l.startswith("#") and not l.startswith("input_port")]
        n = max(int(r[0]) for r in rows)
        data = np.full((n, 6, n, 6), np.nan)
        for p, s, q, a, value in rows:
            data[int(p) - 1, STATES.index(s), int(q) - 1, STATES.index(a)] = float(value)
        _require(len(rows) == data.size and np.all(np.isfinite(data)), "incomplete tomography record")
        return data

    def _simulate(self, command):
        cfg, out = self._cfg(command)
        got = self._record(out)
        exact = tomography_record(jones_chip(cfg))
        _require(got.shape == exact.shape, f"record shape {got.shape}")
        _require(np.all(got >= 0), "negative intensity")
        sigma = cfg["polarization"].get("photometric_noise", 0.0)
        scale = float(exact.max())
        if sigma == 0:
            _close("record vs Jones model", got / scale, exact / scale, EXACT_TOL)
            return
        # Multiplicative Gaussian noise: the ratio to the exact record has spread sigma.
        live = exact > 1e-9 * scale
        ratio = got[live] / exact[live] - 1.0
        _require(np.max(np.abs(ratio)) <= 8 * sigma, f"noise outlier {np.max(np.abs(ratio)):.3e}")
        _require(0.8 * sigma <= np.std(ratio) <= 1.2 * sigma, f"noise std {np.std(ratio):.3e} vs {sigma}")
        _close("noise on dark entries", got[~live] / scale, 0.0 * got[~live], 1e-8)

    def _reconstruct(self, command):
        cfg, out = self._cfg(command)
        record = self._record(out)
        m, residuals = mueller_fit(record)
        doc = read_json(out / "mueller.json")
        scale = float(np.max(np.abs(m)))
        _close("mueller matrices", np.asarray(doc["matrices"]) / scale, m / scale, EXACT_TOL)
        _close("mueller residuals", np.asarray(doc["residuals"]) / scale, residuals / scale, EXACT_TOL)
        if cfg["polarization"].get("photometric_noise", 0.0) == 0:
            _close("residuals of a noiseless record", residuals / scale, 0 * residuals, 1e-8)

    def _report(self, command):
        _, out = self._cfg(command)
        record = self._record(out)
        m, _ = mueller_fit(record)
        scale = float(np.max(np.abs(m)))
        cells = [cell for row in read_json(out / "ellipsoids.json")["ellipsoids"] for cell in row]
        n = record.shape[0]
        _require(len(cells) == n * n, f"{len(cells)} ellipsoids for {n} ports")
        o, i = np.array([(c["output_port"] - 1, c["input_port"] - 1) for c in cells]).T
        mm = m[o, i]
        axes = np.linalg.svd(mm[:, 1:, 1:], compute_uv=False)
        _close("ellipsoid semi-axes", [c["semi_axes"] for c in cells], axes, EXACT_TOL * scale)
        _close("ellipsoid centers", [c["center"] for c in cells], mm[:, 1:, 0], EXACT_TOL * scale)
        power = np.mean(mm[:, 0, :] @ STOKES.T, axis=1)
        _close("average power", [c["average_power"] for c in cells], power, EXACT_TOL * scale)
        totals = record[:, :, :, :2].sum(axis=(2, 3))
        pdl = read_json(out / "pdl.json")["excess_v_loss_by_input_port"]
        _close("pdl", pdl, 1.0 - totals[:, 1] / totals[:, 0], EXACT_TOL)

    def _fidelity(self, command):
        a, b = (read_csv(Path(p)) for p in command.argv[1:3])
        s = read_json(self.workload.out_dirs[command.chip] / "fidelity.json")["similarity"]
        _require(0.0 <= s <= 1.0, f"S = {s} outside [0, 1]")
        _close("S", s, np.sum(np.sqrt(a * b)) ** 2 / (a.sum() * b.sum()), EXACT_TOL)

"""Run-configuration parsing.

A run is described by a single JSON file with explicit units in the key
names; ports are 1-based in configuration (and in every emitted artifact)
and converted to the library's 0-based indices here. Invalid content raises
``ConfigError`` naming the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .coupling import CouplingModel
from .geometry import (
    WaveguideLayout,
    elliptical_layout,
    fan_in_layout,
    linear_layout,
    permuted_layout,
)
from .io import config_digest


class ConfigError(ValueError):
    """Invalid or missing run-configuration content."""


_MISSING = object()


def _section(cfg: dict, key: str, ctx: str, required: bool = True) -> Optional[dict]:
    value = cfg.get(key)
    if value is None:
        if required:
            raise ConfigError(f"missing config section '{_join(ctx, key)}'")
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"'{_join(ctx, key)}' must be a JSON object")
    return value


def _join(ctx: str, key: str) -> str:
    return f"{ctx}.{key}" if ctx else key


def _number(
    cfg: dict,
    key: str,
    ctx: str,
    default=_MISSING,
    minimum: Optional[float] = None,
    positive: bool = False,
    integer: bool = False,
):
    value = cfg.get(key, default)
    if value is _MISSING:
        raise ConfigError(f"missing config key '{_join(ctx, key)}'")
    if value is None and default is None:
        return None
    if not _finite_number(value):
        raise ConfigError(f"'{_join(ctx, key)}' must be a finite number")
    if integer and int(value) != value:
        raise ConfigError(f"'{_join(ctx, key)}' must be an integer")
    if positive and value <= 0:
        raise ConfigError(f"'{_join(ctx, key)}' must be positive")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{_join(ctx, key)}' must be at least {minimum}")
    return int(value) if integer else float(value)


def _finite_number(value) -> bool:
    # JSON integers are exact, so only floats can be NaN or infinite
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _vector(cfg: dict, key: str, ctx: str, length: int) -> Optional[np.ndarray]:
    value = cfg.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(map(_finite_number, value)):
        raise ConfigError(f"'{_join(ctx, key)}' must be a list of finite numbers")
    if len(value) != length:
        raise ConfigError(f"'{_join(ctx, key)}' must have length {length}")
    return np.asarray(value, dtype=float)


def layout_from_dict(spec: dict, ctx: str = "layout") -> WaveguideLayout:
    """Build a layout from its JSON description.

    Kinds: ``linear`` (count, pitch_um), ``ellipse`` (count, semi_major_um,
    semi_minor_um, optional angle_offset_rad), and ``fanin`` (nested input /
    intermediate / final layouts plus stage1_mm, stage2_mm). An optional
    1-based ``index_order`` relabels the cores of any kind.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"'{ctx}' must be a JSON object")
    kind = spec.get("kind")
    try:
        if kind == "linear":
            layout = linear_layout(
                _number(spec, "count", ctx, integer=True, positive=True),
                _number(spec, "pitch_um", ctx, positive=True),
            )
        elif kind == "ellipse":
            layout = elliptical_layout(
                _number(spec, "count", ctx, integer=True, positive=True),
                _number(spec, "semi_major_um", ctx, positive=True),
                _number(spec, "semi_minor_um", ctx, positive=True),
                _number(spec, "angle_offset_rad", ctx, default=0.0),
            )
        elif kind == "fanin":
            layout = fan_in_layout(
                layout_from_dict(_section(spec, "input", ctx), _join(ctx, "input")),
                layout_from_dict(
                    _section(spec, "intermediate", ctx), _join(ctx, "intermediate")
                ),
                layout_from_dict(_section(spec, "final", ctx), _join(ctx, "final")),
                _number(spec, "stage1_mm", ctx, positive=True),
                _number(spec, "stage2_mm", ctx, positive=True),
            )
        else:
            raise ConfigError(
                f"'{_join(ctx, 'kind')}' must be 'linear', 'ellipse', or 'fanin'"
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid '{ctx}': {exc}") from exc

    order = spec.get("index_order")
    if order is not None:
        if (
            not isinstance(order, list)
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in order)
            or sorted(order) != list(range(1, layout.n + 1))
        ):
            raise ConfigError(
                f"'{_join(ctx, 'index_order')}' must be a permutation of 1..{layout.n}"
            )
        layout = permuted_layout(layout, [v - 1 for v in order])
    return layout


def coupling_from_dict(spec: Optional[dict], ctx: str = "coupling") -> CouplingModel:
    """CouplingModel from the keys present in ``spec``; an absent key keeps its default."""
    rules = {
        "c0_per_mm": {"minimum": 0.0},
        "kappa_per_um": {"positive": True},
        "r0_um": {"positive": True},
        "beta_per_mm": {},
    }
    present = {key: rule for key, rule in rules.items() if key in (spec or {})}
    return CouplingModel(**{key: _number(spec, key, ctx, **rule) for key, rule in present.items()})


@dataclass
class HomSettings:
    delays: np.ndarray
    coherence_sigma: float
    visibility_mode: str


@dataclass
class PolarizationSettings:
    model_h: CouplingModel
    model_v: CouplingModel
    birefringence: Optional[np.ndarray]
    pol_rotation: Optional[np.ndarray]
    loss_h: Optional[np.ndarray]
    loss_v: Optional[np.ndarray]
    photometric_noise: float


@dataclass
class RunConfig:
    """Validated run description shared by all CLI commands."""

    layout: WaveguideLayout
    coupling: CouplingModel
    neighbor_cutoff_um: Optional[float]
    z_mm: float
    input_ports: List[int]  # 0-based
    steps: int
    trace_points: int
    hom: Optional[HomSettings]
    polarization: Optional[PolarizationSettings]
    seed: int
    out_dir: Path
    digest: str = field(repr=False, default="")


def _parse_hom(spec: Optional[dict]) -> Optional[HomSettings]:
    if spec is None:
        return None
    ctx = "hom"
    points = _number(spec, "points", ctx, integer=True, minimum=1)
    delay_min = _number(spec, "delay_min", ctx)
    delay_max = _number(spec, "delay_max", ctx)
    if delay_max < delay_min:
        raise ConfigError("'hom.delay_max' must be at least 'hom.delay_min'")
    sigma = _number(spec, "coherence_sigma", ctx, positive=True)
    mode = spec.get("visibility_mode", "extrema")
    if mode not in ("extrema", "fit"):
        raise ConfigError("'hom.visibility_mode' must be 'extrema' or 'fit'")
    return HomSettings(np.linspace(delay_min, delay_max, points), sigma, mode)


def _parse_polarization(spec: Optional[dict], n: int, fallback: CouplingModel):
    if spec is None:
        return None
    ctx = "polarization"
    model_h, model_v = (
        coupling_from_dict(_section(spec, key, ctx), _join(ctx, key))
        if spec.get(key) is not None
        else fallback
        for key in ("coupling_h", "coupling_v")
    )
    loss_h = _vector(spec, "loss_h", ctx, n)
    loss_v = _vector(spec, "loss_v", ctx, n)
    for key, loss in (("loss_h", loss_h), ("loss_v", loss_v)):
        if loss is not None and (np.any(loss <= 0) or np.any(loss > 1)):
            raise ConfigError(f"'polarization.{key}' amplitudes must lie in (0, 1]")
    return PolarizationSettings(
        model_h=model_h,
        model_v=model_v,
        birefringence=_vector(spec, "birefringence_per_mm", ctx, n),
        pol_rotation=_vector(spec, "pol_rotation_per_mm", ctx, n),
        loss_h=loss_h,
        loss_v=loss_v,
        photometric_noise=_number(spec, "photometric_noise", ctx, default=0.0, minimum=0.0),
    )


def parse_run_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    layout = layout_from_dict(_section(raw, "layout", ""))
    coupling = coupling_from_dict(_section(raw, "coupling", "", required=False))
    z_mm = _number(raw, "z_mm", "", default=1.0, minimum=0.0)
    neighbor_cutoff = _number(raw, "neighbor_cutoff_um", "", default=None, positive=True)

    ports_raw = raw.get("input_ports", [1])
    if (
        not isinstance(ports_raw, list)
        or not ports_raw
        or not all(isinstance(p, int) and not isinstance(p, bool) for p in ports_raw)
    ):
        raise ConfigError("'input_ports' must be a nonempty list of integers")
    for port in ports_raw:
        if not 1 <= port <= layout.n:
            raise ConfigError(f"'input_ports' entry {port} outside [1, {layout.n}]")

    steps = _number(raw, "steps", "", default=64, integer=True, minimum=1)
    trace_points = _number(raw, "trace_points", "", default=200, integer=True, minimum=1)
    seed = _number(raw, "seed", "", default=0, integer=True, minimum=0)
    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, (str, Path)):
        raise ConfigError("'out_dir' must be a path string")

    return RunConfig(
        layout=layout,
        coupling=coupling,
        neighbor_cutoff_um=neighbor_cutoff,
        z_mm=z_mm,
        input_ports=[p - 1 for p in ports_raw],
        steps=steps,
        trace_points=trace_points,
        hom=_parse_hom(_section(raw, "hom", "", required=False)),
        polarization=_parse_polarization(
            _section(raw, "polarization", "", required=False), layout.n, coupling
        ),
        seed=seed,
        out_dir=Path(out_dir),
        digest=config_digest(raw),
    )


def load_run_config(
    path,
    seed: Optional[int] = None,
    steps: Optional[int] = None,
    noise: Optional[float] = None,
    out: Optional[str] = None,
) -> RunConfig:
    """Read and validate a config file, applying CLI overrides before hashing."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key, value in (("seed", seed), ("steps", steps), ("out_dir", out)):
        if value is not None:
            raw[key] = value
    if noise is not None and isinstance(raw.get("polarization"), dict):
        raw["polarization"]["photometric_noise"] = noise
    return parse_run_config(raw)

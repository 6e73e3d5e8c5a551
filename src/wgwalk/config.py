"""Run-configuration parsing.

A run is described by a single JSON file with explicit units in the key
names; ports are 1-based in configuration (and in every emitted artifact)
and converted to the library's 0-based indices here. Invalid content, and a
key that no parser reads, raises ``ConfigError`` naming the offending key.
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


class _Object:
    """A JSON object of the config and its dotted path. It records every key
    its parser asks for, present or not, so that ``done`` can refuse the rest."""

    def __init__(self, value, path: str = ""):
        if not isinstance(value, dict):
            what = f"'{path}'" if path else "config root"
            raise ConfigError(f"{what} must be a JSON object")
        self.value, self.path, self.asked = value, path, set()

    def name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=None):
        self.asked.add(key)
        return self.value.get(key, default)

    def section(self, key: str, parse, *args, required: bool = False):
        """``parse(section, *args)`` of the object at ``key``, which must use
        every key in it; None for an absent section that is not required."""
        value = self.get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing config section '{self.name(key)}'")
            return None
        spec = _Object(value, self.name(key))
        parsed = parse(spec, *args)
        spec.done()
        return parsed

    def number(self, key: str, default=_MISSING, minimum=None, positive=False, integer=False):
        value = self.get(key, default)
        if value is _MISSING:
            raise ConfigError(f"missing config key '{self.name(key)}'")
        if value is None and default is None:
            return None
        if not _finite_number(value):
            raise ConfigError(f"'{self.name(key)}' must be a finite number")
        if integer and int(value) != value:
            raise ConfigError(f"'{self.name(key)}' must be an integer")
        if positive and value <= 0:
            raise ConfigError(f"'{self.name(key)}' must be positive")
        if minimum is not None and value < minimum:
            raise ConfigError(f"'{self.name(key)}' must be at least {minimum}")
        return int(value) if integer else float(value)

    def vector(self, key: str, length: int) -> Optional[np.ndarray]:
        value = self.get(key)
        if value is None:
            return None
        if not isinstance(value, list) or not all(map(_finite_number, value)):
            raise ConfigError(f"'{self.name(key)}' must be a list of finite numbers")
        if len(value) != length:
            raise ConfigError(f"'{self.name(key)}' must have length {length}")
        return np.asarray(value, dtype=float)

    def done(self) -> dict:
        """The object, once every key in it was asked for; else refuse the
        first key that was not, naming the closest one that was."""
        unknown = [key for key in self.value if key not in self.asked]
        if unknown:
            import difflib  # only a refused config pays for this import

            closest = difflib.get_close_matches(unknown[0], sorted(self.asked), n=1, cutoff=0.0)
            raise ConfigError(
                f"unknown config key '{self.name(unknown[0])}'; "
                f"the closest known key is '{self.name(closest[0])}'"
            )
        return self.value


def _finite_number(value) -> bool:
    # JSON integers are exact, so only floats can be NaN or infinite
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _layout(spec: _Object) -> WaveguideLayout:
    """Build a layout from its JSON description.

    Kinds: ``linear`` (count, pitch_um), ``ellipse`` (count, semi_major_um,
    semi_minor_um, optional angle_offset_rad), and ``fanin`` (nested input /
    intermediate / final layouts plus stage1_mm, stage2_mm). An optional
    1-based ``index_order`` relabels the cores of any kind.
    """
    kind = spec.get("kind")
    try:
        if kind == "linear":
            layout = linear_layout(
                spec.number("count", integer=True, positive=True),
                spec.number("pitch_um", positive=True),
            )
        elif kind == "ellipse":
            layout = elliptical_layout(
                spec.number("count", integer=True, positive=True),
                spec.number("semi_major_um", positive=True),
                spec.number("semi_minor_um", positive=True),
                spec.number("angle_offset_rad", default=0.0),
            )
        elif kind == "fanin":
            stages = ("input", "intermediate", "final")
            layout = fan_in_layout(
                *(spec.section(key, _layout, required=True) for key in stages),
                spec.number("stage1_mm", positive=True),
                spec.number("stage2_mm", positive=True),
            )
        else:
            raise ConfigError(f"'{spec.name('kind')}' must be 'linear', 'ellipse', or 'fanin'")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid '{spec.path}': {exc}") from exc

    order = spec.get("index_order")
    if order is not None:
        if (
            not isinstance(order, list)
            or not all(type(v) is int for v in order)  # bool is not a core index
            or sorted(order) != list(range(1, layout.n + 1))
        ):
            raise ConfigError(
                f"'{spec.name('index_order')}' must be a permutation of 1..{layout.n}"
            )
        layout = permuted_layout(layout, [v - 1 for v in order])
    return layout


def _coupling(spec: _Object) -> CouplingModel:
    """A CouplingModel whose absent keys keep their defaults."""
    rules = {
        "c0_per_mm": {"minimum": 0.0},
        "kappa_per_um": {"positive": True},
        "r0_um": {"positive": True},
        "beta_per_mm": {},
    }
    blank = CouplingModel()
    return CouplingModel(
        **{key: spec.number(key, getattr(blank, key), **rule) for key, rule in rules.items()}
    )


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


def _hom(spec: _Object) -> HomSettings:
    points = spec.number("points", integer=True, minimum=1)
    delay_min = spec.number("delay_min")
    delay_max = spec.number("delay_max")
    if delay_max < delay_min:
        raise ConfigError("'hom.delay_max' must be at least 'hom.delay_min'")
    sigma = spec.number("coherence_sigma", positive=True)
    mode = spec.get("visibility_mode", "extrema")
    if mode not in ("extrema", "fit"):
        raise ConfigError("'hom.visibility_mode' must be 'extrema' or 'fit'")
    return HomSettings(np.linspace(delay_min, delay_max, points), sigma, mode)


def _polarization(spec: _Object, n: int, fallback: CouplingModel) -> PolarizationSettings:
    model_h = spec.section("coupling_h", _coupling) or fallback
    model_v = spec.section("coupling_v", _coupling) or fallback
    losses = {key: spec.vector(key, n) for key in ("loss_h", "loss_v")}
    for key, loss in losses.items():
        if loss is not None and (np.any(loss <= 0) or np.any(loss > 1)):
            raise ConfigError(f"'polarization.{key}' amplitudes must lie in (0, 1]")
    return PolarizationSettings(
        model_h=model_h,
        model_v=model_v,
        birefringence=spec.vector("birefringence_per_mm", n),
        pol_rotation=spec.vector("pol_rotation_per_mm", n),
        **losses,
        photometric_noise=spec.number("photometric_noise", default=0.0, minimum=0.0),
    )


def parse_run_config(raw: dict) -> RunConfig:
    return _run_config(_Object(raw))


def _run_config(root: _Object) -> RunConfig:
    layout = root.section("layout", _layout, required=True)
    coupling = root.section("coupling", _coupling) or CouplingModel()
    z_mm = root.number("z_mm", default=1.0, minimum=0.0)
    neighbor_cutoff = root.number("neighbor_cutoff_um", default=None, positive=True)

    ports = root.get("input_ports", [1])
    if not isinstance(ports, list) or not ports or not all(type(p) is int for p in ports):
        raise ConfigError("'input_ports' must be a nonempty list of integers")
    for port in ports:
        if not 1 <= port <= layout.n:
            raise ConfigError(f"'input_ports' entry {port} outside [1, {layout.n}]")

    steps = root.number("steps", default=64, integer=True, minimum=1)
    trace_points = root.number("trace_points", default=200, integer=True, minimum=1)
    seed = root.number("seed", default=0, integer=True, minimum=0)
    out_dir = root.get("out_dir", "out")
    if not isinstance(out_dir, (str, Path)):
        raise ConfigError("'out_dir' must be a path string")

    return RunConfig(
        layout=layout,
        coupling=coupling,
        neighbor_cutoff_um=neighbor_cutoff,
        z_mm=z_mm,
        input_ports=[p - 1 for p in ports],
        steps=steps,
        trace_points=trace_points,
        hom=root.section("hom", _hom),
        polarization=root.section("polarization", _polarization, layout.n, coupling),
        seed=seed,
        out_dir=Path(out_dir),
        digest=config_digest(root.done()),
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
    root = _Object(raw)
    for key, value in (("seed", seed), ("steps", steps), ("out_dir", out)):
        if value is not None:
            raw[key] = value
    if noise is not None and isinstance(raw.get("polarization"), dict):
        raw["polarization"]["photometric_noise"] = noise
    return _run_config(root)

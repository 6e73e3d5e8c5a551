"""Seeded workload generator: chip configs and the command script of each workload.

The program sees only the generated config files. Each workload is a list of
chips (one config each) and a command script; every command names the chip it
reads and the check that judges its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

WHY = {
    "shipped_configs": (
        "the README's commands on the three shipped configs: each computes for 20 ms "
        "or less, so import, config, io and cli set the time"
    ),
    "fanin_long": (
        "three seeded fan-in chips (N=6/4096, 24/2048, 48/1024 steps): the per-step "
        "coupling + eigh loop dominates, at both ends of Python overhead vs eigh cost"
    ),
    "ellipse_large": (
        "static N=24 and N=48 ellipses with seeded imperfections, noise and fit-mode "
        "visibilities: polarization, io and the twophoton fit dominate"
    ),
}

# Shipped ellipse_walk geometry per 6 cores; scaled chips keep the core spacing.
_A6, _B6 = 10.2, 7.0
_COUPLING = {"c0_per_mm": 1.0, "kappa_per_um": 0.5, "r0_um": 10.0, "beta_per_mm": 0.0}
_HOM = {"delay_min": -4.0, "delay_max": 4.0, "points": 81, "coherence_sigma": 1.0}


@dataclass
class Command:
    """One CLI invocation: ``argv`` after the program name, and what to check."""

    chip: str
    action: str  # layout, propagate, correlations, hom, simulate, reconstruct, report, fidelity
    argv: List[str]

    @property
    def label(self) -> str:
        return f"{self.chip} {self.action}"


@dataclass
class Workload:
    configs: Dict[str, Path]  # chip name -> config path
    out_dirs: Dict[str, Path]  # chip name -> output directory
    commands: List[Command]
    probes: List[Command] = field(default_factory=list)
    sha256: Dict[str, str] = field(default_factory=dict)

    def config(self, chip: str) -> dict:
        return json.loads(self.configs[chip].read_text())


def _ellipse(n: int, scale: float, offset: float) -> dict:
    return {
        "kind": "ellipse",
        "count": n,
        "semi_major_um": round(_A6 * n / 6 * scale, 6),
        "semi_minor_um": round(_B6 * n / 6 * scale, 6),
        "angle_offset_rad": offset,
    }


def _pair(rng: random.Random, n: int) -> List[int]:
    return sorted(rng.sample(range(1, n + 1), 2))


def _fanin_chip(rng: random.Random, n: int, steps: int, seed: int) -> dict:
    offset = round(rng.uniform(0.0, 2.0 * math.pi / n), 6)
    return {
        "layout": {
            "kind": "fanin",
            "input": _ellipse(n, 4.0, offset),
            "intermediate": _ellipse(n, 2.0, offset),
            "final": _ellipse(n, 1.0, offset),
            "stage1_mm": 8.5,
            "stage2_mm": 1.0,
        },
        "coupling": dict(_COUPLING),
        "z_mm": 1.0,
        "input_ports": _pair(rng, n),
        "steps": steps,
        "trace_points": 200,
        "hom": dict(_HOM, visibility_mode="extrema"),
        "seed": seed,
    }


def _polarized_chip(rng: random.Random, n: int, seed: int) -> dict:
    def per_guide(lo, hi):
        return [round(rng.uniform(lo, hi), 6) for _ in range(n)]

    return {
        "layout": _ellipse(n, 1.0, round(rng.uniform(0.0, 2.0 * math.pi / n), 6)),
        "coupling": dict(_COUPLING),
        "z_mm": 1.0,
        "input_ports": _pair(rng, n),
        "trace_points": 200,
        "hom": dict(_HOM, visibility_mode="fit"),
        "polarization": {
            "coupling_v": dict(_COUPLING, c0_per_mm=0.4),
            "birefringence_per_mm": per_guide(-0.3, 0.3),
            "pol_rotation_per_mm": per_guide(0.0, 0.1),
            "loss_h": per_guide(0.93, 1.0),
            "loss_v": per_guide(0.78, 1.0),
            "photometric_noise": 0.01,
        },
        "seed": seed,
    }


def _chip_commands(chip: str, config: Path, out: Path, actions: List[str]) -> List[Command]:
    commands = []
    for action in actions:
        if action in ("simulate", "reconstruct", "report"):
            argv = ["tomography", "--config", str(config), "--out", str(out), "--mode", action]
        else:
            argv = [action, "--config", str(config), "--out", str(out)]
        commands.append(Command(chip, action, argv))
    return commands


_WALK = ["layout", "propagate", "correlations", "hom"]
_TOMOGRAPHY = ["propagate", "correlations", "hom", "simulate", "reconstruct", "report"]


def generate(name: str, seed: int, repo: Path, work: Path) -> Workload:
    """Write the workload's configs under ``work`` and return its command script.

    Configs are generated from ``seed`` alone (the shipped workload copies the
    repository's configs), so equal seeds give byte-identical inputs.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    if work.exists():
        shutil.rmtree(work)
    (work / "configs").mkdir(parents=True)
    rng = random.Random(f"{name}:{seed}")
    chips: Dict[str, dict] = {}
    plan: Dict[str, List[str]] = {}
    if name == "shipped_configs":
        for chip in ("ellipse_walk", "fanin_walk", "fanin_frontend"):
            chips[chip] = json.loads((repo / "configs" / f"{chip}.json").read_text())
        plan = {
            "ellipse_walk": _WALK + ["simulate", "reconstruct", "report"],
            "fanin_walk": _WALK,
            "fanin_frontend": ["layout"],
        }
    elif name == "fanin_long":
        for n, steps in ((6, 4096), (24, 2048), (48, 1024)):
            chip = f"fanin{n}"
            chips[chip] = _fanin_chip(rng, n, steps, seed)
            plan[chip] = _WALK
    else:
        for n in (24, 48):
            chip = f"ellipse{n}"
            chips[chip] = _polarized_chip(rng, n, seed)
            plan[chip] = _TOMOGRAPHY

    configs, out_dirs, sha = {}, {}, {}
    commands: List[Command] = []
    for chip, cfg in chips.items():
        cfg.pop("out_dir", None)
        text = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
        path = work / "configs" / f"{chip}.json"
        path.write_text(text)
        configs[chip] = path
        out_dirs[chip] = work / "out" / chip
        sha[chip] = hashlib.sha256(text.encode()).hexdigest()
        commands += _chip_commands(chip, path, out_dirs[chip], plan[chip])

    probes: List[Command] = []
    if name == "shipped_configs":
        gammas = [str(out_dirs[c] / "gamma_indistinguishable.csv") for c in ("ellipse_walk", "fanin_walk")]
        fidelity_out = work / "out" / "fidelity"
        commands.append(
            Command("ellipse_walk~fanin_walk", "fidelity", ["fidelity", *gammas, "--out", str(fidelity_out)])
        )
        out_dirs["ellipse_walk~fanin_walk"] = fidelity_out
        # Known defect: fanin_frontend's cores pass within about 0.01 um and
        # propagate still exits 0, with |U - U_ref| ~ 0.4. It is run and checked
        # once per run, outside the timed script, so that its verdict stays
        # visible while the timed script holds only commands that can pass.
        # Exit code 3 (the program refusing the chip) counts as a pass.
        probes = _chip_commands(
            "fanin_frontend", configs["fanin_frontend"], out_dirs["fanin_frontend"], ["propagate"]
        )
    return Workload(configs, out_dirs, commands, probes, sha)

"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with
``pytest tests/test_acceptance.py -v -s`` to see the lines live)."""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from wgwalk.cli import main
from wgwalk.coupling import CouplingModel, build_coupling_matrix
from wgwalk.geometry import elliptical_layout, fan_in_layout
from wgwalk.polarization import (
    build_polarized_chip,
    extract_h_subspace,
    pdl_report,
    reconstruct_mueller,
    simulate_tomography,
)
from wgwalk.propagation import propagate_z_dependent, unitary
from wgwalk.twophoton import (
    gamma_distinguishable,
    gamma_indistinguishable,
    hom_scan,
    similarity,
    visibility,
)

from helpers import (
    expm_taylor,
    fock_oracle,
    intensity_trace,
    jones_to_mueller,
    paper_ellipse,
    port_block,
    random_chip,
    random_hermitian,
    random_symmetric,
    random_unitary,
    single_photon_distribution,
)


@contextmanager
def criterion(number: int, title: str, budget_s: float = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"FAIL criterion {number}: {title} (runtime {elapsed:.2f} s over budget)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_s} s runtime budget: {elapsed:.2f} s"
        )
    print(f"PASS criterion {number}: {title} ({elapsed:.2f} s)")


def splitter_5050():
    return unitary(np.array([[0.0, 1.0], [1.0, 0.0]]), math.pi / 4)


def test_criterion_1_hom_exactness():
    with criterion(1, "analytic 50/50 HOM bunching and unit visibility", 1.0):
        u = splitter_5050()
        gi = gamma_indistinguishable(u, 0, 1)
        assert abs(gi[0, 1]) < 1e-12
        assert abs(gi[0, 0] - 0.5) < 1e-12
        assert abs(gi[1, 1] - 0.5) < 1e-12
        delays = np.linspace(-8.0, 8.0, 81)
        scan = hom_scan(u, 0, 1, delays, 1.0)
        (value,) = visibility(delays, scan[:, [1]], 1.0)
        assert abs(value - 1.0) < 1e-9


def _random_unitary_trials():
    """100 Haar-random unitaries spread over N in {2..6}, with all pairs."""
    rng = np.random.default_rng(20260810)
    trials = []
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            trials.append((n, random_unitary(rng, n)))
    return trials


def test_criterion_2_oracle_equivalence():
    with criterion(2, "closed-form correlations match Fock-space oracle", 30.0):
        for n, u in _random_unitary_trials():
            for i in range(n):
                for j in range(i + 1, n):
                    closed = gamma_indistinguishable(u, i, j)
                    brute = fock_oracle(u, i, j)
                    assert np.max(np.abs(closed - brute)) < 1e-10


def test_criterion_3_normalization_and_difference_identity():
    with criterion(3, "correlation normalization and interference factor", 30.0):
        for n, u in _random_unitary_trials():
            i, j = 0, n - 1
            gi = gamma_indistinguishable(u, i, j)
            gd = gamma_distinguishable(u, i, j)
            assert abs(np.sum(np.triu(gi)) - 1.0) < 1e-10
            assert abs(np.sum(np.triu(gd)) - 1.0) < 1e-10
            diff = gd - gi
            deltas = 1.0 + np.eye(n)
            amp_a = np.outer(u[:, i], u[:, j])  # U[k,i] U[l,j]
            amp_b = np.outer(u[:, j], u[:, i])  # U[k,j] U[l,i]
            factor = -2.0 * np.real(np.conj(amp_a) * amp_b)
            assert np.max(np.abs(diff - factor / deltas)) < 1e-12


def test_criterion_4_propagator_correctness():
    with criterion(4, "spectral exponential, unitarity, composition, convergence", 60.0):
        rng = np.random.default_rng(404)
        for _ in range(20):
            c = random_hermitian(rng, 6)
            z = 10.0 / np.linalg.norm(c, 2)
            u = unitary(c, z)
            assert np.max(np.abs(u - expm_taylor(1j * z * c))) < 1e-8
            assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10
        c = random_symmetric(rng, 6)
        u1 = unitary(c, 0.6)
        u2 = unitary(c, 1.7)
        assert np.max(np.abs(u1 @ u2 - unitary(c, 2.3))) < 1e-10

        layout = fan_in_layout(
            elliptical_layout(6, 40.8, 28.0),
            elliptical_layout(6, 20.4, 14.0),
            paper_ellipse(),
            8.5,
            1.0,
        )
        model = CouplingModel()
        reference = propagate_z_dependent(layout, model, 0.0, 9.5, 1024)
        errors = {
            steps: np.max(
                np.abs(propagate_z_dependent(layout, model, 0.0, 9.5, steps) - reference)
            )
            for steps in (32, 64, 128)
        }
        assert errors[128] < errors[64] < errors[32]
        # two step doublings cut the error by >= 4x: at least first order
        assert errors[32] / errors[128] > 4.0


def test_criterion_5_elliptical_mirror_symmetry():
    with criterion(5, "mirror-paired intensity traces overlap on the ellipse", 5.0):
        c = build_coupling_matrix(paper_ellipse(), CouplingModel())
        grid = np.linspace(0.0, 3.0, 200)
        trace = intensity_trace(c, 0, grid)
        assert np.max(np.abs(trace[:, 1] - trace[:, 5])) < 1e-10
        assert np.max(np.abs(trace[:, 2] - trace[:, 4])) < 1e-10
        assert np.max(np.abs(trace.sum(axis=1) - 1.0)) < 1e-10


def test_criterion_6_tomography_round_trip():
    with criterion(6, "Mueller tomography round-trip, noiseless and 1% noise", 60.0):
        rng = np.random.default_rng(606)
        chips = [random_chip(rng) for _ in range(50)]
        noise = random.Random(606)
        noise_errors = []
        for chip in chips:
            truth = np.stack(
                [
                    np.stack(
                        [jones_to_mueller(port_block(chip, i, j)) for j in range(6)]
                    )
                    for i in range(6)
                ]
            )
            exact, _ = reconstruct_mueller(simulate_tomography(chip))
            assert np.max(np.abs(exact - truth)) < 1e-8
            noisy, _ = reconstruct_mueller(simulate_tomography(chip, 0.01, noise))
            noise_errors.append(np.abs(noisy - truth))
        assert np.median(np.asarray(noise_errors)) < 0.02


def test_criterion_7_constructed_scenario_recovery():
    with criterion(7, "38% excess V loss report and scalar |U|^2 extraction", 30.0):
        layout = paper_ellipse()
        decoupled = CouplingModel(c0_per_mm=0.0)
        loss_v = np.ones(6)
        loss_v[5] = math.sqrt(1.0 - 0.38)
        lossy = build_polarized_chip(layout, decoupled, decoupled, loss_v=loss_v, z=1.0)
        report = pdl_report(simulate_tomography(lossy))
        assert abs(report[5] - 0.38) < 1e-6

        model = CouplingModel()
        scalar = build_polarized_chip(layout, model, model, z=1.3)
        u = unitary(build_coupling_matrix(layout, model), 1.3)
        matrices, _ = reconstruct_mueller(simulate_tomography(scalar))
        recovered = extract_h_subspace(matrices)
        assert np.max(np.abs(recovered - np.abs(u) ** 2)) < 1e-8
        for port in range(6):
            column = single_photon_distribution(u, port)
            assert np.max(np.abs(recovered[:, port] - column)) < 1e-8


def test_criterion_8_fidelity_measure_contract():
    with criterion(8, "overlap fidelity S contract", 5.0):
        rng = np.random.default_rng(808)
        a = rng.uniform(0.0, 1.0, (6, 6))
        b = rng.uniform(0.0, 1.0, (6, 6))
        assert abs(similarity(a, a) - 1.0) < 1e-12
        disjoint_a = np.array([[0.7, 0.0], [0.0, 0.0]])
        disjoint_b = np.array([[0.0, 0.4], [0.4, 0.0]])
        assert similarity(disjoint_a, disjoint_b) == 0.0
        assert abs(similarity(a, b) - similarity(b, a)) < 1e-12
        assert abs(similarity(5.0 * a, b) - similarity(a, 0.25 * b)) < 1e-12
        overlap = sum(
            math.sqrt(x * y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
        )
        independent = overlap**2 / (a.sum() * b.sum())
        assert abs(similarity(a, b) - independent) < 1e-12


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "byte-identical CLI artifacts for identical config and seed", 60.0):
        config = {
            "layout": {
                "kind": "ellipse",
                "count": 6,
                "semi_major_um": 10.2,
                "semi_minor_um": 7.0,
            },
            "coupling": {
                "c0_per_mm": 1.0,
                "kappa_per_um": 0.5,
                "r0_um": 10.0,
                "beta_per_mm": 0.0,
            },
            "z_mm": 1.0,
            "input_ports": [1, 2],
            "trace_points": 60,
            "hom": {
                "delay_min": -4.0,
                "delay_max": 4.0,
                "points": 41,
                "coherence_sigma": 1.0,
            },
            "polarization": {
                "coupling_v": {"c0_per_mm": 0.4},
                "birefringence_per_mm": [0.1, -0.2, 0.3, 0.0, 0.2, -0.1],
                "loss_v": [0.9, 1.0, 0.95, 1.0, 0.85, 1.0],
                "photometric_noise": 0.01,
            },
            "seed": 42,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        names = set()
        for run in ("run_a", "run_b"):
            out = str(tmp_path / run)
            for argv in (
                ["propagate", "--config", str(cfg_path), "--out", out],
                ["correlations", "--config", str(cfg_path), "--out", out],
                ["hom", "--config", str(cfg_path), "--out", out],
                ["tomography", "--config", str(cfg_path), "--mode", "simulate", "--out", out],
                ["tomography", "--config", str(cfg_path), "--mode", "reconstruct", "--out", out],
                ["tomography", "--config", str(cfg_path), "--mode", "report", "--out", out],
            ):
                assert main(argv) == 0
            names = {p.name for p in (tmp_path / run).iterdir()}
        assert names  # both runs emitted the same artifact set
        for name in sorted(names):
            bytes_a = (tmp_path / "run_a" / name).read_bytes()
            bytes_b = (tmp_path / "run_b" / name).read_bytes()
            assert bytes_a == bytes_b, f"artifact {name} differs between identical runs"

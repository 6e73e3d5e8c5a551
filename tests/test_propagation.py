import math
from pathlib import Path

import numpy as np
import pytest

from wgwalk.config import load_run_config, parse_run_config
from wgwalk.coupling import CouplingModel, build_coupling_matrix
from wgwalk.geometry import elliptical_layout, fan_in_layout, permuted_layout
from wgwalk.polarization import build_polarized_chip
from wgwalk.propagation import (
    BATCH_ELEMENTS,
    MAX_STEPS,
    MIN_BATCH_SEGMENTS,
    _exp_i_taylor,
    evolve_amplitudes,
    propagate_z_dependent,
    unitary,
    z_ordered_product,
)

from helpers import (
    expm_taylor,
    intensity_trace,
    paper_ellipse,
    propagate_per_step,
    random_hermitian,
    random_symmetric,
    scaled_fanin_walk,
    single_photon_distribution,
    traced_peak,
)

UNITARITY_TOL = 1e-10


def unitarity_deviation(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def splitter_5050():
    """Two-mode coupler at z c = pi/4: the closed-form 50/50 beam splitter."""
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    return unitary(c, math.pi / 4)


class TestUnitary:
    def test_zero_length_is_identity(self):
        c = random_symmetric(np.random.default_rng(0), 5)
        u = unitary(c, 0.0)
        np.testing.assert_allclose(u, np.eye(5), atol=1e-13)

    def test_diagonal_coupling_gives_diagonal_phases(self):
        beta = np.array([0.3, -1.1, 2.0])
        u = unitary(np.diag(beta), 1.7)
        np.testing.assert_allclose(u, np.diag(np.exp(1.7j * beta)), atol=1e-13)

    def test_two_mode_closed_form(self):
        c_rate, beta, z = 0.9, 0.4, 1.3
        u = unitary(np.array([[beta, c_rate], [c_rate, beta]]), z)
        phase = np.exp(1j * z * beta)
        expected = phase * np.array(
            [
                [math.cos(c_rate * z), 1j * math.sin(c_rate * z)],
                [1j * math.sin(c_rate * z), math.cos(c_rate * z)],
            ]
        )
        np.testing.assert_allclose(u, expected, atol=1e-12)
        np.testing.assert_allclose(
            u, expm_taylor(1j * z * np.array([[beta, c_rate], [c_rate, beta]])), atol=1e-12
        )

    def test_5050_splitter_probabilities(self):
        u = splitter_5050()
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(u[0, 1]) ** 2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unitarity_random_couplings(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            u = unitary(random_symmetric(rng, n), rng.uniform(0.0, 4.0))
            assert unitarity_deviation(u) < UNITARITY_TOL

    def test_unitarity_complex_hermitian(self):
        rng = np.random.default_rng(17)
        u = unitary(random_hermitian(rng, 6), 2.1)
        assert unitarity_deviation(u) < UNITARITY_TOL

    def test_composition_law(self):
        rng = np.random.default_rng(23)
        c = random_symmetric(rng, 6)
        u1 = unitary(c, 0.7)
        u2 = unitary(c, 1.9)
        u12 = unitary(c, 2.6)
        np.testing.assert_allclose(u1 @ u2, u12, atol=1e-10)

    def test_matches_power_series_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            c = random_hermitian(rng, 6)
            z = 10.0 / np.linalg.norm(c, 2)  # keep ||z C|| <= 10
            u = unitary(c, z)
            np.testing.assert_allclose(u, expm_taylor(1j * z * c), atol=1e-8)

    def test_mirror_symmetric_coupling_gives_mirror_symmetric_output(self):
        c = build_coupling_matrix(paper_ellipse(), CouplingModel())
        mirror = [0, 5, 4, 3, 2, 1]
        perm = np.ix_(mirror, mirror)
        probs = np.abs(unitary(c, 1.5)) ** 2
        np.testing.assert_allclose(probs, probs[perm], atol=1e-10)

    def test_uniform_beta_is_global_phase(self):
        rng = np.random.default_rng(31)
        c = random_symmetric(rng, 5)
        base = np.abs(unitary(c, 1.2)) ** 2
        shifted = np.abs(unitary(c + 3.7 * np.eye(5), 1.2)) ** 2
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_stack_bit_equal_to_per_matrix_calls(self):
        rng = np.random.default_rng(41)
        stack = np.stack([random_hermitian(rng, 5) for _ in range(7)])
        per_matrix = np.stack([unitary(c, 0.9) for c in stack])
        assert np.array_equal(unitary(stack, 0.9), per_matrix)

    def test_stack_with_one_non_hermitian_member_rejected(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]])])
        with pytest.raises(ValueError, match="not Hermitian"):
            unitary(stack, 1.0)

    def test_nan_coupling_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            unitary(np.array([[math.nan, 1.0], [1.0, 0.0]]), 1.0)

    def test_rejects_asymmetric_and_negative_z(self):
        with pytest.raises(ValueError):
            unitary(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            unitary(np.eye(2), -1.0)
        with pytest.raises(ValueError):
            unitary(np.zeros((2, 3)), 1.0)
        # non-finite lengths are refused by name, before any eigh runs
        for z in (math.nan, math.inf):
            with pytest.raises(ValueError, match="propagation length"):
                unitary(np.eye(2), z)
        with pytest.raises(ValueError, match="z grid must be finite"):
            evolve_amplitudes(np.eye(2), [1.0, 0.0], [0.0, math.nan])


def _random_stack(rng, count, n, hermitian):
    """Real-symmetric or complex-Hermitian matrices scaled to ||H||_1 in [0, 50]."""
    draw = random_hermitian if hermitian else random_symmetric
    stack = np.stack([draw(rng, n) for _ in range(count)])
    norms = np.max(np.sum(np.abs(stack), axis=-2), axis=-1)
    targets = np.concatenate([[0.0, 0.25], rng.uniform(0.0, 50.0, count - 2)])
    return stack * (targets / norms)[:, None, None]


class TestTaylorKernel:
    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_matches_eigh_and_power_series(self, n, hermitian):
        # ||dz H||_1 spans 0 to 50, so up to eight squarings run
        rng = np.random.default_rng(100 * n + hermitian)
        dz = 0.37
        stack = _random_stack(rng, 10, n, hermitian) / dz
        actual = _exp_i_taylor(stack, dz)
        for h, u in zip(stack, actual):
            np.testing.assert_allclose(u, unitary(h, dz), rtol=0, atol=1e-12)
            np.testing.assert_allclose(u, expm_taylor(1j * dz * h), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_stack_bit_equal_to_per_matrix_calls(self, hermitian):
        # batch-mates needing 0 to 8 squarings do not change each other's bits
        stack = _random_stack(np.random.default_rng(7), 9, 6, hermitian)
        per_matrix = np.stack([_exp_i_taylor(h[None], 1.0)[0] for h in stack])
        assert np.array_equal(_exp_i_taylor(stack, 1.0), per_matrix)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_generator_rejected(self, bad):
        stack = np.stack([np.eye(3), np.full((3, 3), bad)])
        with pytest.raises(ValueError, match="not finite"):
            _exp_i_taylor(stack, 0.1)

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            _exp_i_taylor(np.array([[[0.0, 1.0], [0.5, 0.0]]]), 0.1)


class TestSinglePhotonDistribution:
    def test_identity_propagator(self):
        u = np.eye(5, dtype=complex)
        np.testing.assert_array_equal(
            single_photon_distribution(u, 3), [0, 0, 0, 1, 0]
        )

    def test_5050_splitter(self):
        p = single_photon_distribution(splitter_5050(), 0)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_normalization_random(self):
        rng = np.random.default_rng(37)
        u = unitary(random_hermitian(rng, 6), 2.3)
        for port in range(6):
            assert single_photon_distribution(u, port).sum() == pytest.approx(
                1.0, abs=1e-10
            )

    def test_port_out_of_range(self):
        with pytest.raises(IndexError):
            single_photon_distribution(splitter_5050(), 2)


class TestIntensityTrace:
    def test_zero_grid_is_one_hot(self):
        c = build_coupling_matrix(paper_ellipse(), CouplingModel())
        trace = intensity_trace(c, 2, [0.0])
        np.testing.assert_allclose(trace, np.eye(6)[2][None, :], atol=1e-12)

    def test_rows_normalized_everywhere(self):
        c = build_coupling_matrix(paper_ellipse(), CouplingModel())
        trace = intensity_trace(c, 0, np.linspace(0.0, 3.0, 50))
        np.testing.assert_allclose(trace.sum(axis=1), np.ones(50), atol=1e-10)

    def test_mirror_paired_guides_overlap(self):
        # input on the ellipse symmetry axis: traces of the mirror pairs
        # coincide at every z
        c = build_coupling_matrix(paper_ellipse(), CouplingModel())
        trace = intensity_trace(c, 0, np.linspace(0.0, 3.0, 120))
        np.testing.assert_allclose(trace[:, 1], trace[:, 5], atol=1e-10)
        np.testing.assert_allclose(trace[:, 2], trace[:, 4], atol=1e-10)

    def test_decreasing_grid_rejected(self):
        c = np.zeros((2, 2))
        with pytest.raises(ValueError):
            intensity_trace(c, 0, [1.0, 0.5])
        with pytest.raises(ValueError):
            intensity_trace(c, 0, [])


def _fan_in():
    # concentric shrinking ellipses: trajectories never cross, so coupling
    # stays bounded along the whole profile (a 2-D collision would blow up
    # the exponential law and make the ordered product needlessly stiff)
    outer = elliptical_layout(6, 40.8, 28.0)
    mid = elliptical_layout(6, 20.4, 14.0)
    return fan_in_layout(outer, mid, paper_ellipse(), 8.5, 1.0)


class TestPropagateZDependent:
    def test_constant_profile_equals_direct_exponential(self):
        same = paper_ellipse()
        layout = fan_in_layout(same, same, same, 1.0, 1.0)
        model = CouplingModel()
        direct = unitary(build_coupling_matrix(same, model), 2.0)
        for steps in (1, 7):
            product = propagate_z_dependent(layout, model, 0.0, 2.0, steps)
            np.testing.assert_allclose(product, direct, atol=1e-10)

    def test_unitary_along_fan_in(self):
        u = propagate_z_dependent(_fan_in(), CouplingModel(), 0.0, 9.5, 40)
        assert unitarity_deviation(u) < UNITARITY_TOL

    def test_cauchy_under_step_doubling(self):
        layout = _fan_in()
        model = CouplingModel()
        results = {
            steps: propagate_z_dependent(layout, model, 0.0, 9.5, steps)
            for steps in (32, 64, 128, 1024)
        }
        err_coarse = np.max(np.abs(results[32] - results[1024]))
        err_mid = np.max(np.abs(results[64] - results[1024]))
        err_fine = np.max(np.abs(results[128] - results[1024]))
        assert err_fine < err_mid < err_coarse
        # two step doublings must cut the error by at least 4x (first order)
        assert err_coarse / err_fine > 4.0
        # refinement differences shrink too (Cauchy under doubling)
        gap_coarse = np.max(np.abs(results[64] - results[32]))
        gap_fine = np.max(np.abs(results[128] - results[64]))
        assert gap_fine < gap_coarse

    def test_decoupled_guides_give_identity_up_to_phases(self):
        model = CouplingModel(c0_per_mm=0.0, beta_per_mm=0.8)
        u = propagate_z_dependent(_fan_in(), model, 0.0, 9.5, 16)
        np.testing.assert_allclose(np.abs(u), np.eye(6), atol=1e-12)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            propagate_z_dependent(_fan_in(), CouplingModel(), 0.0, 9.5, 0)


def _batch_boundaries(n):
    """Step counts around the first two batch boundaries of an n x n product:
    the first batch holds MIN_BATCH_SEGMENTS segments, later ones b."""
    first = MIN_BATCH_SEGMENTS
    b = max(MIN_BATCH_SEGMENTS, BATCH_ELEMENTS // n**2)
    return [1, first - 1, first, first + 1, first + b - 1, first + b + 1]


class TestBatchedEngine:
    @pytest.mark.parametrize("steps", _batch_boundaries(6))
    def test_bit_equal_to_per_step_loop(self, steps):
        # relabelled cores and a cutoff that removes every coupling near the
        # wide input end and the long-range ones at the intermediate ellipse
        layout = permuted_layout(_fan_in(), [0, 1, 2, 5, 4, 3])
        model = CouplingModel(beta_per_mm=0.3)
        expected = propagate_per_step(
            layout, model, 0.75, 9.5, steps, neighbor_cutoff=25.0,
            exponential=lambda c, dz: _exp_i_taylor(c[None], dz)[0],
        )
        actual = propagate_z_dependent(layout, model, 0.75, 9.5, steps, 25.0)
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("steps", _batch_boundaries(12))
    def test_jones_chip_bit_equal_to_per_step_loop(self, steps):
        # the 12 x 12 generator of build_polarized_chip, rebuilt here with
        # mixed polarizations, split propagation constants and unequal laws
        layout = _fan_in()
        model_h, model_v = CouplingModel(), CouplingModel(c0_per_mm=0.8, beta_per_mm=0.2)
        split, mixing = np.linspace(-0.3, 0.3, 6), np.full(6, 0.15)

        def generator(z=None):
            g = np.zeros((12, 12))
            g[0::2, 0::2] = build_coupling_matrix(layout, model_h, z=z)
            g[1::2, 1::2] = build_coupling_matrix(layout, model_v, z=z)
            idx = np.arange(6)
            g[2 * idx, 2 * idx] += split / 2.0
            g[2 * idx + 1, 2 * idx + 1] -= split / 2.0
            g[2 * idx, 2 * idx + 1] = mixing
            g[2 * idx + 1, 2 * idx] = mixing
            return g

        dz = 9.5 / steps
        fan = np.eye(12, dtype=complex)
        for k in range(steps):
            fan = _exp_i_taylor(generator((k + 0.5) * dz)[None], dz)[0] @ fan
        chip = build_polarized_chip(
            layout, model_h, model_v, birefringence=split, pol_rotation=mixing, z=1.0, steps=steps
        )
        assert np.array_equal(chip, unitary(generator(), 1.0) @ fan)

    @pytest.mark.parametrize("chip", ["_fan_in", "fanin_frontend"])
    def test_matches_eigh_per_step_loop(self, chip):
        # fanin_frontend's crossing cores reach ||dz C||_1 = 7.9, so its
        # segments are squared up to five times
        if chip == "_fan_in":
            layout, model, steps, cutoff = _fan_in(), CouplingModel(), 256, None
        else:
            cfg = load_run_config(Path(__file__).resolve().parent.parent / "configs" / f"{chip}.json")
            layout, model, steps, cutoff = cfg.layout, cfg.coupling, cfg.steps, cfg.neighbor_cutoff_um
        z0, z1 = layout.z_span
        expected = propagate_per_step(layout, model, z0, z1, steps, neighbor_cutoff=cutoff)
        actual = propagate_z_dependent(layout, model, z0, z1, steps, cutoff)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("steps", _batch_boundaries(2) + [10_000])
    def test_batch_midpoints_equal_all_at_once(self, steps):
        # formed a batch at a time, the midpoints still equal the whole
        # z_start + (k + 1/2) dz array bit for bit
        sampled = []

        def generator(z):
            sampled.append(z)
            return np.zeros((len(z), 2, 2))

        z_ordered_product(generator, 0.75, 9.5, steps)
        dz = (9.5 - 0.75) / steps
        assert np.array_equal(np.concatenate(sampled), 0.75 + (np.arange(steps) + 0.5) * dz)

    def test_step_count_above_cap_rejected_before_any_work(self):
        def generator(z):
            raise AssertionError("sampled a refused product")

        with pytest.raises(ValueError, match=rf"steps {MAX_STEPS + 1} .* cap of {MAX_STEPS}"):
            z_ordered_product(generator, 0.0, 9.5, MAX_STEPS + 1)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="z_end"):
            propagate_z_dependent(_fan_in(), CouplingModel(), 9.5, 0.0, 8)

    @pytest.mark.parametrize("steps", [1024, 4096])
    def test_memory_of_a_48_core_fan_in_does_not_grow_with_steps(self, steps):
        # batches of 32 segments traced 6.7 MB here; batches sized by matrix
        # elements (4 segments of 48 x 48) trace about 1.1 MB at any step count
        cfg = parse_run_config(scaled_fanin_walk(8, steps))
        z0, z1 = cfg.layout.z_span
        peak = traced_peak(lambda: propagate_z_dependent(cfg.layout, cfg.coupling, z0, z1, steps))
        assert peak <= 2_500_000

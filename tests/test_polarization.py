import math
import random
import warnings

import numpy as np
import pytest

from wgwalk import cli, polarization
from wgwalk.config import parse_run_config
from wgwalk.coupling import CouplingModel, build_coupling_matrix
from wgwalk.geometry import elliptical_layout, fan_in_layout, linear_layout
from wgwalk.polarization import (
    STATE_ORDER,
    STOKES_STATES,
    JonesTransfer,
    ReconstructionError,
    TomographyRecord,
    build_polarized_chip,
    extract_h_subspace,
    pdl_report,
    poincare_ellipsoid,
    reconstruct_mueller,
    simulate_tomography,
)
from wgwalk.propagation import propagate_z_dependent, unitary
from wgwalk.twophoton import gamma_indistinguishable

from helpers import (
    field_stokes,
    jones_to_mueller,
    paper_ellipse,
    poincare_ellipsoid_reference,
    port_block,
    random_chip,
    random_unitary,
    reconstruct_mueller_one_shot,
    scaled_ellipse_walk,
    scaled_fanin_walk,
    simulate_tomography_all_ports,
    traced_peak,
)


def identity_chip(n=6):
    return JonesTransfer(np.eye(2 * n, dtype=complex))


def scalar_chip(z=1.3):
    model = CouplingModel()
    chip = build_polarized_chip(paper_ellipse(), model, model, z=z)
    u = unitary(build_coupling_matrix(paper_ellipse(), model), z)
    return chip, u


class TestJonesToMueller:
    def test_identity(self):
        np.testing.assert_array_equal(jones_to_mueller(np.eye(2)), np.eye(4))

    def test_half_wave_plate(self):
        m = jones_to_mueller(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(m, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-14)

    def test_horizontal_polarizer(self):
        m = jones_to_mueller(np.diag([1.0, 0.0]))
        expected = np.zeros((4, 4))
        expected[:2, :2] = 0.5
        np.testing.assert_allclose(m, expected, atol=1e-14)

    def test_action_matches_field_level_stokes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            jones = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            jones /= np.linalg.norm(jones, 2)
            field = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            np.testing.assert_allclose(
                jones_to_mueller(jones) @ field_stokes(field),
                field_stokes(jones @ field),
                atol=1e-12,
            )

    def test_homomorphism(self):
        rng = np.random.default_rng(5)
        j1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        j2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(
            jones_to_mueller(j1 @ j2),
            jones_to_mueller(j1) @ jones_to_mueller(j2),
            atol=1e-10,
        )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            jones_to_mueller(np.eye(3))


class TestJonesTransfer:
    def test_passivity_enforced(self):
        with pytest.raises(ValueError):
            JonesTransfer(1.5 * np.eye(4))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            JonesTransfer(np.eye(3, dtype=complex))

    def test_port_block_indexing(self):
        m = np.arange(16, dtype=complex).reshape(4, 4) / 100.0
        chip = JonesTransfer(m)
        np.testing.assert_array_equal(port_block(chip, 1, 0), m[2:4, 0:2])
        assert chip.n_ports == 2


class TestTomographyRecord:
    def test_negative_rejected(self):
        intensities = np.full((1, 6, 1, 6), 0.5)
        intensities[0, 0, 0, 1] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            TomographyRecord(intensities)


class TestBuildPolarizedChip:
    def test_degenerate_parameters_reduce_to_scalar(self):
        chip, u = scalar_chip()
        np.testing.assert_allclose(chip.matrix[0::2, 0::2], u, atol=1e-10)
        np.testing.assert_allclose(chip.matrix[1::2, 1::2], u, atol=1e-10)
        np.testing.assert_allclose(
            chip.matrix[0::2, 1::2], np.zeros((6, 6)), atol=1e-12
        )

    def test_lossless_chip_is_unitary(self):
        rng = np.random.default_rng(11)
        chip = random_chip(rng, lossless=True)
        singular = np.linalg.svd(chip.matrix, compute_uv=False)
        np.testing.assert_allclose(singular, np.ones(12), atol=1e-10)

    def test_decoupled_vertical_block_keeps_v_photons_home(self):
        layout = paper_ellipse()
        model_h = CouplingModel(c0_per_mm=1.0)
        model_v = CouplingModel(c0_per_mm=0.0)
        chip = build_polarized_chip(layout, model_h, model_v, z=1.5)
        v_block = np.abs(chip.matrix[1::2, 1::2])
        np.testing.assert_allclose(v_block, np.eye(6), atol=1e-12)
        h_block = np.abs(chip.matrix[0::2, 0::2]) ** 2
        assert np.max(h_block - np.eye(6)) > 0.05  # H photons actually walk

    def test_single_guide_excess_v_loss_deficit(self):
        # decoupled guides, 38% excess V loss on guide 2: exciting that guide
        # loses exactly 38% of the V power relative to H
        layout = paper_ellipse()
        model = CouplingModel(c0_per_mm=0.0)
        loss_v = np.ones(6)
        loss_v[2] = np.sqrt(1.0 - 0.38)
        chip = build_polarized_chip(layout, model, model, loss_v=loss_v, z=1.0)
        power_h = np.sum(np.abs(chip.matrix[:, 2 * 2]) ** 2)
        power_v = np.sum(np.abs(chip.matrix[:, 2 * 2 + 1]) ** 2)
        assert 1.0 - power_v / power_h == pytest.approx(0.38, abs=1e-12)

    def test_birefringence_splits_phases(self):
        layout = linear_layout(1, 10.0)
        model = CouplingModel()
        chip = build_polarized_chip(layout, model, model, birefringence=[2.0], z=1.0)
        phase_h = np.angle(chip.matrix[0, 0])
        phase_v = np.angle(chip.matrix[1, 1])
        assert (phase_h - phase_v) == pytest.approx(2.0, abs=1e-12)

    def test_pol_rotation_mixes_polarizations(self):
        layout = linear_layout(1, 10.0)
        model = CouplingModel()
        chip = build_polarized_chip(layout, model, model, pol_rotation=[0.3], z=1.0)
        assert abs(chip.matrix[1, 0]) > 0.1

    def test_fan_in_chip_is_scalar_chip_tensored_with_identity(self):
        outer = elliptical_layout(6, 40.8, 28.0)
        mid = elliptical_layout(6, 20.4, 14.0)
        layout = fan_in_layout(outer, mid, paper_ellipse(), 8.5, 1.0)
        model = CouplingModel()
        chip = build_polarized_chip(layout, model, model, z=1.0, steps=96)
        fan = propagate_z_dependent(layout, model, 0.0, 9.5, 96)
        total = unitary(build_coupling_matrix(layout, model), 1.0) @ fan
        np.testing.assert_allclose(chip.matrix, np.kron(total, np.eye(2)), atol=1e-12)

    def test_birefringence_acts_along_the_fan_in(self):
        entry = linear_layout(1, 10.0)
        layout = fan_in_layout(entry, entry, entry, 2.0, 0.5)
        model = CouplingModel()
        chip = build_polarized_chip(layout, model, model, birefringence=[2.0], z=1.0, steps=5)
        relative = chip.matrix[0, 0] / chip.matrix[1, 1]
        assert abs(relative - np.exp(2.0j * (1.0 + 2.5))) < 1e-12

    def test_memory_of_a_24_core_fan_in_chip_is_bounded(self):
        # batches of 32 segments of the 48 x 48 Jones generator traced 6.7 MB
        # here; batches sized by matrix elements (4 segments) about 1.1 MB
        cfg = parse_run_config(scaled_fanin_walk(4, steps=256))
        model = cfg.coupling
        peak = traced_peak(lambda: build_polarized_chip(cfg.layout, model, model, steps=cfg.steps))
        assert peak <= 3_000_000

    def test_parameter_validation(self):
        layout = paper_ellipse()
        model = CouplingModel()
        with pytest.raises(ValueError):
            build_polarized_chip(layout, model, model, birefringence=[1.0], z=1.0)
        with pytest.raises(ValueError):
            build_polarized_chip(layout, model, model, loss_h=np.full(6, 1.2), z=1.0)
        with pytest.raises(ValueError):
            build_polarized_chip(layout, model, model, loss_v=np.zeros(6), z=1.0)


class TestSimulateTomography:
    def test_identity_chip_horizontal_input(self):
        record = simulate_tomography(identity_chip())
        h = STATE_ORDER.index("H")
        v = STATE_ORDER.index("V")
        for port in range(6):
            assert record.intensities[port, h, port, h] == pytest.approx(1.0, abs=1e-12)
            assert record.intensities[port, h, port, v] == pytest.approx(0.0, abs=1e-12)
            others = np.delete(record.intensities[port, h], port, axis=0)
            np.testing.assert_allclose(others, 0.0, atol=1e-12)

    def test_record_dimensions(self):
        record = simulate_tomography(identity_chip())
        assert record.intensities.shape == (6, 6, 6, 6)
        assert record.intensities.size == 1296

    def test_lossless_chip_conserves_energy(self):
        chip = random_chip(np.random.default_rng(13), lossless=True)
        record = simulate_tomography(chip)
        h = STATE_ORDER.index("H")
        v = STATE_ORDER.index("V")
        totals = record.intensities[:, :, :, (h, v)].sum(axis=(2, 3))
        np.testing.assert_allclose(totals, np.ones((6, 6)), atol=1e-10)

    def test_noise_reproducible_with_seeded_rng(self):
        chip = random_chip(np.random.default_rng(17))
        r1 = simulate_tomography(chip, 0.01, random.Random(99))
        r2 = simulate_tomography(chip, 0.01, random.Random(99))
        np.testing.assert_array_equal(r1.intensities, r2.intensities)
        r0 = simulate_tomography(chip)
        assert np.max(np.abs(r1.intensities - r0.intensities)) > 1e-4

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            simulate_tomography(identity_chip(), -0.1)

    def test_overflowing_noise_rejected_without_warning(self):
        # lit entries overflow to +-inf and dark ones to 0 * inf = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"photometric_noise 1e\+308 overflows"):
                simulate_tomography(identity_chip(), 1e308, random.Random(0))


class TestPhotometricNoise:
    """Multiplicative noise: MT19937 words, 53-bit uniforms, Box-Muller pairs."""

    @pytest.mark.parametrize("chunk", [2, 6, 100, 1 << 16])
    def test_values_do_not_depend_on_chunk_size(self, monkeypatch, chunk):
        chip = random_chip(np.random.default_rng(7), n_ports=3)
        expected = simulate_tomography(chip, 0.05, random.Random(11)).intensities
        monkeypatch.setattr(polarization, "_NOISE_CHUNK", chunk)
        got = simulate_tomography(chip, 0.05, random.Random(11)).intensities
        assert got.tobytes() == expected.tobytes()

    def test_odd_count_is_a_prefix_of_the_even_one(self):
        odd = polarization.standard_normal(random.Random(3), 7)
        even = polarization.standard_normal(random.Random(3), 8)
        assert odd.tobytes() == even[:7].tobytes()

    def test_draws_are_standard_normal(self):
        draws = polarization.standard_normal(random.Random(2026), 10**5)
        assert abs(np.mean(draws)) < 0.01
        assert abs(np.std(draws) - 1.0) < 0.01
        # Kolmogorov-Smirnov distance to the normal CDF, and no pairing between
        # the two normals of each Box-Muller pair
        ordered = np.sort(draws)
        cdf = 0.5 * (1.0 + np.array([math.erf(x / math.sqrt(2.0)) for x in ordered]))
        ranks = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(cdf - ranks)) < 0.01
        assert abs(np.corrcoef(draws[0::2], draws[1::2])[0, 1]) < 0.02

    def test_record_carries_the_requested_spread(self):
        # the noise must land in the returned record, not in a copy of it
        chip = random_chip(np.random.default_rng(19), n_ports=8)
        exact = simulate_tomography(chip).intensities
        noisy = simulate_tomography(chip, 0.02, random.Random(1)).intensities
        live = exact > 1e-9 * exact.max()
        ratio = noisy[live] / exact[live] - 1.0
        assert 0.9 * 0.02 <= np.std(ratio) <= 1.1 * 0.02

    def test_dark_entries_stay_zero(self):
        exact = simulate_tomography(identity_chip()).intensities
        noisy = simulate_tomography(identity_chip(), 0.05, random.Random(4)).intensities
        dark = exact == 0.0
        assert dark.any() and np.all(noisy[dark] == 0.0)
        assert np.all(noisy[~dark] != exact[~dark])

    def test_unseeded_rng_runs(self):
        chip = identity_chip(2)
        exact = simulate_tomography(chip).intensities
        first = simulate_tomography(chip, 0.01).intensities
        second = simulate_tomography(chip, 0.01).intensities
        assert np.all(first >= 0) and first.shape == exact.shape
        assert not np.array_equal(first, exact) and not np.array_equal(first, second)


class TestReconstructMueller:
    def test_identity_chip_round_trip(self):
        matrices, residuals = reconstruct_mueller(simulate_tomography(identity_chip()))
        assert matrices.shape == (6, 6, 4, 4) and residuals.shape == (6, 6)
        for i in range(6):
            for j in range(6):
                expected = np.eye(4) if i == j else np.zeros((4, 4))
                np.testing.assert_allclose(matrices[i, j], expected, atol=1e-8)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-10)

    def test_canonical_states_reproduce_their_stokes_vectors(self):
        # projecting each canonical Jones state on the six analyzers and
        # reconstructing must map its canonical Stokes vector to itself
        matrices, _ = reconstruct_mueller(simulate_tomography(identity_chip(1)))
        for name in STATE_ORDER:
            np.testing.assert_allclose(
                matrices[0, 0] @ STOKES_STATES[name], STOKES_STATES[name], atol=1e-15
            )

    def test_random_chip_round_trip_matches_jones_derived(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            chip = random_chip(rng)
            matrices, _ = reconstruct_mueller(simulate_tomography(chip))
            for i in range(6):
                for j in range(6):
                    np.testing.assert_allclose(
                        matrices[i, j],
                        jones_to_mueller(port_block(chip, i, j)),
                        atol=1e-8,
                    )

    def test_noisy_record_reports_nonzero_residual(self):
        chip = random_chip(np.random.default_rng(23))
        _, residuals = reconstruct_mueller(
            simulate_tomography(chip, 0.01, random.Random(1))
        )
        assert np.max(residuals) > 1e-6

    def test_residuals_indexed_by_output_then_input_port(self):
        record = simulate_tomography(random_chip(np.random.default_rng(37))).intensities
        in_port, out_port = 1, 4
        record[in_port, 0, out_port, :] *= 1.5  # H input no longer fits this pair's Mueller map
        _, residuals = reconstruct_mueller(TomographyRecord(record))
        assert residuals[out_port, in_port] > 0
        others = np.delete(residuals.ravel(), out_port * 6 + in_port)
        assert np.max(others) <= 1e-12

    def test_noise_error_statistics_bounded(self):
        chip = random_chip(np.random.default_rng(29))
        noise = random.Random(29)
        truth = np.stack(
            [
                np.stack([jones_to_mueller(port_block(chip, i, j)) for j in range(6)])
                for i in range(6)
            ]
        )
        errors = []
        for _ in range(100):
            matrices, _ = reconstruct_mueller(simulate_tomography(chip, 0.01, noise))
            errors.append(np.abs(matrices - truth))
        errors = np.asarray(errors)
        assert np.median(errors) < 0.02
        assert np.max(np.median(errors, axis=0)) < 0.05

    def test_reconstructed_outputs_stay_physical(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            matrices, _ = reconstruct_mueller(simulate_tomography(random_chip(rng)))
            for i in range(6):
                for j in range(6):
                    for state in STATE_ORDER:
                        out = matrices[i, j] @ STOKES_STATES[state]
                        assert out[0] >= -1e-9
                        if out[0] > 1e-12:
                            assert np.linalg.norm(out[1:]) <= out[0] * (1 + 1e-9)


def _ellipse_chip(factor: int):
    """The Jones chip of configs/ellipse_walk.json scaled to 6 * factor ports."""
    return cli._build_chip(parse_run_config(scaled_ellipse_walk(factor)))


def _lossy_jones_chip(rng: np.random.Generator, n: int) -> JonesTransfer:
    """A random passive 2n x 2n Jones transfer with unequal mode losses."""
    return JonesTransfer(0.95 * random_unitary(rng, 2 * n) * rng.uniform(0.3, 1.0, 2 * n))


class TestOneInputPortAtATime:
    """Simulation and reconstruction a port at a time give the bits of the
    all-ports simulation and of one least-squares call on the whole record."""

    @staticmethod
    def assert_bit_equal(chip: JonesTransfer, noise: float):
        record = simulate_tomography(chip, noise, random.Random(8))
        expected = simulate_tomography_all_ports(chip, noise, random.Random(8))
        assert np.array_equal(record.intensities, expected.intensities)
        matrices, residuals = reconstruct_mueller(record)
        expected_matrices, expected_residuals = reconstruct_mueller_one_shot(record)
        assert np.array_equal(matrices, expected_matrices)
        assert np.array_equal(residuals, expected_residuals)

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_chips_bit_equal_to_reference(self, n, noise):
        self.assert_bit_equal(_lossy_jones_chip(np.random.default_rng(n), n), noise)

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("factor", [1, 4, 8])
    def test_scaled_ellipses_bit_equal_to_reference(self, factor, noise):
        self.assert_bit_equal(_ellipse_chip(factor), noise)

    @pytest.mark.parametrize("n", [3, 6, 24])
    def test_random_lossy_chips_bit_equal_to_reference(self, n):
        rng = np.random.default_rng(100 + n)
        self.assert_bit_equal(_lossy_jones_chip(rng, n), 0.02)
        self.assert_bit_equal(random_chip(rng, n), 0.02)

    def test_48_port_reconstruction_memory_is_bounded(self):
        # one least-squares call on the whole record traced 1.9 MB here, a
        # port at a time about 0.4 MB
        record = simulate_tomography(_ellipse_chip(8), 0.01, random.Random(1))
        assert traced_peak(lambda: reconstruct_mueller(record)) <= 600_000

    def test_48_port_simulation_memory_is_bounded(self):
        # the fields of every input port at once traced 1.4 MB here, a port
        # at a time about 1.0 MB (0.66 MB of it the record)
        chip = _ellipse_chip(8)
        assert traced_peak(lambda: simulate_tomography(chip, 0.01, random.Random(1))) <= 1_200_000


class TestPoincareEllipsoid:
    def test_identity_is_unit_sphere(self):
        e = poincare_ellipsoid(np.eye(4))
        np.testing.assert_allclose(e.center, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(e.semi_axes, np.ones(3), atol=1e-14)
        assert not e.degenerate
        assert e.average_power == pytest.approx(1.0, abs=1e-14)

    def test_polarizer_collapses_to_s1_axis(self):
        e = poincare_ellipsoid(jones_to_mueller(np.diag([1.0, 0.0])))
        np.testing.assert_allclose(e.center, [0.5, 0, 0], atol=1e-14)
        np.testing.assert_allclose(e.semi_axes, [0.5, 0, 0], atol=1e-14)
        np.testing.assert_allclose(e.markers["H"], [1.0, 0, 0], atol=1e-14)

    def test_uniform_depolarizer_shrinks_sphere(self):
        e = poincare_ellipsoid(np.diag([1.0, 0.5, 0.5, 0.5]))
        np.testing.assert_allclose(e.center, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(e.semi_axes, np.full(3, 0.5), atol=1e-14)

    def test_zero_transmission_flags_degenerate(self):
        e = poincare_ellipsoid(np.zeros((4, 4)))
        assert e.degenerate
        np.testing.assert_array_equal(e.center, np.zeros(3))

    def test_orientation_is_proper_rotation(self):
        rng = np.random.default_rng(37)
        chip = random_chip(rng)
        matrices, _ = reconstruct_mueller(simulate_tomography(chip))
        e = poincare_ellipsoid(matrices[3, 1])
        np.testing.assert_allclose(e.orientation @ e.orientation.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(e.orientation) == pytest.approx(1.0, abs=1e-12)

    def test_lossless_pair_semi_axes_bounded_by_transmission(self):
        chip = random_chip(np.random.default_rng(41), lossless=True)
        matrices, _ = reconstruct_mueller(simulate_tomography(chip))
        for i in range(6):
            for j in range(6):
                e = poincare_ellipsoid(matrices[i, j])
                transmission = matrices[i, j][0, 0]
                assert np.max(e.semi_axes) <= transmission + 1e-9

    def test_nonfinite_rejected(self):
        bad = np.eye(4)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            poincare_ellipsoid(bad)
        stack = np.stack([np.eye(4), bad])
        with pytest.raises(ValueError):
            poincare_ellipsoid(stack)

    def test_stack_bit_equal_to_per_matrix_reference(self):
        rng = np.random.default_rng(43)
        noisy = simulate_tomography(random_chip(rng), 0.01, random.Random(43))
        reconstructed, _ = reconstruct_mueller(noisy)
        matrices = np.concatenate(
            [reconstructed.reshape(-1, 4, 4), rng.standard_normal((264, 4, 4))]
        )
        matrices[0] = 0.0  # degenerate
        matrices[1] = np.diag([1.0, 1.0, 1.0, -1.0])  # reflection: det < 0
        matrices[2] = np.diag([1.0, 0.0, 0.0, 0.0])  # zero-norm markers
        stack = matrices.reshape(15, 20, 4, 4)
        batched = poincare_ellipsoid(stack)
        assert batched.average_power.shape == batched.degenerate.shape == (15, 20)
        for index in np.ndindex(15, 20):
            center, axes, rotation, markers, power, degenerate = poincare_ellipsoid_reference(
                stack[index]
            )
            np.testing.assert_array_equal(batched.center[index], center)
            np.testing.assert_array_equal(batched.semi_axes[index], axes)
            np.testing.assert_array_equal(batched.orientation[index], rotation)
            assert sorted(batched.markers) == sorted(markers)
            for state, marker in markers.items():
                np.testing.assert_array_equal(batched.markers[state][index], marker)
            assert batched.average_power[index] == power
            assert batched.degenerate[index] == degenerate
            single = poincare_ellipsoid(stack[index])
            assert single.average_power == power and single.degenerate is degenerate
        assert batched.degenerate.ravel()[:4].tolist() == [True, False, True, False]
        np.testing.assert_array_equal(batched.markers["D"].reshape(-1, 3)[2], np.zeros(3))
        assert np.linalg.det(batched.orientation[0, 1]) == pytest.approx(1.0)


class TestExtractHSubspace:
    def test_identity_chip(self):
        matrices, _ = reconstruct_mueller(simulate_tomography(identity_chip()))
        np.testing.assert_allclose(extract_h_subspace(matrices), np.eye(6), atol=1e-8)

    def test_scalar_chip_reproduces_single_photon_probabilities(self):
        chip, u = scalar_chip()
        matrices, _ = reconstruct_mueller(simulate_tomography(chip))
        np.testing.assert_allclose(extract_h_subspace(matrices), np.abs(u) ** 2, atol=1e-8)

    def test_strong_polarization_contrast_scenario(self):
        # constructed two-guide chip with strongly polarization-dependent
        # coupling: the cross port receives ~0.79 of the H power but only
        # ~0.11 of the V power
        layout = linear_layout(2, 10.0)
        chip = build_polarized_chip(
            layout,
            CouplingModel(c0_per_mm=1.0),
            CouplingModel(c0_per_mm=0.3),
            z=1.1,
        )
        matrices, _ = reconstruct_mueller(simulate_tomography(chip))
        h_fraction = extract_h_subspace(matrices)
        v_in = STOKES_STATES["V"]
        v_out = matrices @ v_in
        v_fraction = 0.5 * (v_out[..., 0] - v_out[..., 1])
        assert h_fraction[1, 0] == pytest.approx(0.794, abs=0.02)
        assert v_fraction[1, 0] == pytest.approx(0.105, abs=0.02)
        assert h_fraction[1, 0] / v_fraction[1, 0] > 5.0


class TestPdlReport:
    def test_polarization_independent_chip_reports_zero(self):
        chip, _ = scalar_chip()
        np.testing.assert_allclose(
            pdl_report(simulate_tomography(chip)), np.zeros(6), atol=1e-10
        )

    def test_constructed_38_percent_excess_loss(self):
        layout = paper_ellipse()
        model = CouplingModel(c0_per_mm=0.0)
        loss_v = np.ones(6)
        loss_v[5] = np.sqrt(1.0 - 0.38)
        chip = build_polarized_chip(layout, model, model, loss_v=loss_v, z=1.0)
        report = pdl_report(simulate_tomography(chip))
        assert report[5] == pytest.approx(0.38, abs=1e-6)
        np.testing.assert_allclose(np.delete(report, 5), np.zeros(5), atol=1e-10)

    def test_noisy_record_stays_within_bounds(self):
        layout = paper_ellipse()
        model = CouplingModel(c0_per_mm=0.0)
        loss_v = np.ones(6)
        loss_v[5] = np.sqrt(1.0 - 0.38)
        chip = build_polarized_chip(layout, model, model, loss_v=loss_v, z=1.0)
        rng = random.Random(43)
        reports = [
            pdl_report(simulate_tomography(chip, 0.01, rng))[5] for _ in range(100)
        ]
        assert abs(np.mean(reports) - 0.38) < 0.01
        assert np.max(np.abs(np.asarray(reports) - 0.38)) < 0.05

    def test_zero_h_power_rejected(self):
        record = TomographyRecord(np.zeros((2, 6, 2, 6)))
        with pytest.raises(ValueError):
            pdl_report(record)


class TestScalarChipConsistency:
    def test_two_photon_correlations_match_scalar_model(self):
        chip, u = scalar_chip()
        h_block = chip.matrix[0::2, 0::2]
        gamma_vec = gamma_indistinguishable(h_block, 0, 1)
        gamma_scalar = gamma_indistinguishable(u, 0, 1)
        np.testing.assert_allclose(gamma_vec, gamma_scalar, atol=1e-10)


class TestTomographyRecordShape:
    @pytest.mark.parametrize("shape", [(2, 6, 2), (2, 6, 2, 5), (2, 4, 2, 6), (1, 2, 6, 2, 6)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^record must have shape \(N, 6, N, 6\)$"):
            TomographyRecord(np.ones(shape))

    def test_unequal_port_counts_rejected(self):
        with pytest.raises(ValueError, match="^record must cover equal input and output port counts$"):
            TomographyRecord(np.ones((2, 6, 3, 6)))

import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from wgwalk.config import parse_run_config
from wgwalk.geometry import (
    WaveguideLayout,
    elliptical_layout,
    fan_in_layout,
    linear_layout,
    pairwise_distances,
    permuted_layout,
)

from helpers import PAPER_SEMI_MAJOR_UM, PAPER_SEMI_MINOR_UM, paper_ellipse, raised_sine_path


class TestLinearLayout:
    def test_paper_input_spacing(self):
        layout = linear_layout(6, 127.0)
        np.testing.assert_array_equal(layout.positions[:, 0], [0, 127, 254, 381, 508, 635])
        np.testing.assert_array_equal(layout.positions[:, 1], np.zeros(6))

    def test_single_guide_at_origin(self):
        layout = linear_layout(1, 10.0)
        np.testing.assert_array_equal(layout.positions, [[0.0, 0.0]])

    def test_arithmetic_progression(self):
        layout = linear_layout(3, 10.0)
        np.testing.assert_array_equal(layout.positions, [[0, 0], [10, 0], [20, 0]])

    @pytest.mark.parametrize("n,pitch", [(0, 10.0), (3, 0.0), (3, -1.0)])
    def test_invalid_arguments(self, n, pitch):
        with pytest.raises(ValueError):
            linear_layout(n, pitch)


class TestEllipticalLayout:
    def test_paper_ellipse_first_point(self):
        layout = paper_ellipse()
        assert layout.n == 6
        np.testing.assert_allclose(layout.positions[0], [10.2, 0.0], atol=1e-14)

    def test_square_in_circle(self):
        r = 3.0
        layout = elliptical_layout(4, r, r, 0.0)
        expected = np.array([[r, 0], [0, r], [-r, 0], [0, -r]])
        np.testing.assert_allclose(layout.positions, expected, atol=1e-14)

    def test_angle_offset_rotates_index_zero(self):
        layout = elliptical_layout(6, 10.2, 7.0, math.pi / 2)
        np.testing.assert_allclose(layout.positions[0], [0.0, 7.0], atol=1e-14)

    def test_neighbor_distance_matches_coordinate_oracle(self):
        # independent evaluation of the parametrization with math, point by point
        layout = paper_ellipse()
        d = pairwise_distances(layout)
        for k in range(6):
            q = (k + 1) % 6
            tk = 2 * math.pi * k / 6
            tq = 2 * math.pi * q / 6
            expected = math.hypot(
                PAPER_SEMI_MAJOR_UM * (math.cos(tk) - math.cos(tq)),
                PAPER_SEMI_MINOR_UM * (math.sin(tk) - math.sin(tq)),
            )
            assert d[k, q] == pytest.approx(expected, abs=1e-12)
        assert d[0, 1] == pytest.approx(7.922120928135342, abs=1e-12)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            elliptical_layout(6, -10.2, 7.0)
        with pytest.raises(ValueError):
            elliptical_layout(6, 10.2, 0.0)


class TestRaisedSinePath:
    def test_endpoints(self):
        path = raised_sine_path([0.0, 0.0], [3.0, -4.0], 2.0)
        np.testing.assert_allclose(path(0.0), [0.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(path(2.0), [3.0, -4.0], atol=1e-13)

    def test_midpoint_is_chord_midpoint(self):
        path = raised_sine_path([1.0, 2.0], [5.0, -2.0], 4.0)
        np.testing.assert_allclose(path(2.0), [3.0, 0.0], atol=1e-13)

    def test_zero_slope_at_endpoints(self):
        start, end, length = np.array([0.0, 0.0]), np.array([3.0, -4.0]), 2.0
        path = raised_sine_path(start, end, length)
        h = 1e-4
        slope0 = np.linalg.norm(path(h) - path(0.0)) / h
        slope1 = np.linalg.norm(path(length) - path(length - h)) / h
        assert slope0 < 1e-6
        assert slope1 < 1e-6

    def test_chord_deviation_bound(self):
        start, end, length = np.array([1.0, 1.0]), np.array([7.0, -3.0]), 5.0
        path = raised_sine_path(start, end, length)
        bound = np.linalg.norm(end - start) / (2 * math.pi)
        for z in np.linspace(0, length, 101):
            chord = start + (end - start) * z / length
            assert np.linalg.norm(path(z) - chord) <= bound + 1e-12

    def test_invalid_length_and_domain(self):
        with pytest.raises(ValueError):
            raised_sine_path([0, 0], [1, 1], 0.0)
        path = raised_sine_path([0, 0], [1, 1], 1.0)
        with pytest.raises(ValueError):
            path(1.5)


def _paper_front_end():
    entry = linear_layout(6, 127.0)
    mid = elliptical_layout(6, 2 * PAPER_SEMI_MAJOR_UM, 2 * PAPER_SEMI_MINOR_UM)
    return fan_in_layout(entry, mid, paper_ellipse(), 8.5, 1.0)


class TestFanInLayout:
    def test_paper_front_end_reaches_final_ellipse(self):
        layout = _paper_front_end()
        assert layout.z_span == (0.0, 9.5)
        np.testing.assert_allclose(
            layout.positions_at(9.5), paper_ellipse().positions, atol=1e-10
        )
        np.testing.assert_allclose(
            layout.positions_at(0.0), linear_layout(6, 127.0).positions, atol=1e-10
        )

    def test_stage_boundary_continuity(self):
        layout = _paper_front_end()
        mid = elliptical_layout(6, 2 * PAPER_SEMI_MAJOR_UM, 2 * PAPER_SEMI_MINOR_UM)
        np.testing.assert_allclose(layout.positions_at(8.5), mid.positions, atol=1e-10)
        eps = 1e-9
        np.testing.assert_allclose(
            layout.positions_at(8.5 + eps), layout.positions_at(8.5 - eps), atol=1e-6
        )

    def test_identical_layouts_give_constant_profile(self):
        same = paper_ellipse()
        layout = fan_in_layout(same, same, same, 1.0, 1.0)
        for z in np.linspace(0.0, 2.0, 17):
            np.testing.assert_array_equal(layout.positions_at(z), same.positions)

    def test_profile_continuity_under_refinement(self):
        layout = _paper_front_end()

        def max_step(samples):
            z = np.linspace(0.0, 9.5, samples)
            pts = np.stack([layout.positions_at(v) for v in z])
            return np.max(np.linalg.norm(np.diff(pts, axis=0), axis=-1))

        coarse = max_step(101)
        fine = max_step(201)
        assert fine < 0.75 * coarse

    def test_point_count_preserved_at_every_z(self):
        layout = _paper_front_end()
        for z in np.linspace(0.0, 9.5, 13):
            assert layout.positions_at(z).shape == (6, 2)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            fan_in_layout(linear_layout(5, 127.0), paper_ellipse(), paper_ellipse(), 8.5, 1.0)

    def test_z_outside_domain_rejected(self):
        layout = _paper_front_end()
        with pytest.raises(ValueError):
            layout.positions_at(9.6)
        with pytest.raises(ValueError):
            pairwise_distances(layout, z=-0.1)

    def test_static_layout_rejects_z_queries(self):
        with pytest.raises(ValueError):
            pairwise_distances(paper_ellipse(), z=1.0)


# z samples that include both ends of the span and the stage boundary
_Z_SAMPLES = np.concatenate([np.linspace(0.0, 9.5, 77), [8.5, 8.5 - 1e-12, 8.5 + 1e-12]])


class TestStackedCrossSections:
    @pytest.mark.parametrize("order", [None, [0, 1, 2, 5, 4, 3]])
    def test_stacked_positions_bit_equal_to_per_z_calls(self, order):
        layout = _paper_front_end()
        if order is not None:
            layout = permuted_layout(layout, order)
        stacked = layout.positions_at(_Z_SAMPLES)
        assert stacked.shape == (_Z_SAMPLES.size, 6, 2)
        per_z = np.stack([layout.positions_at(float(z)) for z in _Z_SAMPLES])
        assert np.array_equal(stacked, per_z)

    def test_stacked_distances_bit_equal_to_per_z_calls(self):
        layout = permuted_layout(_paper_front_end(), [3, 1, 2, 0, 5, 4])
        per_z = np.stack([pairwise_distances(layout, float(z)) for z in _Z_SAMPLES])
        assert np.array_equal(pairwise_distances(layout, _Z_SAMPLES), per_z)

    def test_out_of_domain_z_in_array_is_named(self):
        layout = _paper_front_end()
        with pytest.raises(ValueError, match=r"z = 12\.25 mm outside profile domain"):
            layout.positions_at(np.array([0.5, 12.25, 9.0]))
        with pytest.raises(ValueError, match=r"z = -0\.5 mm"):
            pairwise_distances(layout, np.array([[1.0, 2.0], [-0.5, 3.0]]))


class TestPairwiseDistances:
    def test_linear_three_guides(self):
        d = pairwise_distances(linear_layout(3, 10.0))
        np.testing.assert_array_equal(d, [[0, 10, 20], [10, 0, 10], [20, 10, 0]])

    def test_exact_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(3)
        layout = WaveguideLayout(rng.uniform(-50, 50, size=(7, 2)))
        d = pairwise_distances(layout)
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diagonal(d), np.zeros(7))
        off = d[~np.eye(7, dtype=bool)]
        assert np.all(off > 0)

    def test_mirror_symmetric_layout_permutation_invariance(self):
        # positions built with bitwise-mirrored coordinates, so the
        # distance matrix is exactly invariant under the pairing
        layout = WaveguideLayout(
            [[5.0, 0.0], [1.7, 2.3], [-0.4, 0.9], [-0.4, -0.9], [1.7, -2.3]]
        )
        mirror = [0, 4, 3, 2, 1]
        d = pairwise_distances(layout)
        np.testing.assert_array_equal(d, d[np.ix_(mirror, mirror)])


class TestPermutedLayout:
    def test_positions_follow_order(self):
        layout = linear_layout(3, 10.0)
        relabeled = permuted_layout(layout, [2, 0, 1])
        np.testing.assert_array_equal(relabeled.positions, [[20, 0], [0, 0], [10, 0]])

    def test_profile_is_permuted_too(self):
        layout = _paper_front_end()
        relabeled = permuted_layout(layout, [5, 4, 3, 2, 1, 0])
        np.testing.assert_array_equal(
            relabeled.positions_at(4.0), layout.positions_at(4.0)[::-1]
        )

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            permuted_layout(linear_layout(3, 10.0), [0, 0, 1])


class TestPickledFanIn:
    @pytest.mark.parametrize("index_order", [None, [1, 2, 3, 6, 5, 4]])
    def test_fan_in_run_config_round_trips(self, index_order):
        path = Path(__file__).resolve().parent.parent / "configs" / "fanin_walk.json"
        raw = json.loads(path.read_text())
        if index_order is not None:
            raw["layout"]["index_order"] = index_order
        cfg = parse_run_config(raw)
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy.layout.z_span == cfg.layout.z_span == (0.0, 9.5)
        z = np.linspace(0.0, 9.5, 1024)
        assert np.array_equal(copy.layout.positions_at(z), cfg.layout.positions_at(z))


class TestLayoutValidation:
    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ValueError):
            WaveguideLayout([[0.0, np.nan]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WaveguideLayout(np.zeros((0, 2)))


class TestRefusedArguments:
    def test_ellipse_of_no_cores(self):
        with pytest.raises(ValueError, match="^waveguide count must be at least 1$"):
            elliptical_layout(0, 10.2, 7.0)

    @pytest.mark.parametrize("stage1, stage2", [(0.0, 1.0), (8.5, 0.0), (-1.0, 1.0)])
    def test_fan_in_stage_of_no_length(self, stage1, stage2):
        ellipse = paper_ellipse()
        with pytest.raises(ValueError, match="^stage lengths must be positive$"):
            fan_in_layout(linear_layout(6, 127.0), ellipse, ellipse, stage1, stage2)

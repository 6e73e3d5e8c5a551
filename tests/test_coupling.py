import math
import warnings

import numpy as np
import pytest

from wgwalk.coupling import CouplingModel, build_coupling_matrix, coupling_constant
from wgwalk.geometry import (
    WaveguideLayout,
    elliptical_layout,
    fan_in_layout,
    linear_layout,
    pairwise_distances,
    permuted_layout,
)

from helpers import paper_ellipse

MODEL = CouplingModel(c0_per_mm=1.0, kappa_per_um=0.5, r0_um=10.0, beta_per_mm=0.0)


class TestCouplingConstant:
    def test_reference_separation_gives_c0(self):
        assert coupling_constant(MODEL.r0_um, MODEL) == MODEL.c0_per_mm

    def test_half_rate_at_log2_distance(self):
        r_half = MODEL.r0_um + math.log(2) / MODEL.kappa_per_um
        assert coupling_constant(r_half, MODEL) == pytest.approx(0.5, rel=1e-14)

    def test_matches_direct_formula_and_decreases(self):
        grid = np.linspace(2.0, 40.0, 77)
        rates = coupling_constant(grid, MODEL)
        for r, rate in zip(grid, rates):
            assert rate == pytest.approx(
                MODEL.c0_per_mm * math.exp(-MODEL.kappa_per_um * (r - MODEL.r0_um)),
                rel=1e-14,
            )
        assert np.all(np.diff(rates) < 0)

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ValueError):
            coupling_constant(0.0, MODEL)
        with pytest.raises(ValueError):
            coupling_constant(-3.0, MODEL)

    def test_overflowing_law_rejected_without_warning(self):
        model = CouplingModel(kappa_per_um=2.0, r0_um=400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"coupling law .* overflows at r = 5\.0 um"):
                coupling_constant([5.0, 390.0], model)
            assert coupling_constant(390.0, model) == pytest.approx(math.exp(20.0), rel=1e-14)


class TestCouplingModelValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CouplingModel(c0_per_mm=-1.0)
        with pytest.raises(ValueError):
            CouplingModel(kappa_per_um=0.0)
        with pytest.raises(ValueError):
            CouplingModel(r0_um=-2.0)


class TestBuildCouplingMatrix:
    def test_single_guide(self):
        model = CouplingModel(beta_per_mm=2.5)
        c = build_coupling_matrix(linear_layout(1, 10.0), model)
        np.testing.assert_array_equal(c, [[2.5]])

    def test_two_guides_at_reference_separation(self):
        model = CouplingModel(beta_per_mm=1.5)
        c = build_coupling_matrix(linear_layout(2, model.r0_um), model)
        np.testing.assert_allclose(c, [[1.5, 1.0], [1.0, 1.5]], atol=1e-15)

    def test_paper_ellipse_matches_composed_oracles(self):
        # compose the two independent oracles: coordinate-geometry distances
        # fed through the scalar exponential law, element by element
        layout = paper_ellipse()
        c = build_coupling_matrix(layout, MODEL)
        for i in range(6):
            for j in range(6):
                if i == j:
                    assert c[i, j] == MODEL.beta_per_mm
                    continue
                ti = 2 * math.pi * i / 6
                tj = 2 * math.pi * j / 6
                r = math.hypot(
                    10.2 * (math.cos(ti) - math.cos(tj)),
                    7.0 * (math.sin(ti) - math.sin(tj)),
                )
                expected = math.exp(-0.5 * (r - 10.0))
                assert c[i, j] == pytest.approx(expected, rel=1e-12)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(11)
        layout = WaveguideLayout(rng.uniform(-30, 30, size=(6, 2)))
        c = build_coupling_matrix(layout, MODEL)
        np.testing.assert_array_equal(c, c.T)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-20, 20, size=(5, 2))
        angle = 0.8137
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        moved = pts @ rot.T + np.array([13.0, -4.0])
        c0 = build_coupling_matrix(WaveguideLayout(pts), MODEL)
        c1 = build_coupling_matrix(WaveguideLayout(moved), MODEL)
        np.testing.assert_allclose(c0, c1, atol=1e-12)

    def test_mirror_symmetric_layout_permutation_invariance(self):
        layout = WaveguideLayout(
            [[5.0, 0.0], [1.7, 2.3], [-0.4, 0.9], [-0.4, -0.9], [1.7, -2.3]]
        )
        mirror = [0, 4, 3, 2, 1]
        c = build_coupling_matrix(layout, MODEL)
        np.testing.assert_array_equal(c, c[np.ix_(mirror, mirror)])

    def test_neighbor_cutoff_zeroes_distant_pairs(self):
        layout = linear_layout(4, 10.0)
        c = build_coupling_matrix(layout, MODEL, neighbor_cutoff=15.0)
        d = pairwise_distances(layout)
        assert np.all(c[(d > 15.0)] == 0.0)
        assert c[0, 1] > 0 and c[2, 3] > 0
        np.testing.assert_array_equal(c, c.T)

    def test_z_dependent_cross_section(self):
        from wgwalk.geometry import fan_in_layout

        entry = linear_layout(3, 100.0)
        final = linear_layout(3, 12.0)
        layout = fan_in_layout(entry, linear_layout(3, 40.0), final, 4.0, 1.0)
        c_start = build_coupling_matrix(layout, MODEL, z=0.0)
        c_end = build_coupling_matrix(layout, MODEL, z=5.0)
        assert c_start[0, 1] < c_end[0, 1]
        np.testing.assert_allclose(
            c_end, build_coupling_matrix(final, MODEL), atol=1e-12
        )

    @pytest.mark.parametrize("cutoff", [None, 25.0])
    def test_stacked_z_bit_equal_to_per_z_calls(self, cutoff):
        outer = elliptical_layout(6, 40.8, 28.0)
        mid = elliptical_layout(6, 20.4, 14.0)
        layout = permuted_layout(
            fan_in_layout(outer, mid, paper_ellipse(), 8.5, 1.0), [0, 1, 2, 5, 4, 3]
        )
        model = CouplingModel(beta_per_mm=0.3)
        z = np.concatenate([np.linspace(0.0, 9.5, 41), [8.5]])
        stacked = build_coupling_matrix(layout, model, z=z, neighbor_cutoff=cutoff)
        per_z = np.stack(
            [build_coupling_matrix(layout, model, z=float(v), neighbor_cutoff=cutoff) for v in z]
        )
        assert stacked.shape == (z.size, 6, 6)
        assert np.array_equal(stacked, per_z)
        with pytest.raises(ValueError, match=r"z = 9\.75 mm"):
            build_coupling_matrix(layout, model, z=np.array([1.0, 9.75]))

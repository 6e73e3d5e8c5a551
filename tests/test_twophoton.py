import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import curve_fit

from wgwalk import twophoton
from wgwalk.propagation import unitary
from wgwalk.twophoton import (
    gamma_distinguishable,
    gamma_indistinguishable,
    hom_scan,
    similarity,
    visibility,
)

from helpers import fock_oracle, random_unitary


def splitter_5050() -> np.ndarray:
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    return unitary(c, math.pi / 4)


def identity_propagator(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def all_input_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestGammaIndistinguishable:
    def test_identity_no_evolution(self):
        g = gamma_indistinguishable(identity_propagator(4), 1, 2)
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_array_equal(g, expected)

    def test_hom_bunching_on_5050(self):
        g = gamma_indistinguishable(splitter_5050(), 0, 1)
        assert abs(g[0, 1]) < 1e-12
        assert g[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert g[1, 1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_fock_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            u = random_unitary(rng, n)
            for i, j in all_input_pairs(n):
                closed = gamma_indistinguishable(u, i, j)
                brute = fock_oracle(u, i, j)
                np.testing.assert_allclose(closed, brute, atol=1e-10)

    def test_exchange_symmetry_exact(self):
        u = random_unitary(np.random.default_rng(7), 5)
        np.testing.assert_array_equal(
            gamma_indistinguishable(u, 1, 3),
            gamma_indistinguishable(u, 3, 1),
        )

    def test_equal_inputs_rejected(self):
        with pytest.raises(ValueError):
            gamma_indistinguishable(splitter_5050(), 1, 1)
        with pytest.raises(IndexError):
            gamma_indistinguishable(splitter_5050(), 0, 2)


class TestGammaDistinguishable:
    def test_identity_no_evolution(self):
        g = gamma_distinguishable(identity_propagator(3), 0, 1)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        np.testing.assert_array_equal(g, expected)

    def test_bernoulli_statistics_on_5050(self):
        g = gamma_distinguishable(splitter_5050(), 0, 1)
        assert g[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert g[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert g[1, 1] == pytest.approx(0.25, abs=1e-12)

    def test_marginals_factorize(self):
        u = random_unitary(np.random.default_rng(19), 6)
        i, j = 1, 4
        g = gamma_distinguishable(u, i, j)
        weights = 1.0 + np.eye(6)
        marginal = (weights * g).sum(axis=1)
        expected = np.abs(u[:, i]) ** 2 + np.abs(u[:, j]) ** 2
        np.testing.assert_allclose(marginal, expected, atol=1e-10)


class TestNormalization:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_upper_triangle_adds_up_to_one(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(8):
            u = random_unitary(rng, n)
            i, j = 0, n - 1
            for gamma in (
                gamma_indistinguishable(u, i, j),
                gamma_distinguishable(u, i, j),
                fock_oracle(u, i, j),
            ):
                assert np.sum(np.triu(gamma)) == pytest.approx(1.0, abs=1e-10)


class TestQuantumDifference:
    def test_identity_gives_zero(self):
        u = identity_propagator(4)
        diff = gamma_distinguishable(u, 0, 2) - gamma_indistinguishable(u, 0, 2)
        np.testing.assert_array_equal(diff, np.zeros((4, 4)))

    def test_5050_difference_is_plus_half_off_diagonal(self):
        u = splitter_5050()
        diff = gamma_distinguishable(u, 0, 1) - gamma_indistinguishable(u, 0, 1)
        assert diff[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_algebraic_interference_factor(self):
        # Gamma^d - Gamma^i = -2 Re[(U_ki U_lj)* U_kj U_li] / (1 + delta_kl)
        rng = np.random.default_rng(41)
        for _ in range(5):
            u = random_unitary(rng, 6)
            i, j = 2, 5
            diff = gamma_distinguishable(u, i, j) - gamma_indistinguishable(u, i, j)
            for k in range(6):
                for l in range(6):
                    a = u[k, i] * u[l, j]
                    b = u[k, j] * u[l, i]
                    factor = -2.0 * (np.conj(a) * b).real / (1.0 + (k == l))
                    assert diff[k, l] == pytest.approx(factor, abs=1e-12)


class TestFockOracle:
    def test_identity_exact_match(self):
        u = identity_propagator(5)
        np.testing.assert_array_equal(
            fock_oracle(u, 0, 3), gamma_indistinguishable(u, 0, 3)
        )

    def test_state_norm_is_one(self):
        u = random_unitary(np.random.default_rng(43), 6)
        assert np.sum(np.triu(fock_oracle(u, 1, 2))) == pytest.approx(1.0, abs=1e-10)


class TestHomDelayScan:
    def test_zero_delay_is_indistinguishable(self):
        u = random_unitary(np.random.default_rng(47), 4)
        scan = hom_scan(u, 0, 1, [0.0], 1.0)
        np.testing.assert_allclose(
            scan[0], gamma_indistinguishable(u, 0, 1)[np.triu_indices(4)], atol=1e-15
        )

    def test_large_delay_is_distinguishable(self):
        u = random_unitary(np.random.default_rng(53), 4)
        scan = hom_scan(u, 0, 1, [10.0], 1.0)
        np.testing.assert_allclose(
            scan[0], gamma_distinguishable(u, 0, 1)[np.triu_indices(4)], atol=1e-10
        )

    def test_convex_combination_bounds(self):
        u = random_unitary(np.random.default_rng(59), 5)
        pairs = np.triu_indices(5)
        gi = gamma_indistinguishable(u, 1, 3)[pairs]
        gd = gamma_distinguishable(u, 1, 3)[pairs]
        scan = hom_scan(u, 1, 3, np.linspace(-3, 3, 21), 0.8)
        assert scan.shape == (21, 15)
        lower = np.minimum(gi, gd) - 1e-12
        upper = np.maximum(gi, gd) + 1e-12
        assert np.all(scan >= lower[None])
        assert np.all(scan <= upper[None])

    def test_pair_scan_is_the_cube_on_the_upper_triangle_bit_for_bit(self):
        # the (D, N, N) cube that the scan once returned, gathered on k <= l
        u = random_unitary(np.random.default_rng(101), 48)
        delays, sigma = np.linspace(-4, 4, 81), 0.7
        gi, gd = gamma_indistinguishable(u, 5, 30), gamma_distinguishable(u, 5, 30)
        overlap = np.exp(-0.5 * (delays / sigma) ** 2)
        cube = gd[None, :, :] + overlap[:, None, None] * (gi - gd)[None, :, :]
        ks, ls = np.triu_indices(48)
        scan = hom_scan(u, 5, 30, delays, sigma)
        assert scan.shape == (81, 1176)
        assert np.array_equal(scan, cube[:, ks, ls])

    def test_gaussian_width_recovered_by_fit(self):
        sigma = 0.7
        delays = np.linspace(-4, 4, 161)
        counts = hom_scan(splitter_5050(), 0, 1, delays, sigma)[:, 1]

        def dip(t, baseline, depth, width):
            return baseline - depth * np.exp(-(t**2) / (2.0 * width**2))

        params, _ = curve_fit(dip, delays, counts, p0=[0.4, 0.3, 1.0])
        assert abs(params[2]) == pytest.approx(sigma, rel=0.01)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            hom_scan(splitter_5050(), 0, 1, [0.0], 0.0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="coherence_sigma"):
            hom_scan(np.eye(2, dtype=complex), 0, 1, [0.0, 1.0], float("nan"))


class TestVisibility:
    def test_full_dip_on_5050(self):
        delays = np.linspace(-6, 6, 121)
        counts = hom_scan(splitter_5050(), 0, 1, delays, 1.0)[:, 1]
        (value,) = visibility(delays, counts[:, None], 1.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_flat_scan_gives_zero(self):
        delays = np.linspace(-2, 2, 11)
        counts = np.full((11, 1), 0.3)
        np.testing.assert_array_equal(visibility(delays, counts, 1.0), [0.0])
        np.testing.assert_array_equal(visibility(delays, counts, 1.0, mode="fit"), [0.0])

    def test_digitized_dip_recovers_programmed_visibility(self):
        # stand-in for a measured data file: a noisy 38% dip on unit baseline
        rng = np.random.default_rng(61)
        delays = np.linspace(-3, 3, 61)
        counts = 1.0 - 0.38 * np.exp(-(delays**2) / 2.0)
        counts = counts * (1.0 + 0.002 * rng.standard_normal(delays.size))
        (fitted,) = visibility(delays, counts[:, None], 1.0, mode="fit")
        (extrema,) = visibility(delays, counts[:, None], 1.0)
        assert fitted == pytest.approx(0.38, abs=0.01)
        assert extrema == pytest.approx(0.38, abs=0.01)

    def test_inverted_dip_is_negative_in_fit_mode(self):
        delays = np.linspace(-3, 3, 61)
        counts = 1.0 + 0.5 * np.exp(-(delays**2) / 2.0)
        (value,) = visibility(delays, counts[:, None], 1.0, mode="fit")
        assert value == pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("points", [1, 2])
    def test_fit_rejects_an_overlap_of_fewer_than_two_distinct_values(self, points):
        # t = -4 and t = -4, 4: the overlap takes one value
        delays = np.linspace(-4, 4, points)
        counts = hom_scan(splitter_5050(), 0, 1, delays, 1.0)[:, [1]]
        with pytest.raises(ValueError, match="fewer than two distinct values"):
            visibility(delays, counts, 1.0, mode="fit")

    def test_fit_rejects_an_overlap_that_underflows_on_a_grid_without_zero_delay(self):
        # |t| = 4, 2.4, 0.8: exp(-0.8^2 / 2e-6) underflows to 0.0, as at every
        # other delay, so the overlap cannot tell the depth from the baseline
        delays = np.linspace(-4, 4, 6)
        counts = np.array([[1.0], [0.6], [0.7], [0.7], [0.6], [1.0]])
        with pytest.raises(ValueError, match=r"6 delays from -4 to 4 at coherence_sigma 0\.001"):
            visibility(delays, counts, 1e-3, mode="fit")

    @pytest.mark.parametrize(
        "delays",
        [np.linspace(-4, 4, 3), np.linspace(-4, 4, 4), np.linspace(-4, 4, 5), [0.0, 1.0, 2.0]],
    )
    def test_fit_accepts_an_overlap_of_two_distinct_values(self, delays):
        counts = hom_scan(splitter_5050(), 0, 1, delays, 1.0)[:, 1]
        (value,) = visibility(delays, counts[:, None], 1.0, mode="fit")
        assert value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_fit_rejects_a_starting_width_that_is_not_positive(self, sigma):
        delays = np.linspace(-4, 4, 81)
        counts = hom_scan(splitter_5050(), 0, 1, delays, 1.0)[:, 1]
        with pytest.raises(ValueError, match="coherence_sigma"):
            visibility(delays, counts[:, None], sigma, mode="fit")
        # the extrema never read the width
        assert visibility(delays, counts[:, None], sigma)[0] == pytest.approx(1.0, abs=1e-9)

    def test_no_coincidences_is_undefined(self):
        assert np.isnan(visibility(np.array([0.0]), np.zeros((1, 1)), 1.0)).all()
        delays = np.array([0.0, 1.0, 2.0])
        assert np.isnan(visibility(delays, np.zeros((3, 1)), 1.0, mode="fit")).all()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown visibility mode"):
            visibility([0.0], np.ones((1, 1)), 1.0, mode="nope")

    @pytest.mark.parametrize(
        "delays, counts",
        [([0.0, 1.0], np.ones((3, 1))), ([0.0, 1.0, 2.0], np.ones(3)), (0.0, np.ones((1, 1)))],
    )
    def test_counts_must_be_delays_by_pairs(self, delays, counts):
        with pytest.raises(ValueError, match="do not match"):
            visibility(delays, counts, 1.0)

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError, match="empty delay scan"):
            visibility([], np.zeros((0, 2)), 1.0)


def _curve_fit_visibility(delays, counts, width_guess):
    """Independent oracle: scipy's MINPACK fit of one dip from the same start."""

    def dip(t, baseline, depth, width):
        return baseline - depth * np.exp(-(t**2) / (2.0 * width**2))

    baseline0 = counts[np.argmax(np.abs(delays))]
    p0 = [baseline0, baseline0 - counts[np.argmin(np.abs(delays))], width_guess]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # covariance of a degenerate dip
        (baseline, depth, _), _ = curve_fit(dip, delays, counts, p0=p0, maxfev=10000)
    return depth / baseline


def _degenerate_gammas():
    """Upper-triangle (Gamma_i, Gamma_d) of a random 6-port unitary at inputs
    0 and 3, with one all-zero pair (5, 5) and one pair (1, 2) whose
    indistinguishable and distinguishable coincidences differ by one ulp."""
    u = random_unitary(np.random.default_rng(83), 6)
    ks, ls = np.triu_indices(6)
    gi = gamma_indistinguishable(u, 0, 3)[ks, ls]
    gd = gamma_distinguishable(u, 0, 3)[ks, ls]
    gi[ALL_ZERO] = gd[ALL_ZERO] = 0.0
    gd[NEAR_FLAT] = 0.2
    gi[NEAR_FLAT] = np.nextafter(0.2, 1.0)
    return gi, gd


def _scan_with_degenerate_pairs():
    """Delays and (T, 21) upper-triangle counts of the scan of ``_degenerate_gammas``."""
    delays = np.linspace(-4, 4, 41)
    gi, gd = _degenerate_gammas()
    counts = np.exp(-(delays**2) / 2.0)[:, None] * (gi - gd) + gd
    assert 0.0 < np.ptp(counts[:, NEAR_FLAT]) < 1e-16
    return delays, counts


# columns of pairs (1, 2) and (5, 5) among the upper-triangle pairs of six ports
NEAR_FLAT, ALL_ZERO = 7, 20


def _column_by_column(delays, counts, mode):
    return np.concatenate(
        [visibility(delays, counts[:, [p]], 1.0, mode=mode) for p in range(counts.shape[1])]
    )


class TestBatchedVisibility:
    def test_extrema_bit_equal_to_single_column_calls(self):
        delays, counts = _scan_with_degenerate_pairs()
        batched = visibility(delays, counts, 1.0)
        assert batched.shape == (21,)
        assert np.array_equal(batched, _column_by_column(delays, counts, "extrema"), equal_nan=True)
        assert np.flatnonzero(np.isnan(batched)).tolist() == [20]  # the all-zero pair (5, 5)

    def test_fit_matches_single_column_calls_and_curve_fit(self):
        delays, counts = _scan_with_degenerate_pairs()
        batched = visibility(delays, counts, 1.0, mode="fit")
        single = _column_by_column(delays, counts, "fit")
        np.testing.assert_array_equal(np.isnan(batched), np.isnan(single))
        assert np.flatnonzero(np.isnan(batched)).tolist() == [20]
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-12)
        oracle = np.array([_curve_fit_visibility(delays, counts[:, p], 1.0) for p in range(20)])
        np.testing.assert_allclose(batched[~np.isnan(batched)], oracle, rtol=0, atol=1e-9)

    def test_near_flat_scan_fits_without_warnings(self):
        delays, counts = _scan_with_degenerate_pairs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (value,) = visibility(delays, counts[:, [NEAR_FLAT]], 1.0, mode="fit")
        assert math.isfinite(value) and abs(value) < 1e-9

    @pytest.mark.parametrize("n", [2, 6, 24])
    def test_fit_is_the_signed_closed_form_on_random_unitaries(self, n):
        u = random_unitary(np.random.default_rng(n), n)
        ks, ls = np.triu_indices(n)
        delays = np.linspace(-4, 4, 81)
        gi = gamma_indistinguishable(u, 0, n - 1)[ks, ls]
        gd = gamma_distinguishable(u, 0, n - 1)[ks, ls]
        _assert_signed_closed_form(delays, hom_scan(u, 0, n - 1, delays, 1.0), gi, gd)

    def test_fit_is_the_signed_closed_form_on_degenerate_pairs(self):
        delays, counts = _scan_with_degenerate_pairs()
        _assert_signed_closed_form(delays, counts, *_degenerate_gammas())

    def test_fit_refuses_a_width_that_leaves_the_design_ill_conditioned(self):
        # over -4..4 the design [1, -overlap] has condition number 8.2e3 at
        # sigma = 100 and 8.2e7 at sigma = 1e4, where the fit lost 8 digits
        u = random_unitary(np.random.default_rng(6), 6)
        ks, ls = np.triu_indices(6)
        delays = np.linspace(-4, 4, 81)
        gi = gamma_indistinguishable(u, 0, 5)[ks, ls]
        gd = gamma_distinguishable(u, 0, 5)[ks, ls]
        fitted = visibility(delays, hom_scan(u, 0, 5, delays, 100.0), 100.0, mode="fit")
        np.testing.assert_allclose(fitted, (gd - gi) / gd, rtol=0, atol=1e-11)
        message = r"81 delays from -4 to 4 at coherence_sigma 10000: .* too close together"
        with pytest.raises(ValueError, match=message):
            visibility(delays, hom_scan(u, 0, 5, delays, 1e4), 1e4, mode="fit")


def _assert_signed_closed_form(delays, counts, gi, gd):
    """Fit mode is (Gamma_d - Gamma_i) / Gamma_d to 1e-12, NaN exactly where Gamma_d == 0."""
    fitted = visibility(delays, counts, 1.0, mode="fit")
    np.testing.assert_array_equal(np.isnan(fitted), gd == 0.0)
    exact = np.divide(gd - gi, gd, out=np.full_like(gd, np.nan), where=gd > 0.0)
    np.testing.assert_allclose(fitted, exact, rtol=0, atol=1e-12)


def _scan_of_48_ports():
    """The (81, 1177) table of a random 48-port chip that cmd_hom writes: the
    delays, then the upper-triangle counts, with a flat and an all-zero pair."""
    delays = np.linspace(-4, 4, 81)
    counts = hom_scan(random_unitary(np.random.default_rng(97), 48), 5, 30, delays, 1.0)
    counts[:, 3] = 0.25  # flat: visibility 0
    counts[:, 600] = 0.0  # no coincidences: undefined
    return np.column_stack([delays, counts])


class TestFitMemory:
    def test_memory_of_a_48_port_fit_is_bounded(self):
        # on the strided view that cmd_hom passes, the fit traces 60 kB; a copy
        # of the (81, 1176) scan alone would be 762 kB
        rows = _scan_of_48_ports()
        tracemalloc.start()
        try:
            values = twophoton._fit_visibility(rows[:, 0], rows[:, 1:], 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values[3] == 0.0 and np.isnan(values[600])
        assert np.count_nonzero(np.isnan(values)) == 1
        assert peak <= 200_000


def _similarity_by_loops(a, b):
    overlap = 0.0
    total_a = 0.0
    total_b = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        overlap += math.sqrt(x * y)
        total_a += x
        total_b += y
    return overlap**2 / (total_a * total_b)


class TestSimilarity:
    def test_identical_distributions(self):
        g = gamma_indistinguishable(splitter_5050(), 0, 1)
        assert similarity(g, g) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert similarity(a, b) == 0.0

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(67)
        a = rng.uniform(0.0, 1.0, (6, 6))
        b = rng.uniform(0.0, 1.0, (6, 6))
        assert similarity(a, b) == pytest.approx(similarity(b, a), abs=1e-15)
        assert similarity(3.7 * a, b) == pytest.approx(similarity(a, 11.0 * b), abs=1e-12)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(71)
        u = random_unitary(rng, 6)
        a = gamma_indistinguishable(u, 0, 1)
        b = gamma_distinguishable(u, 0, 1)
        assert similarity(a, b) == pytest.approx(_similarity_by_loops(a, b), abs=1e-12)
        assert 0.0 < similarity(a, b) < 1.0

    def test_proportional_iff_one(self):
        rng = np.random.default_rng(73)
        a = rng.uniform(0.1, 1.0, (4, 4))
        assert similarity(a, 2.5 * a) == pytest.approx(1.0, abs=1e-12)
        perturbed = a.copy()
        perturbed[0, 0] *= 1.5
        assert similarity(a, perturbed) < 1.0 - 1e-6

    def test_invalid_inputs(self):
        good = np.ones((2, 2))
        with pytest.raises(ValueError):
            similarity(good, np.ones((3, 3)))
        with pytest.raises(ValueError):
            similarity(good, -good)
        with pytest.raises(ValueError):
            similarity(good, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        good = np.ones((2, 2))
        with pytest.raises(ValueError, match="finite"):
            similarity(good, np.array([[1.0, bad], [1.0, 1.0]]))


class TestCorrelationArrays:
    def test_values_symmetric_by_construction(self):
        u = random_unitary(np.random.default_rng(79), 6)
        for gamma in (
            gamma_indistinguishable(u, 0, 4),
            gamma_distinguishable(u, 0, 4),
            fock_oracle(u, 0, 4),
        ):
            assert isinstance(gamma, np.ndarray) and gamma.shape == (6, 6)
            np.testing.assert_array_equal(gamma, gamma.T)

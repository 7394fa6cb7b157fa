import numpy as np
import pytest

from seqalign.polytope import AlignmentPath, band_indicator

from oracles import band_penalty, duration_penalty, path_to_matrix


class TestDurationPenalty:
    def test_exact_durations_cost_nothing(self):
        y = path_to_matrix(AlignmentPath(np.array([0, 0, 1, 1]), j_count=2))
        assert duration_penalty(y, np.full(2, 2.0), 1.0) == 0.0

    def test_hand_computed_value(self):
        # Durations (2, 1) against mu=1.5: 2 * 0.25 / 2 = 0.25.
        y = path_to_matrix(AlignmentPath(np.array([0, 0, 1]), j_count=2))
        assert duration_penalty(y, np.full(2, 1.5), 1.0) == pytest.approx(0.25)

    def test_huge_sigma_switches_prior_off(self):
        rng = np.random.default_rng(0)
        y = rng.random((3, 7))
        assert duration_penalty(y, np.full(3, 2.0), 1e9) <= 1e-12

    def test_vector_mu(self):
        y = path_to_matrix(AlignmentPath(np.array([0, 0, 1]), j_count=2))
        assert duration_penalty(y, np.array([2.0, 1.0]), 1.0) == 0.0

    def test_mu_of_another_length_rejected(self):
        y = path_to_matrix(AlignmentPath(np.array([0, 0, 1]), j_count=2))
        with pytest.raises(ValueError, match="length 3, expected 2"):
            duration_penalty(y, np.ones(3), 1.0)


class TestBandPenalty:
    def test_in_band_path_costs_nothing(self):
        band = band_indicator(3, 3, beta=0.5)
        y = np.eye(3)
        assert band_penalty(y, band, alpha=2.0) == 0.0

    def test_full_band_always_zero(self):
        rng = np.random.default_rng(2)
        band = band_indicator(3, 6, beta=1.0)
        assert band_penalty(rng.random((3, 6)), band, alpha=5.0) == 0.0

    def test_counts_outside_assignments(self):
        band = band_indicator(3, 6, beta=0.0)
        path = AlignmentPath(np.array([0, 0, 0, 1, 2, 2]), j_count=3)
        y = path_to_matrix(path)
        outside = int(np.sum(band * y))
        value = band_penalty(y, band, alpha=2.0)
        assert value == pytest.approx(2.0 * outside)
        assert value / 2.0 == int(value / 2.0)  # integer count for binary Y

    def test_non_negative_and_convex_along_segments(self):
        rng = np.random.default_rng(4)
        band = band_indicator(3, 6, beta=0.1)
        for _ in range(20):
            a, b = rng.random((2, 3, 6))
            mid = 0.5 * (a + b)
            for f in (
                lambda m: duration_penalty(m, np.full(3, 2.0), 1.5),
                lambda m: band_penalty(m, band, 0.3),
            ):
                assert f(a) >= 0 and f(b) >= 0
                assert f(mid) <= 0.5 * (f(a) + f(b)) + 1e-12

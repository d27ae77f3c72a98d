import pytest

from lebesgue_interp import InvalidInputError
from lebesgue_interp.verify import monte_carlo_convexity_area


class TestMonteCarloConvexityArea:
    def test_seeded_and_deterministic(self):
        assert monte_carlo_convexity_area(10_000, seed=5) == monte_carlo_convexity_area(
            10_000, seed=5
        )

    def test_zero_threshold_empty_region(self):
        assert monte_carlo_convexity_area(10_000, seed=1, threshold=0.0) == 0.0

    def test_threshold_independence(self):
        a = monte_carlo_convexity_area(200_000, seed=2, threshold=1.0)
        b = monte_carlo_convexity_area(200_000, seed=2, threshold=0.05)
        assert a == pytest.approx(b, abs=0.01)

    def test_sample_floor_enforced(self):
        with pytest.raises(InvalidInputError):
            monte_carlo_convexity_area(100, seed=0)

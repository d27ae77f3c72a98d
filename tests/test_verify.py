import pytest

from lebesgue_interp import InvalidInputError
from lebesgue_interp.verify import monte_carlo_convexity_area


class TestMonteCarloConvexityArea:
    def test_seeded_and_deterministic(self):
        assert monte_carlo_convexity_area(10_000, seed=5) == monte_carlo_convexity_area(
            10_000, seed=5
        )

    def test_sample_floor_enforced(self):
        with pytest.raises(InvalidInputError):
            monte_carlo_convexity_area(100, seed=0)

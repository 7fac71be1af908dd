import numpy as np
import pytest

from aprfm import collocation, problems, quadrature
from aprfm.errors import UnsupportedProblemError
from helpers import exact_micro_macro_pair, micro_macro_residuals

# frozen with 30-digit arithmetic
EPS_PROFILE_AT_0 = 0.010121134251688328
EPS_PROFILE_AT_HALF = 0.7715941559557649


class TestCatalog:
    def test_slab_exact_solution(self):
        spec = problems.catalog("ex1", 1e-4)
        assert spec.exact_f(np.array([[0.3]]), np.array([0.9]))[0] == \
            pytest.approx(0.7)
        assert spec.exact_f(np.array([[0.3]]), np.array([-0.9]))[0] == \
            pytest.approx(0.7)

    def test_planar_exact_solution(self):
        spec = problems.catalog("ex4", 1.0)
        assert spec.exact_f(np.array([[0.0, 0.0]]), np.array([1.0]))[0] == \
            pytest.approx(1.0)
        spec6 = problems.catalog("ex6", 1.0)
        assert spec6.exact_f(np.array([[-1.0, -1.0]]), np.array([0.3]))[0] == \
            pytest.approx(np.exp(2.0))

    def test_zero_inflow_problem(self):
        spec = problems.catalog("ex5", 1.0)
        x = np.array([[-1.0, 0.3]])
        assert spec.boundary_value(x, np.array([0.1]))[0] == 0.0

    def test_slab_boundary_values(self):
        spec = problems.catalog("ex1", 1.0)
        assert spec.boundary_value(np.array([[0.0]]), np.array([0.5]))[0] == 1.0
        assert spec.boundary_value(np.array([[1.0]]), np.array([-0.5]))[0] == 0.0

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            problems.catalog("ex7", 1.0)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex4", "ex5", "ex6"])
    def test_requires_positive_epsilon(self, pid):
        for eps in (0.0, None, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                problems.catalog(pid, eps)

    @pytest.mark.parametrize("pid", problems.PROBLEM_IDS)
    def test_source_conventions(self, pid):
        # the normal form's identity, which the rfm assembler, the aprfm
        # assembler and the oracle all rely on:
        # rfm_source = eps micro_source + eps^2 macro_source
        spec = problems.catalog(pid, None if pid == "ex3" else 0.3)
        xs, vs = collocation.evaluation_nodes(spec)
        eps = spec.epsilon_at(xs)[:, None]
        expected = (eps * spec.micro_source(xs[:, None], vs)
                    + eps ** 2 * spec.macro_source(xs)[:, None])
        np.testing.assert_allclose(spec.rfm_source(xs[:, None], vs),
                                   expected, rtol=1e-15, atol=0.0)


class TestEpsilonProfile:
    def test_frozen_values(self):
        assert problems.epsilon_profile(0.0) == pytest.approx(
            EPS_PROFILE_AT_0, rel=1e-14)
        assert problems.epsilon_profile(0.5) == pytest.approx(
            EPS_PROFILE_AT_HALF, rel=1e-14)
        assert problems.epsilon_profile(1.0) == pytest.approx(
            EPS_PROFILE_AT_0, rel=1e-14)

    def test_symmetry(self):
        x = np.linspace(0.0, 1.0, 301)
        np.testing.assert_allclose(problems.epsilon_profile(x),
                                   problems.epsilon_profile(1.0 - x),
                                   atol=1e-15)

    def test_range(self):
        x = np.linspace(0.0, 1.0, 2001)
        vals = problems.epsilon_profile(x)
        assert vals.min() >= 0.01 and vals.max() <= 1.02

    def test_gradient_matches_finite_differences(self):
        x = np.linspace(0.01, 0.99, 57)
        h = 1e-7
        fd = (problems.epsilon_profile(x + h)
              - problems.epsilon_profile(x - h)) / (2 * h)
        np.testing.assert_allclose(problems.epsilon_profile_grad(x), fd,
                                   atol=1e-6)


def _residual_pieces(spec, rule, rho_fn, g_fn, x, v, h=1e-6):
    """Residual inputs from callables, with finite-difference gradients and
    quadrature angular terms (independent of the assembly path)."""
    dim = spec.spatial_dim

    def grad(fn, x, *rest):
        out = np.empty((x.shape[0], dim))
        for axis in range(dim):
            step = np.zeros((1, dim))
            step[0, axis] = h
            out[:, axis] = (fn(x + step, *rest) - fn(x - step, *rest)) / (2 * h)
        return out

    rho_val = rho_fn(x)
    rho_grad = grad(rho_fn, x)
    g_val = g_fn(x, v)
    g_grad = grad(g_fn, x, v)
    g_samples = np.stack([g_fn(x, np.full(x.shape[0], node))
                          for node in rule.nodes], axis=1)
    transport_samples = np.stack(
        [problems.v_dot(dim, np.full(x.shape[0], node), grad(g_fn, x,
                                                             np.full(x.shape[0], node)))
         for node in rule.nodes], axis=1)
    avg_v_grad_g = transport_samples @ rule.weights
    g_coll = g_samples @ rule.weights - g_val
    return dict(rho_val=rho_val, rho_grad=rho_grad, g_val=g_val,
                g_grad=g_grad, avg_v_grad_g=avg_v_grad_g, g_collision=g_coll)


class TestMicroMacroResiduals:
    """The sources of each problem against the pointwise micro-macro
    equations of ``helpers``."""

    def test_exact_pair_ex1(self):
        spec = problems.catalog("ex1", 0.7)
        rule = quadrature.angular_rule(1, 16)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.05, 0.95, size=(200, 1))
        v = rng.uniform(-1, 1, size=200)
        pieces = _residual_pieces(spec, rule,
                                  lambda x: 1.0 - x[..., 0],
                                  lambda x, v: np.zeros(x.shape[0]), x, v)
        macro, micro = micro_macro_residuals(spec, x, v, **pieces)
        np.testing.assert_allclose(macro, 0.0, atol=1e-10)
        np.testing.assert_allclose(micro, 0.0, atol=1e-10)

    @pytest.mark.parametrize("pid,eps", [("ex4", 0.9), ("ex6", 0.9),
                                         ("ex4", 0.2)])
    def test_exact_pair_planar(self, pid, eps):
        spec = problems.catalog(pid, eps)
        rule = quadrature.angular_rule(2, 16)
        rho_fn, g_fn = exact_micro_macro_pair(spec, rule)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.4, 0.95, size=(150, 2))  # inside any geometry
        v = rng.uniform(0, 2 * np.pi, size=150)
        pieces = _residual_pieces(spec, rule, rho_fn, g_fn, x, v)
        macro, micro = micro_macro_residuals(spec, x, v, **pieces)
        np.testing.assert_allclose(macro, 0.0, atol=1e-10)
        np.testing.assert_allclose(micro, 0.0, atol=1e-10)

    def test_exact_pair_has_zero_mean_fluctuation(self):
        spec = problems.catalog("ex4", 0.5)
        rule = quadrature.angular_rule(2, 16)
        _, g_fn = exact_micro_macro_pair(spec, rule)
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.9, 0.9, size=(50, 2))
        samples = np.stack([g_fn(x, np.full(50, node)) for node in rule.nodes],
                           axis=1)
        np.testing.assert_allclose(samples @ rule.weights, 0.0, atol=1e-12)

    def test_constant_equilibrium_trivial_zero(self):
        spec = problems.catalog("ex2", 0.3)
        rule = quadrature.angular_rule(1, 8)
        x = np.array([[0.25], [0.75]])
        v = np.array([0.5, -0.5])
        pieces = _residual_pieces(spec, rule,
                                  lambda x: np.full(x.shape[0], 2.0),
                                  lambda x, v: np.zeros(x.shape[0]), x, v)
        macro, micro = micro_macro_residuals(spec, x, v, **pieces)
        np.testing.assert_allclose(macro, 0.0, atol=1e-12)
        np.testing.assert_allclose(micro, 0.0, atol=1e-12)

    def test_mixed_scale_trivial_zero(self):
        spec = problems.catalog("ex3")
        rule = quadrature.angular_rule(1, 8)
        x = np.array([[0.3], [0.6]])
        v = np.array([0.25, -0.75])
        # rho constant, g identically zero: every term drops out
        pieces = _residual_pieces(spec, rule,
                                  lambda x: np.full(x.shape[0], 0.25),
                                  lambda x, v: np.zeros(x.shape[0]), x, v)
        macro, micro = micro_macro_residuals(spec, x, v, **pieces)
        np.testing.assert_allclose(macro, 0.0, atol=1e-12)
        np.testing.assert_allclose(micro, 0.0, atol=1e-12)

    def test_exact_pair_requires_exact_solution(self):
        spec = problems.catalog("ex2", 1.0)
        rule = quadrature.angular_rule(1, 8)
        with pytest.raises(UnsupportedProblemError):
            exact_micro_macro_pair(spec, rule)


@pytest.mark.parametrize("problem_id", problems.PROBLEM_IDS)
def test_phase_data_broadcasts_over_grid_factors(problem_id):
    """The problem data on grid factors equals its values on the flattened
    space-major product, bit for bit."""
    spec = problems.catalog(problem_id, 0.3)
    xs, vs = collocation._nodes(spec, (6,) * spec.spatial_dim, 5)
    x_flat, v_flat = collocation._tensor(xs, vs)
    for name in ("rfm_source", "micro_source", "exact_f"):
        fn = getattr(spec, name)
        if fn is None:
            continue
        np.testing.assert_array_equal(fn(xs[:, None], vs).ravel(),
                                      fn(x_flat, v_flat), err_msg=name)
        if spec.spatial_dim == 2:
            # ordinates (K, 1, 1) against the cell grid (n1, n2, 2)
            _, grid, _ = collocation.cell_grid(spec, (6, 4))
            angles = quadrature.angular_rule(2, 16).nodes
            x_grid, v_grid = collocation._tensor(grid.reshape(-1, 2), angles)
            np.testing.assert_array_equal(
                fn(grid, angles[:, None, None]).reshape(angles.size, -1),
                fn(x_grid, v_grid).reshape(-1, angles.size).T, err_msg=name)
    if spec.exact_rho is not None:
        np.testing.assert_array_equal(spec.exact_rho(xs[:, None]).ravel(),
                                      spec.exact_rho(xs))

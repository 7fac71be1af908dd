import dataclasses
import gc
import logging

import numpy as np
import pytest

from aprfm import collocation, problems, quadrature, reference
from aprfm.basis import model_values
from aprfm.errors import (NoConvergenceError, UndefinedMetricError,
                          UnsupportedProblemError)
from aprfm.method import Method
from helpers import build_models, source_iteration_1d, source_iteration_2d


class TestExactField:
    def test_slab_values(self):
        spec = problems.catalog("ex1", 1.0)
        grid = (np.array([[0.25]]), np.array([-0.5]))
        field = reference.exact_field(spec, grid)
        assert field.values[0] == pytest.approx(0.75)

    def test_planar_values(self):
        spec = problems.catalog("ex4", 1.0)
        grid = (np.array([[1.0, 1.0]]), np.array([0.1]))
        assert reference.exact_field(spec, grid).values[0] == \
            pytest.approx(np.exp(-2.0))
        spec6 = problems.catalog("ex6", 1.0)
        grid6 = (np.array([[-1.0, -1.0]]), np.array([0.1]))
        assert reference.exact_field(spec6, grid6).values[0] == \
            pytest.approx(np.exp(2.0))

    def test_missing_exact_solution(self):
        spec = problems.catalog("ex2", 1.0)
        with pytest.raises(UnsupportedProblemError):
            reference.exact_field(spec, collocation.evaluation_grid(spec))


class TestRelativeL2:
    def grid(self, values):
        n = len(values)
        return reference.GridField(points=np.arange(n, dtype=float)[:, None],
                                   values=np.asarray(values, dtype=float))

    def test_identical_fields(self):
        assert reference.relative_l2(self.grid([1, 2]), self.grid([1, 2])) == 0

    def test_doubled_field(self):
        ref = self.grid([1.0, -2.0, 0.5])
        approx = self.grid([2.0, -4.0, 1.0])
        assert reference.relative_l2(approx, ref) == pytest.approx(1.0)

    def test_unit_mismatch(self):
        assert reference.relative_l2(self.grid([1.0, 1.0]),
                                     self.grid([1.0, 0.0])) == \
            pytest.approx(1.0)

    def test_zero_reference(self):
        with pytest.raises(UndefinedMetricError):
            reference.relative_l2(self.grid([1.0]), self.grid([0.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(64)
        r = rng.standard_normal(64)
        base = reference.relative_l2(self.grid(a), self.grid(r))
        for c in (3.0, -0.2, 1e-7, 1e7):
            scaled = reference.relative_l2(self.grid(c * a), self.grid(c * r))
            assert scaled == pytest.approx(base, rel=1e-13)

    def test_grid_mismatch(self):
        other = reference.GridField(points=np.array([[5.0], [6.0]]),
                                    values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            reference.relative_l2(self.grid([1.0, 2.0]), other)


class TestDensityField:
    def test_zero_fluctuation_coefficients(self):
        spec = problems.catalog("ex1", 0.5)
        rule = quadrature.angular_rule(1, 8)
        models = build_models(spec, 4, 5, (1,), 1, seed=0)
        rng = np.random.default_rng(2)
        coeffs = np.concatenate([rng.standard_normal(4), np.zeros(5)])
        xs = rng.uniform(0, 1, size=(12, 1))
        rho = Method("aprfm", spec, models).rho_values(coeffs, rule, xs)
        np.testing.assert_allclose(rho, model_values(models[0], coeffs[:4],
                                                     xs), atol=1e-14)


class TestFdm1D:
    def test_oracle_matches_exact_solution(self):
        spec = problems.catalog("ex1", 1.0)
        field = reference.fdm_reference(spec, resolution=128)
        exact = reference.exact_field(spec, collocation.evaluation_grid(spec))
        assert reference.relative_l2(field, exact) < 5e-3

    def test_first_order_refinement(self):
        spec = problems.catalog("ex1", 1.0)
        exact = reference.exact_field(spec, collocation.evaluation_grid(spec))
        coarse = reference.fdm_reference(spec, resolution=64)
        fine = reference.fdm_reference(spec, resolution=128)
        ratio = reference.relative_l2(coarse, exact) / \
            reference.relative_l2(fine, exact)
        assert 1.5 <= ratio <= 2.5

    def test_constant_solution_reproduced(self):
        spec = problems.catalog("ex2", 1.0)
        const = dataclasses.replace(
            spec, boundary_value=lambda x, v: np.ones(
                np.broadcast_shapes(np.asarray(x).shape[:-1], np.shape(v))))
        field = reference.fdm_reference(const, resolution=64)
        np.testing.assert_allclose(field.values, 1.0, atol=1e-12)

    def test_oracle_matches_exact_solution_small_eps(self):
        spec = problems.catalog("ex1", 1e-2)
        field = reference.fdm_reference(spec)
        exact = reference.exact_field(spec, collocation.evaluation_grid(spec))
        assert reference.relative_l2(field, exact) < 5e-3

    @pytest.mark.parametrize("problem,eps", [("ex2", 1e-1), ("ex3", None)])
    def test_direct_solve_matches_source_iteration(self, problem, eps):
        spec = problems.catalog(problem, eps)
        rule = quadrature.angular_rule(1, 16)
        ref = source_iteration_1d(spec, 128, rule, sweep_tol=1e-14)
        _, rho, _ = reference._solve_1d(spec, 128, rule, rule.nodes)
        assert np.max(np.abs(rho - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("problem,eps", [("ex1", 1e-2), ("ex2", 1e-1),
                                             ("ex3", None)])
    def test_flux_at_rule_nodes_averages_to_density(self, problem, eps):
        # the final sweep and the propagators run the same recurrence, so
        # f at the rule's own ordinates must average back to rho
        spec = problems.catalog(problem, eps)
        rule = quadrature.angular_rule(1, 16)
        _, rho, f = reference._solve_1d(spec, 512, rule, rule.nodes)
        assert np.max(np.abs(rule.weights @ f - rho)) <= \
            1e-12 * np.max(np.abs(rho))

    def test_non_finite_density_raises(self):
        spec = dataclasses.replace(
            problems.catalog("ex2", 1.0),
            rfm_source=lambda x, v: np.full(np.shape(v), np.nan))
        with pytest.raises(NoConvergenceError):
            reference.fdm_reference(spec, resolution=64)

    def test_mixed_scale_profile_supported(self):
        spec = problems.catalog("ex3")
        field = reference.fdm_reference(spec, resolution=128)
        assert field.values.min() > -1e-8
        assert field.values.max() <= 0.5 + 1e-8


class TestFdm2D:
    def test_converges_and_logs_iterations(self, caplog):
        spec = problems.catalog("ex5", 1.0)
        with caplog.at_level(logging.INFO, logger="aprfm.reference"):
            rho = reference.fdm_density(spec, resolution=(32, 32))
        assert any("source iteration converged" in rec.message
                   for rec in caplog.records)
        assert rho.values.max() > 0.1  # interior source builds up density

    def test_no_convergence_error(self):
        spec = problems.catalog("ex5", 1.0)
        with pytest.raises(NoConvergenceError) as err:
            reference.fdm_density(spec, resolution=(32, 32), max_iters=1)
        assert err.value.last_change > 0

    @pytest.mark.parametrize("problem", ["ex5", "ex6"])
    def test_gmres_matches_source_iteration(self, problem):
        spec = problems.catalog(problem, 1.0)
        rule = quadrature.angular_rule(2, 16)
        ref = source_iteration_2d(spec, (32, 32), rule, sweep_tol=1e-14)
        rho = reference._solve_2d(spec, (32, 32), 200_000, rule)["rho"]
        assert np.max(np.abs(rho - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_gmres_past_default_restart_matches_source_iteration(self):
        # 23 sweeps: past scipy's default restart length of 20, so the
        # oracle's own restart length is what runs
        spec = problems.catalog("ex5", 0.2)
        rule = quadrature.angular_rule(2, 8)
        ref = source_iteration_2d(spec, (32, 32), rule, sweep_tol=1e-14)
        out = reference._solve_2d(spec, (32, 32), 200_000, rule)
        assert out["iterations"] > 20
        assert np.max(np.abs(out["rho"] - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_sweep_groups_freed_without_cycle_collection(self):
        # the sweep object holds the large oriented arrays; they must go
        # with the solve by reference counting, not wait for a collection
        spec = problems.catalog("ex5", 1.0)
        gc.collect()
        gc.disable()
        try:
            reference.fdm_density(spec, resolution=(32, 32))
            left = [obj for obj in gc.get_objects()
                    if isinstance(obj, reference._Sweep)]
            freed = gc.collect()
        finally:
            gc.enable()
        assert not left
        assert freed == 0

    def test_eps_below_the_validated_range_rejected(self):
        with pytest.raises(UnsupportedProblemError, match="0.001"):
            reference.fdm_density(problems.catalog("ex5", 1e-3))
        rho = reference.fdm_density(problems.catalog("ex5", 1e-2),
                                    resolution=(16, 16))
        assert rho.values.max() > 0

    def test_planar_oracle_against_exact(self):
        spec = problems.catalog("ex4", 1.0)
        rho = reference.fdm_density(spec, resolution=(64, 64))
        xs = collocation.evaluation_spatial_grid(spec)
        exact = reference.GridField(points=xs, values=spec.exact_rho(xs))
        assert reference.relative_l2(rho, exact) < 5e-2

    def test_annulus_oracle_against_exact(self):
        spec = problems.catalog("ex6", 1.0)
        rho = reference.fdm_density(spec, resolution=(64, 64))
        xs = collocation.evaluation_spatial_grid(spec)
        exact = reference.GridField(points=xs, values=spec.exact_rho(xs))
        assert reference.relative_l2(rho, exact) < 5e-2


@pytest.mark.parametrize("oracle,problem", [
    (reference.fdm_reference, "ex4"), (reference.fdm_density, "ex2")],
    ids=["f-in-2d", "density-in-1d"])
def test_oracle_of_the_other_dimension_rejected(oracle, problem):
    with pytest.raises(UnsupportedProblemError):
        oracle(problems.catalog(problem, 1.0))

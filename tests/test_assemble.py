import dataclasses

import numpy as np
import pytest

from aprfm import assemble, basis, collocation, problems, quadrature, solve
from aprfm.errors import DegenerateRowError
from helpers import build_f_model, build_models, exact_field_for, rfm_f_error

EPS_PROFILE_AT_HALF = 0.7715941559557649


def small_setup(pid="ex1", eps=1.0, n_x=8, n_v=12, j_rho=4, j_g=5,
                m_spatial=(1,), m_velocity=1, n_quad=8, seed=0):
    spec = problems.catalog(pid, None if pid == "ex3" else eps)
    rule = quadrature.angular_rule(spec.spatial_dim, n_quad)
    n_spatial = (n_x,) if spec.spatial_dim == 1 else (n_x, n_x)
    if spec.spatial_dim == 2 and len(m_spatial) == 1:
        m_spatial = (1, 1)
    colloc = collocation.build_collocation(spec, n_spatial, n_v)
    rho_model, g_model = build_models(spec, j_rho, j_g, m_spatial,
                                      m_velocity, seed)
    return spec, rule, colloc, rho_model, g_model


class TestShapes:
    def test_rfm_dimensions(self):
        spec = problems.catalog("ex1", 1.0)
        rule = quadrature.angular_rule(1, 16)
        colloc = collocation.build_collocation(spec, (64,), 128)
        model = build_f_model(spec, 128, (1,), 1, seed=0)
        system = assemble.assemble_rfm(spec, model, colloc, rule)
        assert system.matrix.shape == (8192 + colloc.n_boundary, 128)
        assert np.all(system.row_kind[:8192] == "rfm-interior")
        assert np.all(system.row_kind[8192:] == "boundary")

    def test_aprfm_dimensions(self):
        spec, rule, colloc, rho_model, g_model = small_setup(
            j_rho=4, j_g=6, m_spatial=(2,), m_velocity=2)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        n_int, n_bdy = colloc.n_interior, colloc.n_boundary
        assert system.matrix.shape == (2 * n_int + n_bdy, 2 * 4 + 4 * 6)
        assert np.all(system.row_kind[0:2 * n_int:2] == "macro")
        assert np.all(system.row_kind[1:2 * n_int:2] == "micro")

    def test_model_dimension_checked(self):
        spec, rule, colloc, rho_model, g_model = small_setup()
        with pytest.raises(ValueError):
            assemble.assemble_aprfm(spec, g_model, g_model, colloc, rule)
        with pytest.raises(ValueError):
            assemble.assemble_rfm(spec, rho_model, colloc, rule)


class TestOneShotOperator:
    def test_exact_field_satisfies_transport_identity(self):
        # apply the one-shot operator to f = 1 - x directly (no basis):
        # eps v d/dx(1-x) - <1-x> + (1-x) = -eps v, the stored source
        spec = problems.catalog("ex1", 0.3)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(50, 1))
        v = rng.uniform(-1, 1, size=50)
        residual = 0.3 * v * (-1.0) - (1.0 - x[:, 0]) + (1.0 - x[:, 0])
        np.testing.assert_allclose(residual, spec.rfm_source(x, v), atol=1e-15)

    def test_solved_kinetic_regime_accuracy(self):
        spec = problems.catalog("ex1", 1.0)
        error = rfm_f_error(spec, 128, (32,), 64, seed=0)
        assert error < 1e-6

    def test_interior_rows_match_pointwise_operator(self):
        # row k dotted with coefficients == operator applied to the model,
        # with gradients replaced by central differences of model_eval
        spec, rule, colloc, _, g_model = small_setup(eps=0.45, j_g=6)
        model = build_f_model(spec, 6, (1,), 1, seed=3)
        system = assemble.assemble_rfm(spec, model, colloc, rule)
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(model.n_columns)
        h = 1e-6
        for k in rng.integers(0, colloc.n_interior, size=12):
            x, v = colloc.interior_x[k], colloc.interior_v[k]
            up = basis.model_eval(model, coeffs, np.array([x[0] + h, v]))
            dn = basis.model_eval(model, coeffs, np.array([x[0] - h, v]))
            dfdx = (up - dn) / (2 * h)
            f_here = basis.model_eval(model, coeffs, np.array([x[0], v]))
            avg = sum(w * basis.model_eval(model, coeffs, np.array([x[0], node]))
                      for node, w in zip(rule.nodes, rule.weights))
            expected = 0.45 * v * dfdx - avg + f_here
            assert system.matrix[k] @ coeffs == pytest.approx(expected,
                                                              abs=5e-6)


def limit_rows_by_single_point_ops(spec, rule, colloc, rho_model, g_model):
    """Independent assembly of the vanishing-scale interior system from the
    public single-point operations.  Both models must be single-box, so the
    normalized bump is identically one and the analytic neuron gradient is
    the full column gradient."""
    assert rho_model.n_boxes == 1 and g_model.n_boxes == 1
    np.testing.assert_allclose(
        basis.pou_tensor_normalized(rho_model.partition, rho_model.pou_kind,
                                    colloc.interior_x[0]), [1.0])
    z_r, z_g = rho_model.n_features, g_model.n_features
    rows = np.zeros((2 * colloc.n_interior, z_r + z_g))
    for k in range(colloc.n_interior):
        x = colloc.interior_x[k]
        v = colloc.interior_v[k]
        sig_s = spec.sigma_s(x[None, :])[0]
        sig_a = spec.sigma_a(x[None, :])[0]
        for j in range(z_r):
            val, grad = basis.feature_eval(rho_model, 0, j, x)
            rows[2 * k, j] = sig_a * val
            rows[2 * k + 1, j] = v * grad[0]
        for j in range(z_g):
            val_here, _ = basis.feature_eval(g_model, 0, j,
                                             np.array([x[0], v]))
            avg_transport = 0.0
            avg_val = 0.0
            for node, w in zip(rule.nodes, rule.weights):
                val_q, grad_q = basis.feature_eval(g_model, 0, j,
                                                   np.array([x[0], node]))
                avg_transport += w * node * grad_q[0]
                avg_val += w * val_q
            rows[2 * k, z_r + j] = avg_transport
            rows[2 * k + 1, z_r + j] = sig_s * (val_here - avg_val)
    return rows


class TestVanishingScaleLimit:
    def test_interior_matrix_reaches_its_limit(self):
        spec, rule, colloc, rho_model, g_model = small_setup(
            eps=1e-16, n_x=4, n_v=6, j_rho=3, j_g=3, n_quad=6)
        tiny = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        at_zero = assemble.assemble_aprfm(
            dataclasses.replace(spec, epsilon=0.0),
            rho_model, g_model, colloc, rule)
        n_rows = 2 * colloc.n_interior
        np.testing.assert_allclose(tiny.matrix[:n_rows],
                                   at_zero.matrix[:n_rows], atol=1e-15)
        limit = limit_rows_by_single_point_ops(spec, rule, colloc,
                                               rho_model, g_model)
        frob = np.linalg.norm(tiny.matrix[:n_rows] - limit)
        assert frob / np.linalg.norm(limit) < 1e-12
        frob_exact = np.linalg.norm(at_zero.matrix[:n_rows]
                                    - tiny.matrix[:n_rows])
        assert frob_exact / np.linalg.norm(tiny.matrix[:n_rows]) < 1e-12

    def test_boundary_rows_lose_fluctuation_block(self):
        spec, rule, colloc, rho_model, g_model = small_setup(eps=1e-16)
        system = assemble.assemble_aprfm(spec, rho_model, g_model,
                                         colloc, rule)
        bdy = system.matrix[2 * colloc.n_interior:]
        assert np.max(np.abs(bdy[:, rho_model.n_columns:])) < 1e-15


class TestMicroMacroRows:
    def test_rhs_carries_sources(self):
        spec, rule, colloc, rho_model, g_model = small_setup(eps=0.5)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        n_int = colloc.n_interior
        np.testing.assert_array_equal(system.rhs[0:2 * n_int:2], 0.0)
        np.testing.assert_allclose(system.rhs[1:2 * n_int:2],
                                   -colloc.interior_v, atol=1e-15)
        np.testing.assert_array_equal(system.rhs[2 * n_int:],
                                      colloc.boundary_value)

    def test_boundary_rows_reconstruct_f(self):
        spec, rule, colloc, rho_model, g_model = small_setup(eps=0.37)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(system.n_columns)
        recon = assemble.reconstruct_f(spec, rho_model, g_model, coeffs,
                                       colloc.boundary_x, colloc.boundary_v)
        np.testing.assert_allclose(
            system.matrix[2 * colloc.n_interior:] @ coeffs, recon, atol=1e-12)

    def test_micro_rows_match_pointwise_operator(self):
        # n_x = 12 keeps the collocation nodes off the bump joints of the
        # two-box partitions, where central differences are biased
        spec, rule, colloc, rho_model, g_model = small_setup(
            eps=0.45, n_x=12, j_rho=3, j_g=4, m_spatial=(2,), m_velocity=2)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        rng = np.random.default_rng(14)
        coeffs = rng.standard_normal(system.n_columns)
        c_rho, c_g = assemble.split_coefficients(system, coeffs)
        h = 1e-6
        for k in rng.integers(0, colloc.n_interior, size=8):
            x, v = colloc.interior_x[k], colloc.interior_v[k]

            def rho_at(pt):
                return basis.model_eval(rho_model, c_rho, np.array([pt]))

            def g_at(pt, node):
                return basis.model_eval(g_model, c_g, np.array([pt, node]))

            drho = (rho_at(x[0] + h) - rho_at(x[0] - h)) / (2 * h)
            dg = (g_at(x[0] + h, v) - g_at(x[0] - h, v)) / (2 * h)
            avg_t = sum(w * node * (g_at(x[0] + h, node)
                                    - g_at(x[0] - h, node)) / (2 * h)
                        for node, w in zip(rule.nodes, rule.weights))
            avg_g = sum(w * g_at(x[0], node)
                        for node, w in zip(rule.nodes, rule.weights))
            macro = avg_t
            micro = v * drho + 0.45 * (v * dg - avg_t) \
                + (g_at(x[0], v) - avg_g)
            assert system.matrix[2 * k] @ coeffs == pytest.approx(macro,
                                                                  abs=5e-6)
            assert system.matrix[2 * k + 1] @ coeffs == pytest.approx(
                micro, abs=5e-6)

    def test_mixed_scale_rows(self):
        spec, rule, colloc, rho_model, g_model = small_setup(
            pid="ex3", n_x=6, n_v=8, j_rho=3, j_g=4)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        rng = np.random.default_rng(21)
        coeffs = rng.standard_normal(system.n_columns)
        c_rho, c_g = assemble.split_coefficients(system, coeffs)
        h = 1e-6
        for k in rng.integers(0, colloc.n_interior, size=6):
            x, v = colloc.interior_x[k], colloc.interior_v[k]

            def eps_g(pt, node):
                return problems.epsilon_profile(pt) * basis.model_eval(
                    g_model, c_g, np.array([pt, node]))

            def rho_at(pt):
                return basis.model_eval(rho_model, c_rho, np.array([pt]))

            d_eps_g = (eps_g(x[0] + h, v) - eps_g(x[0] - h, v)) / (2 * h)
            avg_t = sum(w * node * (eps_g(x[0] + h, node)
                                    - eps_g(x[0] - h, node)) / (2 * h)
                        for node, w in zip(rule.nodes, rule.weights))
            macro = avg_t
            micro = (v * (rho_at(x[0] + h) - rho_at(x[0] - h)) / (2 * h)
                     + (v * d_eps_g - avg_t)
                     + basis.model_eval(g_model, c_g, np.array([x[0], v])))
            assert system.matrix[2 * k] @ coeffs == pytest.approx(macro,
                                                                  abs=5e-6)
            assert system.matrix[2 * k + 1] @ coeffs == pytest.approx(
                micro, abs=5e-6)


class TestRescaleRows:
    def make_tiny(self):
        return assemble.LinearSystem(
            matrix=np.array([[2.0, 4.0, -8.0], [1.0, 0.5, 0.25]]),
            rhs=np.array([16.0, 1.0]),
            row_kind=np.array(["rfm-interior", "boundary"]),
            lam=np.ones(2), n_interior=1, n_boundary=1, n_rho_columns=0)

    def test_direct_arithmetic(self):
        scaled = assemble.rescale_rows(self.make_tiny())
        np.testing.assert_allclose(scaled.matrix[0], [0.25, 0.5, -1.0])
        assert scaled.rhs[0] == 2.0
        assert scaled.lam[0] == pytest.approx(1 / 8)

    def test_unit_row_maxima(self):
        spec, rule, colloc, rho_model, g_model = small_setup()
        system = assemble.rescale_rows(
            assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule))
        np.testing.assert_allclose(np.max(np.abs(system.matrix), axis=1),
                                   1.0, atol=1e-15)

    def test_idempotent(self):
        once = assemble.rescale_rows(self.make_tiny())
        twice = assemble.rescale_rows(once)
        assert np.array_equal(once.matrix, twice.matrix)
        assert np.array_equal(once.rhs, twice.rhs)
        assert np.array_equal(once.lam, twice.lam)

    def test_solution_of_consistent_system_unchanged(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((12, 4)) * rng.uniform(
            0.1, 100, size=(12, 1))
        truth = rng.standard_normal(4)
        system = assemble.LinearSystem(
            matrix=matrix, rhs=matrix @ truth,
            row_kind=np.full(12, "rfm-interior"), lam=np.ones(12),
            n_interior=12, n_boundary=0, n_rho_columns=0)
        before = solve.lstsq(system).coeffs
        after = solve.lstsq(assemble.rescale_rows(system)).coeffs
        np.testing.assert_allclose(before, truth, atol=1e-10)
        np.testing.assert_allclose(after, truth, atol=1e-10)

    def test_zero_row_rejected(self):
        system = assemble.LinearSystem(
            matrix=np.array([[1.0, 2.0], [0.0, 0.0]]),
            rhs=np.zeros(2), row_kind=np.array(["rfm-interior", "boundary"]),
            lam=np.ones(2), n_interior=1, n_boundary=1, n_rho_columns=0)
        with pytest.raises(DegenerateRowError) as err:
            assemble.rescale_rows(system)
        assert err.value.row_index == 1
        assert err.value.row_kind == "boundary"


class TestReconstruct:
    def test_zero_coefficients(self):
        spec, _, _, rho_model, g_model = small_setup()
        x = np.array([[0.5]])
        v = np.array([0.25])
        out = assemble.reconstruct_f(spec, rho_model, g_model,
                                     np.zeros(rho_model.n_columns
                                              + g_model.n_columns), x, v)
        assert out[0] == 0.0

    def test_zero_scale_returns_equilibrium(self):
        spec, _, _, rho_model, g_model = small_setup()
        spec0 = dataclasses.replace(spec, epsilon=0.0)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(rho_model.n_columns + g_model.n_columns)
        x = rng.uniform(0, 1, size=(10, 1))
        v = rng.uniform(-1, 1, size=10)
        out = assemble.reconstruct_f(spec0, rho_model, g_model, coeffs, x, v)
        np.testing.assert_allclose(
            out, basis.model_values(rho_model, coeffs[:rho_model.n_columns], x),
            atol=1e-15)

    def test_mixed_scale_uses_profile(self):
        spec, _, _, rho_model, g_model = small_setup(pid="ex3")
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(rho_model.n_columns + g_model.n_columns)
        x = np.array([[0.5]])
        v = np.array([0.3])
        f = assemble.reconstruct_f(spec, rho_model, g_model, coeffs, x, v)
        rho = basis.model_values(rho_model, coeffs[:rho_model.n_columns], x)
        g = basis.model_values(g_model, coeffs[rho_model.n_columns:],
                               np.array([[0.5, 0.3]]))
        assert f[0] - rho[0] == pytest.approx(EPS_PROFILE_AT_HALF * g[0],
                                              rel=1e-12)

import dataclasses

import numpy as np
import pytest

from aprfm import assemble, basis, collocation, problems, quadrature, solve
from aprfm.collocation import _tensor
from aprfm.errors import DegenerateRowError
from aprfm.method import Method
from helpers import (build_f_model, build_models, dense_assembly,
                     dense_column_batch, dense_model_values, rfm_f_error,
                     run_config, weighted)

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
        assert np.all(system.row_kind[:8192] == assemble.ROW_RFM)
        assert np.all(system.row_kind[8192:] == assemble.ROW_BOUNDARY)

    def test_aprfm_dimensions(self):
        spec, rule, colloc, rho_model, g_model = small_setup(
            j_rho=4, j_g=6, m_spatial=(2,), m_velocity=2)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        n_x = colloc.spatial_nodes.shape[0]
        n_int, n_bdy = colloc.n_interior, colloc.n_boundary
        assert system.matrix.shape == (n_x + n_int + n_bdy, 2 * 4 + 4 * 6)
        assert np.all(system.row_kind[:n_x] == assemble.ROW_MACRO)
        assert np.all(system.row_kind[n_x:n_x + n_int] == assemble.ROW_MICRO)
        assert np.all(system.row_kind[n_x + n_int:] == assemble.ROW_BOUNDARY)

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
        # with gradients replaced by central differences of the dense
        # model evaluation
        spec, rule, colloc, _, g_model = small_setup(eps=0.45, j_g=6)
        model = build_f_model(spec, 6, (1,), 1, seed=3)
        system = assemble.assemble_rfm(spec, model, colloc, rule)
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(model.n_columns)

        def f_at(pt, node):
            return dense_model_values(model, coeffs, [[pt, node]])[0]

        h = 1e-6
        points, velocities = _tensor(colloc.spatial_nodes,
                                     colloc.velocity_nodes)
        for k in rng.integers(0, colloc.n_interior, size=12):
            x, v = points[k], velocities[k]
            dfdx = (f_at(x[0] + h, v) - f_at(x[0] - h, v)) / (2 * h)
            f_here = f_at(x[0], v)
            avg = sum(w * f_at(x[0], node)
                      for node, w in zip(rule.nodes, rule.weights))
            expected = 0.45 * v * dfdx - avg + f_here
            assert system.matrix[k] @ coeffs == pytest.approx(expected,
                                                              abs=5e-6)


def limit_rows_pointwise(spec, rule, colloc, rho_model, g_model):
    """Independent assembly of the vanishing-scale interior system, point
    by point, from the dense columns and gradients of ``helpers``.  Both
    models must be single-box, so the normalized bump is identically one
    and the neuron gradient is the full column gradient."""
    assert rho_model.n_boxes == 1 and g_model.n_boxes == 1

    def column(model, j, point):
        chi, grad = dense_column_batch(model, np.array([point]))
        return chi[0, j], grad[0, j]

    z_r, z_g = rho_model.n_features, g_model.n_features
    n_x = colloc.spatial_nodes.shape[0]
    n_v = colloc.velocity_nodes.size
    # a macro row per spatial node, then a micro row per interior point
    rows = np.zeros((n_x + colloc.n_interior, z_r + z_g))
    points, velocities = _tensor(colloc.spatial_nodes, colloc.velocity_nodes)
    for k in range(colloc.n_interior):
        x = points[k]
        v = velocities[k]
        macro, micro = k // n_v, n_x + k
        for j in range(z_r):
            _, grad = column(rho_model, j, x)
            rows[micro, j] = v * grad[0]
        for j in range(z_g):
            val_here, _ = column(g_model, j, [x[0], v])
            avg_transport = 0.0
            avg_val = 0.0
            for node, w in zip(rule.nodes, rule.weights):
                val_q, grad_q = column(g_model, j, [x[0], node])
                avg_transport += w * node * grad_q[0]
                avg_val += w * val_q
            rows[macro, z_r + j] = avg_transport
            rows[micro, z_r + j] = val_here - avg_val
    return rows


class TestVanishingScaleLimit:
    def test_interior_matrix_reaches_its_limit(self):
        spec, rule, colloc, rho_model, g_model = small_setup(
            eps=1e-16, n_x=4, n_v=6, j_rho=3, j_g=3, n_quad=6)
        tiny = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        at_zero = assemble.assemble_aprfm(
            dataclasses.replace(spec, epsilon=0.0),
            rho_model, g_model, colloc, rule)
        n_rows = tiny.n_rows - colloc.n_boundary
        np.testing.assert_allclose(tiny.matrix[:n_rows],
                                   at_zero.matrix[:n_rows], atol=1e-15)
        limit = limit_rows_pointwise(spec, rule, colloc, rho_model, g_model)
        frob = np.linalg.norm(tiny.matrix[:n_rows] - limit)
        assert frob / np.linalg.norm(limit) < 1e-12
        frob_exact = np.linalg.norm(at_zero.matrix[:n_rows]
                                    - tiny.matrix[:n_rows])
        assert frob_exact / np.linalg.norm(tiny.matrix[:n_rows]) < 1e-12

    def test_boundary_rows_lose_fluctuation_block(self):
        spec, rule, colloc, rho_model, g_model = small_setup(eps=1e-16)
        system = assemble.assemble_aprfm(spec, rho_model, g_model,
                                         colloc, rule)
        bdy = system.matrix[system.row_kind == assemble.ROW_BOUNDARY]
        assert np.max(np.abs(bdy[:, rho_model.n_columns:])) < 1e-15


class TestMicroMacroRows:
    def test_rhs_carries_sources(self):
        spec, rule, colloc, rho_model, g_model = small_setup(eps=0.5)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        kind = system.row_kind
        assert np.count_nonzero(kind == assemble.ROW_MACRO) == \
            colloc.spatial_nodes.shape[0]
        np.testing.assert_array_equal(system.rhs[kind == assemble.ROW_MACRO],
                                      0.0)
        np.testing.assert_allclose(system.rhs[kind == assemble.ROW_MICRO],
                                   -_tensor(colloc.spatial_nodes,
                                            colloc.velocity_nodes)[1],
                                   atol=1e-15)
        np.testing.assert_array_equal(
            system.rhs[kind == assemble.ROW_BOUNDARY], colloc.boundary_value)

    def test_boundary_rows_reconstruct_f(self):
        spec, rule, colloc, rho_model, g_model = small_setup(eps=0.37)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(system.n_columns)
        # each inflow point as the product of its x and its v
        recon = np.concatenate([
            assemble.reconstruct_f(spec, rho_model, g_model, coeffs,
                                   x[None], v[None])
            for x, v in zip(colloc.boundary_x, colloc.boundary_v)])
        np.testing.assert_allclose(
            system.matrix[system.row_kind == assemble.ROW_BOUNDARY] @ coeffs,
            recon, atol=1e-12)

    def test_micro_rows_match_pointwise_operator(self):
        # n_x = 12 keeps the collocation nodes off the bump joints of the
        # two-box partitions, where central differences are biased
        spec, rule, colloc, rho_model, g_model = small_setup(
            eps=0.45, n_x=12, j_rho=3, j_g=4, m_spatial=(2,), m_velocity=2)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        rng = np.random.default_rng(14)
        coeffs = rng.standard_normal(system.n_columns)
        c_rho, c_g = np.split(coeffs, [rho_model.n_columns])
        n_x, n_v = colloc.spatial_nodes.shape[0], colloc.velocity_nodes.size

        def rho_at(pt):
            return dense_model_values(rho_model, c_rho, [[pt]])[0]

        def g_at(pt, node):
            return dense_model_values(g_model, c_g, [[pt, node]])[0]

        h = 1e-6
        points, velocities = _tensor(colloc.spatial_nodes,
                                     colloc.velocity_nodes)
        for k in rng.integers(0, colloc.n_interior, size=8):
            x, v = points[k], velocities[k]
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
            assert system.matrix[k // n_v] @ coeffs == pytest.approx(
                macro, abs=5e-6)
            assert system.matrix[n_x + k] @ coeffs == pytest.approx(
                micro, abs=5e-6)

    def test_mixed_scale_rows(self):
        spec, rule, colloc, rho_model, g_model = small_setup(
            pid="ex3", n_x=6, n_v=8, j_rho=3, j_g=4)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        rng = np.random.default_rng(21)
        coeffs = rng.standard_normal(system.n_columns)
        c_rho, c_g = np.split(coeffs, [rho_model.n_columns])
        n_x, n_v = colloc.spatial_nodes.shape[0], colloc.velocity_nodes.size

        def g_at(pt, node):
            return dense_model_values(g_model, c_g, [[pt, node]])[0]

        def eps_g(pt, node):
            return problems.epsilon_profile(pt) * g_at(pt, node)

        def rho_at(pt):
            return dense_model_values(rho_model, c_rho, [[pt]])[0]

        h = 1e-6
        points, velocities = _tensor(colloc.spatial_nodes,
                                     colloc.velocity_nodes)
        for k in rng.integers(0, colloc.n_interior, size=6):
            x, v = points[k], velocities[k]
            d_eps_g = (eps_g(x[0] + h, v) - eps_g(x[0] - h, v)) / (2 * h)
            avg_t = sum(w * node * (eps_g(x[0] + h, node)
                                    - eps_g(x[0] - h, node)) / (2 * h)
                        for node, w in zip(rule.nodes, rule.weights))
            macro = avg_t
            micro = (v * (rho_at(x[0] + h) - rho_at(x[0] - h)) / (2 * h)
                     + (v * d_eps_g - avg_t)
                     + g_at(x[0], v))
            assert system.matrix[k // n_v] @ coeffs == pytest.approx(
                macro, abs=5e-6)
            assert system.matrix[n_x + k] @ coeffs == pytest.approx(
                micro, abs=5e-6)


DENSE_CASES = {
    "ex1-rfm": ("ex1", 1e-2, "rfm", (16,), 32, dict(j=16)),
    "ex1-aprfm": ("ex1", 1e-8, "aprfm", (16,), 32, dict(jrho=8, jg=8)),
    "ex3-mixed": ("ex3", None, "aprfm", (16,), 32,
                  dict(jrho=8, jg=8, m_spatial=(2,), m_velocity=2)),
    "ex6-mv4": ("ex6", 1.0, "aprfm", (8, 8), 16,
                dict(jrho=8, jg=8, m_velocity=4)),
    "ex5-mv8": ("ex5", 1.0, "aprfm", (8, 8), 16,
                dict(jrho=8, jg=8, m_velocity=8)),
}


class TestAgainstDenseReference:
    @pytest.mark.parametrize("case", DENSE_CASES.values(),
                             ids=DENSE_CASES.keys())
    def test_matrix_matches_dense_assembly(self, case):
        # the directional, support-restricted kernel against every box at
        # every point with full gradients
        problem, eps, name, n_spatial, n_velocity, features = case
        spec = problems.catalog(problem, eps)
        config = run_config(spec, name, n_spatial, n_velocity, **features)
        rule = quadrature.angular_rule(spec.spatial_dim, config.nq)
        colloc = collocation.build_collocation(spec, n_spatial, n_velocity)
        meth = Method.build(spec, config)
        matrix = meth.assemble(colloc, rule).matrix
        ref = dense_assembly(meth, colloc, rule)
        np.testing.assert_allclose(matrix, ref, rtol=0,
                                   atol=1e-14 * np.abs(ref).max())


class TestRowsInPlace:
    """Assembly writes the aprfm micro rows and the rfm interior rows into
    the matrix in place; they equal the expression form over the same
    columns, with the same operation order, bit for bit."""

    @pytest.mark.parametrize("pid", ["ex1", "ex3", "ex5"])
    def test_aprfm_micro_rows(self, pid):
        spec, rule, colloc, rho_model, g_model = small_setup(
            pid=pid, eps=0.3, j_rho=3, j_g=4, m_spatial=(2,), m_velocity=2)
        system = assemble.assemble_aprfm(spec, rho_model, g_model, colloc,
                                         rule)
        xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
        dim = spec.spatial_dim
        chi, trans_c = assemble._node_columns(g_model, xs, vs)
        chi_q, trans_q = assemble._node_columns(g_model, xs, rule.nodes)
        eps = spec.epsilon_at(xs)[:, None, None]
        if spec.mixed_scale:
            eps_p = spec.epsilon_prime_at(xs)[:, None, None]
            trans_q = eps_p * rule.nodes[None, :, None] * chi_q + eps * trans_q
            trans_c = eps_p * vs[None, :, None] * chi + eps * trans_c
        avg_trans = np.einsum("q,sqz->sz", rule.weights, trans_q)
        avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)
        if spec.mixed_scale:
            micro_g = trans_c - avg_trans[:, None, :] + chi
        else:
            micro_g = (eps * (trans_c - avg_trans[:, None, :])
                       + (chi - avg_chi[:, None, :]))
        trans_r = np.zeros(xs.shape[:1] + (vs.size, rho_model.n_columns))
        for axis, along in enumerate(problems.direction(dim, vs).T):
            _, d_axis = basis.column_batch(rho_model, xs, np.eye(dim)[axis])
            trans_r += along[None, :, None] * d_axis[:, None, :]
        micro = system.matrix[system.row_kind == assemble.ROW_MICRO]
        expected = np.concatenate([trans_r, micro_g], axis=2)
        assert np.array_equal(micro, expected.reshape(micro.shape))

    def test_rfm_interior_rows(self):
        spec = problems.catalog("ex1", 0.3)
        rule = quadrature.angular_rule(1, 8)
        colloc = collocation.build_collocation(spec, (8,), 12)
        model = build_f_model(spec, 5, (2,), 2, seed=0)
        system = assemble.assemble_rfm(spec, model, colloc, rule)
        xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
        chi, transport = assemble._node_columns(model, xs, vs)
        chi_q, _ = assemble._node_columns(model, xs, rule.nodes,
                                          transport=False)
        avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)
        rows = (spec.epsilon_at(xs)[:, None, None] * transport
                - avg_chi[:, None, :] + chi)
        interior = system.matrix[system.row_kind == assemble.ROW_RFM]
        assert np.array_equal(interior, rows.reshape(interior.shape))


class TestRescaleRows:
    def make_tiny(self):
        return assemble.LinearSystem(
            matrix=np.array([[2.0, 4.0, -8.0], [1.0, 0.5, 0.25]]),
            rhs=np.array([16.0, 1.0]),
            row_kind=[assemble.ROW_RFM, assemble.ROW_BOUNDARY],
            lam=np.ones(2))

    def test_direct_arithmetic(self):
        tiny = self.make_tiny()
        scaled = assemble.rescale_rows(tiny)
        # the weights carry the scaling; the matrix is not copied
        assert scaled.matrix is tiny.matrix and scaled.rhs is tiny.rhs
        matrix, rhs = weighted(scaled)
        np.testing.assert_allclose(matrix[0], [0.25, 0.5, -1.0])
        assert rhs[0] == 2.0
        assert scaled.lam[0] == pytest.approx(1 / 8)

    def test_unit_row_maxima(self):
        spec, rule, colloc, rho_model, g_model = small_setup()
        system = assemble.rescale_rows(
            assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule))
        matrix, _ = weighted(system)
        np.testing.assert_allclose(np.max(np.abs(matrix), axis=1),
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
            row_kind=np.full(12, assemble.ROW_RFM), lam=np.ones(12))
        before = solve.lstsq([system]).coeffs
        after = solve.lstsq([assemble.rescale_rows(system)]).coeffs
        np.testing.assert_allclose(before, truth, atol=1e-10)
        np.testing.assert_allclose(after, truth, atol=1e-10)

    def test_zero_row_rejected(self):
        system = assemble.LinearSystem(
            matrix=np.array([[1.0, 2.0], [0.0, 0.0]]),
            rhs=np.zeros(2),
            row_kind=[assemble.ROW_RFM, assemble.ROW_BOUNDARY],
            lam=np.ones(2))
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
        # f at every (x, v) of the product is rho(x)
        rho = basis.model_values(rho_model, coeffs[:rho_model.n_columns], x)
        np.testing.assert_allclose(out.reshape(10, 10),
                                   np.repeat(rho[:, None], 10, axis=1),
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is fixed here; seeds 0, 1, 2 are
averaged wherever a criterion asks for a seed mean.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np

from aprfm import (assemble, basis, cli, collocation, problems, quadrature,
                   reference)
from aprfm.collocation import _tensor
from helpers import (aprfm_f_error, aprfm_rho_error, exact_field_for,
                     exact_micro_macro_pair, exact_rho_field,
                     micro_macro_residuals, rfm_f_error, solve_aprfm,
                     weighted)
from test_assemble import limit_rows_pointwise, small_setup

SEEDS = (0, 1, 2)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def seed_mean(fn):
    return float(np.mean([fn(seed) for seed in SEEDS]))


def test_criterion_1_one_shot_kinetic_convergence():
    with criterion(1, "one-shot kinetic error decays with dofs"):
        start = time.perf_counter()
        spec = problems.catalog("ex1", 1.0)
        errors = []
        for j in (8, 16, 32, 64, 128):
            errors.append(seed_mean(
                lambda seed, j=j: rfm_f_error(spec, j, (32,), 64, seed=seed)))
        increases = sum(1 for lo, hi in zip(errors, errors[1:]) if hi >= lo)
        assert increases <= 1, f"error sequence not decreasing: {errors}"
        assert errors[-1] < 1e-6, f"final error too large: {errors[-1]:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion took {elapsed:.1f}s"


def test_criterion_2_one_shot_smallscale_stall():
    with criterion(2, "one-shot method stalls at vanishing scale"):
        stalled = seed_mean(lambda seed: rfm_f_error(
            problems.catalog("ex1", 1e-16), 256, (64,), 128, seed=seed))
        resolved = seed_mean(lambda seed: rfm_f_error(
            problems.catalog("ex1", 1e-2), 256, (64,), 128, seed=seed))
        assert stalled > 1e-3, f"expected stall, got {stalled:.3e}"
        assert resolved < 1e-7, f"moderate scale too inaccurate: {resolved:.3e}"


def test_criterion_3_micro_macro_uniform_accuracy():
    with criterion(3, "micro-macro accuracy uniform in the scale"):
        means = {}
        for eps in (1e-2, 1e-4, 1e-8, 1e-16):
            spec = problems.catalog("ex1", eps)
            field = exact_field_for(spec)
            means[eps] = seed_mean(lambda seed: aprfm_f_error(
                spec, 32, 32, (128,), 256, field, seed=seed))
        for eps, err in means.items():
            assert err < 1e-9, f"eps={eps:.0e}: mean error {err:.3e}"
        spread = max(means.values()) / min(means.values())
        assert spread < 1e3, f"error spread across scales: {spread:.1f}"


def test_criterion_4_vanishing_scale_limit_system():
    with criterion(4, "assembled system reaches the scale-free limit"):
        spec, rule, colloc, rho_model, g_model = small_setup(
            eps=1e-16, n_x=8, n_v=12, j_rho=5, j_g=6, n_quad=8)
        tiny = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        n_rows = tiny.n_rows - colloc.n_boundary  # macro and micro rows
        interior = tiny.matrix[:n_rows]
        limit = limit_rows_pointwise(spec, rule, colloc, rho_model, g_model)
        rel = np.linalg.norm(interior - limit) / np.linalg.norm(limit)
        assert rel < 1e-12, f"relative Frobenius distance {rel:.3e}"
        at_zero = assemble.assemble_aprfm(
            dataclasses.replace(spec, epsilon=0.0), rho_model, g_model,
            colloc, rule)
        np.testing.assert_allclose(interior, at_zero.matrix[:n_rows],
                                   atol=1e-15)


def test_criterion_5_square_domain_density():
    with criterion(5, "2D square benchmark density accuracy"):
        for eps in (1.0, 1e-3):
            spec = problems.catalog("ex4", eps)
            field = exact_rho_field(spec)
            start = time.perf_counter()
            err = seed_mean(lambda seed: aprfm_rho_error(
                spec, 32, 32, (32, 32), 64, field, m_spatial=(1, 1),
                seed=seed))
            per_run = (time.perf_counter() - start) / len(SEEDS)
            assert err < 5e-3, f"eps={eps}: density error {err:.3e}"
            assert per_run < 300.0, f"run took {per_run:.0f}s"


def test_criterion_6_annulus_density_both_activations():
    with criterion(6, "annulus benchmark, both activations"):
        for eps in (1.0, 5e-3):
            spec = problems.catalog("ex6", eps)
            field = exact_rho_field(spec)
            for activation in ("tanh", "sine-pi"):
                err = seed_mean(lambda seed: aprfm_rho_error(
                    spec, 64, 128, (32, 32), 64, field, m_spatial=(1, 1),
                    m_velocity=4, seed=seed, activation=activation))
                assert err < 1e-4, \
                    f"eps={eps}, {activation}: error {err:.3e}"


def test_criterion_7_oracle_benchmarks():
    with criterion(7, "oracle-referenced benchmarks"):
        # oracle self-validation first
        spec1 = problems.catalog("ex1", 1.0)
        oracle_err = reference.relative_l2(
            reference.fdm_reference(spec1, resolution=128),
            exact_field_for(spec1))
        assert oracle_err < 5e-3, f"oracle self-check {oracle_err:.3e}"

        spec2 = problems.catalog("ex2", 1.0)
        fdm2 = reference.fdm_reference(spec2)
        err2 = seed_mean(lambda seed: aprfm_f_error(
            spec2, 64, 128, (128,), 256, fdm2, m_spatial=(2,), m_velocity=4,
            seed=seed))
        assert err2 < 5e-2, f"ex2 error {err2:.3e}"

        spec3 = problems.catalog("ex3")
        fdm3 = reference.fdm_reference(spec3)
        err3 = seed_mean(lambda seed: aprfm_f_error(
            spec3, 64, 128, (128,), 256, fdm3, m_spatial=(2,), m_velocity=4,
            seed=seed))
        assert err3 < 8e-2, f"ex3 error {err3:.3e}"

        spec5 = problems.catalog("ex5", 1.0)
        fdm5 = reference.fdm_density(spec5)
        err5 = seed_mean(lambda seed: aprfm_rho_error(
            spec5, 64, 128, (32, 32), 32, fdm5, m_spatial=(1, 1),
            m_velocity=4, seed=seed))
        assert err5 < 1e-1, f"ex5 error {err5:.3e}"


def test_criterion_8_property_suite():
    with criterion(8, "property suite"):
        rng = np.random.default_rng(0)

        # normalized bumps sum to one
        part = basis.uniform_partition([(0.0, 1.0), (-1.0, 1.0)], (4, 4))
        pts = rng.uniform([0, -1], [1, 1], size=(500, 2))
        psi, _ = basis.pou_normalized_batch(part, pts)
        assert np.max(np.abs(psi.sum(axis=1) - 1.0)) < 1e-13

        # isotropic collision operator, mean_v f - f on the rule nodes:
        # zero mean and non-positivity
        rule = quadrature.angular_rule(1, 16)
        for _ in range(200):
            f = rng.standard_normal(16)
            lf = f @ rule.weights - f
            assert abs(lf @ rule.weights) < 1e-12
            assert float(np.sum(rule.weights * f * lf)) <= 1e-12

        # axis derivatives of every column from the assembly kernel vs
        # central differences of the same kernel
        model = basis.make_model(part, 4, seed=13)
        h = 1e-6
        y = rng.uniform([0.05, -0.95], [0.95, 0.95], size=(50, 2))
        for axis in range(2):
            step = np.eye(2)[axis]
            _, grad = basis.column_batch(model, y, step)
            up, _ = basis.column_batch(model, y + h * step)
            dn, _ = basis.column_batch(model, y - h * step)
            fd = (up - dn) / (2 * h)
            assert np.all(np.abs(grad - fd)
                          <= 1e-6 * np.maximum(1.0, np.abs(fd)))

        # solved benchmark system: first-order optimality and unit row
        # maxima, sqrt(n_v) on the macro rows that stand for n_v = 64 rows
        spec = problems.catalog("ex1", 1e-8)
        models, report, system = solve_aprfm(spec, 16, 16, (32,), 64, seed=0)
        matrix, rhs = weighted(system)
        grad = matrix.T @ (matrix @ report.coeffs - rhs)
        bound = 1e-8 * np.linalg.norm(matrix) * np.linalg.norm(rhs)
        assert np.linalg.norm(grad) <= bound
        row_max = np.max(np.abs(matrix), axis=1)
        macro = system.row_kind == assemble.ROW_MACRO
        assert np.count_nonzero(macro) == 32
        assert np.max(np.abs(row_max[macro] / 8.0 - 1.0)) < 1e-15
        assert np.max(np.abs(row_max[~macro] - 1.0)) < 1e-15

        # exact micro-macro pairs drive the assembled residual rows to zero
        for pid, eps in (("ex1", 0.5), ("ex4", 0.5), ("ex6", 0.5)):
            spec = problems.catalog(pid, eps)
            q_rule = quadrature.angular_rule(spec.spatial_dim, 16)
            n_spatial = (12,) if spec.spatial_dim == 1 else (6, 6)
            colloc = collocation.build_collocation(spec, n_spatial, 8)
            x, v = _tensor(colloc.spatial_nodes, colloc.velocity_nodes)
            rho_fn, g_fn = exact_micro_macro_pair(spec, q_rule)
            if spec.spatial_dim == 1:
                rho_grad = np.full((x.shape[0], 1), -1.0)
            else:
                rho_grad = -np.exp(-x[:, 0] - x[:, 1])[:, None] \
                    * np.ones((1, 2))
            pieces = dict(rho_val=rho_fn(x), rho_grad=rho_grad,
                          g_val=g_fn(x, v), g_grad=np.zeros_like(rho_grad),
                          avg_v_grad_g=np.zeros(x.shape[0]),
                          g_collision=np.zeros(x.shape[0]))
            macro, micro = micro_macro_residuals(spec, x, v, **pieces)
            assert np.max(np.abs(macro)) <= 1e-10
            assert np.max(np.abs(micro)) <= 1e-10

        # deterministic replay, bit for bit
        spec = problems.catalog("ex1", 0.5)
        _, rep_a, _ = solve_aprfm(spec, 8, 8, (16,), 32, seed=3)
        _, rep_b, _ = solve_aprfm(spec, 8, 8, (16,), 32, seed=3)
        assert rep_a.coeffs.tobytes() == rep_b.coeffs.tobytes()
        config = cli.RunConfig(problem="ex1", method="aprfm", epsilon=0.5,
                               j=6, nx=8, nv=16, seed=4, out="replay")
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as tmp:
            out_a = str(pathlib.Path(tmp) / "a")
            out_b = str(pathlib.Path(tmp) / "b")
            cli.write_run_outputs(cli.run(config), out_a)
            cli.write_run_outputs(cli.run(config), out_b)
            assert pathlib.Path(out_a + ".csv").read_bytes() == \
                pathlib.Path(out_b + ".csv").read_bytes()

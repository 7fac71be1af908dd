"""Row blocks of a method's system, and the streamed solve checked against
the dense gelsd solve of the restacked matrix."""

import dataclasses

import numpy as np
import pytest

from aprfm import assemble, collocation, method, problems, quadrature, \
    reference
from aprfm.errors import DegenerateRowError
from aprfm.solve import lstsq
from helpers import (dense_lstsq, exact_field_for, exact_rho_field,
                     run_config, stack_blocks)


def setup(problem, eps, name, n_spatial, n_velocity, **features):
    spec = problems.catalog(problem, eps)
    config = run_config(spec, name, n_spatial, n_velocity, **features)
    rule = quadrature.angular_rule(spec.spatial_dim, config.nq)
    colloc = collocation.build_collocation(spec, n_spatial, n_velocity)
    return method.Method.build(spec, config), colloc, rule


def error(meth, rule, coeffs):
    """Relative l2 error against the exact solution: f in 1D, rho in 2D."""
    spec = meth.spec
    if spec.spatial_dim == 1:
        x, v = collocation.evaluation_grid(spec)
        approx = reference.phase_field(x, v, meth.f_values(coeffs, x, v))
        return reference.relative_l2(approx, exact_field_for(spec))
    xs = collocation.evaluation_spatial_grid(spec)
    approx = reference.GridField(points=xs,
                                 values=meth.rho_values(coeffs, rule, xs))
    return reference.relative_l2(approx, exact_rho_field(spec))


ASSEMBLY_CASES = {
    "ex1-rfm": ("ex1", 1e-2, "rfm", (16,), 32, dict(j=16)),
    "ex1-aprfm": ("ex1", 1e-8, "aprfm", (16,), 32, dict(jrho=8, jg=8)),
    "ex3-mixed": ("ex3", None, "aprfm", (16,), 32,
                  dict(jrho=8, jg=8, m_spatial=(2,), m_velocity=2)),
    "ex6-mv4": ("ex6", 1.0, "aprfm", (8, 8), 16,
                dict(jrho=8, jg=8, m_velocity=4)),
}


class TestBlocks:
    @pytest.mark.parametrize("case", ASSEMBLY_CASES.values(),
                             ids=ASSEMBLY_CASES.keys())
    def test_stacked_blocks_equal_single_assembly(self, case, monkeypatch):
        problem, eps, name, n_spatial, n_velocity, features = case
        meth, colloc, rule = setup(problem, eps, name, n_spatial, n_velocity,
                                   **features)
        # a small budget splits both the interior and the inflow rows
        monkeypatch.setattr(method, "_CHUNK_BUDGET", 500)
        blocks = list(meth.blocks(colloc, rule))
        assert len(blocks) > 4
        assert sum(b.n_boundary > 0 for b in blocks) > 1
        stacked = stack_blocks(blocks)
        whole = assemble.rescale_rows(meth.assemble(colloc, rule))
        np.testing.assert_allclose(stacked.matrix, whole.matrix, rtol=0,
                                   atol=1e-14)
        np.testing.assert_allclose(stacked.rhs, whole.rhs, rtol=0,
                                   atol=1e-14 * np.max(np.abs(whole.rhs)))
        np.testing.assert_allclose(stacked.lam, whole.lam, rtol=1e-14)
        np.testing.assert_array_equal(stacked.row_kind, whole.row_kind)
        assert (stacked.n_interior, stacked.n_boundary) == \
            (whole.n_interior, whole.n_boundary)

    def test_blocks_stay_within_budget(self):
        meth, colloc, rule = setup("ex1", 1e-2, "aprfm", (128,), 256, j=64)
        blocks = list(meth.blocks(colloc, rule))
        n_rows = 2 * colloc.n_interior + colloc.n_boundary
        assert n_rows * 128 > method._CHUNK_BUDGET
        assert len(blocks) > 1
        assert sum(b.n_rows for b in blocks) == n_rows
        assert all(b.matrix.size <= method._CHUNK_BUDGET for b in blocks)

    def test_zero_row_reported_by_global_index(self, monkeypatch):
        meth, colloc, rule = setup("ex1", 1.0, "rfm", (16,), 32, j=8)
        monkeypatch.setattr(method, "_CHUNK_BUDGET", 2_000)
        assemble_rfm = method.assemble_rfm

        def zero_last_inflow_row(*args):
            part = assemble_rfm(*args)
            if part.n_boundary:
                matrix = part.matrix.copy()
                matrix[-1] = 0.0
                part = dataclasses.replace(part, matrix=matrix)
            return part

        monkeypatch.setattr(method, "assemble_rfm", zero_last_inflow_row)
        with pytest.raises(DegenerateRowError) as err:
            list(meth.blocks(colloc, rule))
        assert err.value.row_index == \
            colloc.n_interior + colloc.n_boundary - 1
        assert err.value.row_kind == "boundary"


STREAMED_CASES = {
    "T1-eps1e-2-J256": ("ex1", 1e-2, "rfm", (64,), 128, dict(j=256)),
    "T1-eps1e-16-J256": ("ex1", 1e-16, "rfm", (64,), 128, dict(j=256)),
    "T4-eps1e-8-J128": ("ex1", 1e-8, "aprfm", (128,), 256, dict(j=128)),
    "ex6-mv4": ("ex6", 1.0, "aprfm", (16, 16), 32,
                dict(jrho=32, jg=64, m_velocity=4)),
}


class TestStreamedSolve:
    @pytest.mark.parametrize("case", STREAMED_CASES.values(),
                             ids=STREAMED_CASES.keys())
    def test_matches_dense_gelsd(self, case):
        problem, eps, name, n_spatial, n_velocity, features = case
        meth, colloc, rule = setup(problem, eps, name, n_spatial, n_velocity,
                                   **features)
        streamed = lstsq(meth.blocks(colloc, rule))
        dense = dense_lstsq(stack_blocks(meth.blocks(colloc, rule)))
        assert streamed.rank == dense.rank
        assert streamed.condition_estimate == pytest.approx(
            dense.condition_estimate, rel=1e-3)
        err_s = error(meth, rule, streamed.coeffs)
        err_d = error(meth, rule, dense.coeffs)
        if err_d < 1e-10:
            assert abs(err_s - err_d) <= 1e-12
        else:
            assert err_s == pytest.approx(err_d, rel=1e-6)

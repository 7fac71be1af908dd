"""Row blocks of a method's system, checked against the blocks built from
full column arrays, and the streamed solve checked against the dense gelsd
solve of the restacked matrix and against the system that repeats each
macro row once per velocity."""

import dataclasses

import numpy as np
import pytest

from aprfm import assemble, basis, collocation, method, problems, \
    quadrature, reference
from aprfm.errors import DegenerateRowError
from aprfm.solve import lstsq
from helpers import (dense_lstsq, exact_field_for, exact_rho_field,
                     repeated_macro_blocks, run_config, stack_blocks,
                     unfused_blocks, weighted)


def setup(problem, eps, name, n_spatial, n_velocity, **features):
    spec = problems.catalog(problem, eps)
    config = run_config(spec, name, n_spatial, n_velocity, **features)
    rule = quadrature.angular_rule(spec.spatial_dim, config.nq)
    colloc = collocation.build_collocation(spec, n_spatial, n_velocity)
    return method.Method.build(spec, config), colloc, rule


def error(meth, rule, coeffs):
    """Relative l2 error against the exact solution, or in 1D the oracle
    where there is none: f in 1D, rho in 2D."""
    spec = meth.spec
    if spec.spatial_dim == 1:
        xs, vs = collocation.evaluation_nodes(spec)
        approx = reference.phase_field(xs, vs, meth.f_values(coeffs, xs, vs))
        field = (exact_field_for(spec) if spec.exact_f is not None
                 else reference.fdm_reference(spec))
        return reference.relative_l2(approx, field)
    xs, _ = collocation.evaluation_nodes(spec)
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
        assert sum(b.row_kind[-1] == assemble.ROW_BOUNDARY
                   for b in blocks) > 1
        stacked = stack_blocks(blocks)
        whole = assemble.rescale_rows(meth.assemble(colloc, rule))
        # each slab has its macro rows, then its micro rows; the whole
        # system has all macro rows, then all micro rows
        order = np.argsort(stacked.row_kind, kind="stable")
        np.testing.assert_array_equal(stacked.row_kind[order], whole.row_kind)
        # the blocks' weights are the rescale factors times sqrt(n_v) on
        # the macro rows; compare the rescaled rows without that weight
        weight = np.where(whole.row_kind == assemble.ROW_MACRO,
                          np.sqrt(colloc.velocity_nodes.size), 1.0)
        lam = stacked.lam[order] / weight
        np.testing.assert_allclose(lam, whole.lam, rtol=1e-14)
        whole_matrix, whole_rhs = weighted(whole)
        np.testing.assert_allclose(stacked.matrix[order] * lam[:, None],
                                   whole_matrix, rtol=0, atol=1e-14)
        np.testing.assert_allclose(stacked.rhs[order] * lam, whole_rhs,
                                   rtol=0,
                                   atol=1e-14 * np.max(np.abs(whole_rhs)))

    def test_blocks_stay_within_budget(self):
        meth, colloc, rule = setup("ex1", 1e-2, "aprfm", (128,), 256, j=64)
        blocks = list(meth.blocks(colloc, rule))
        n_rows = 128 + colloc.n_interior + colloc.n_boundary
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
            if part.row_kind[-1] == assemble.ROW_BOUNDARY:
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


# The configurations of the tables, the oracle and annulus benchmarks and
# the acceptance criteria, at test size but with their box partitions:
# ex4's 2 x 2 spatial boxes give tiles with index-array rows.
TILE_CASES = {
    "ex6-eps1": ("ex6", 1.0, "aprfm", (8, 8), 16,
                 dict(jrho=8, jg=16, m_velocity=4)),
    "ex6-eps5e-3": ("ex6", 5e-3, "aprfm", (8, 8), 16,
                    dict(jrho=8, jg=16, m_velocity=4)),
    "T4": ("ex1", 1e-2, "aprfm", (32,), 64, dict(jrho=16, jg=16)),
    "T4-eps1e-8": ("ex1", 1e-8, "aprfm", (32,), 64, dict(jrho=16, jg=16)),
    "T1": ("ex1", 1e-2, "rfm", (16,), 32, dict(j=32)),
    "T3-mx2-mv2": ("ex1", 1e-2, "rfm", (16,), 32,
                   dict(j=16, m_spatial=(2,), m_velocity=2)),
    "ex2": ("ex2", 1e-1, "aprfm", (32,), 32,
            dict(jrho=8, jg=16, m_spatial=(2,), m_velocity=4)),
    "ex3-mx2": ("ex3", None, "aprfm", (32,), 32,
                dict(jrho=8, jg=16, m_spatial=(2,), m_velocity=4)),
    "ex3-mx3": ("ex3", None, "aprfm", (32,), 32,
                dict(jrho=8, jg=16, m_spatial=(3,), m_velocity=4)),
    "ex5": ("ex5", 1.0, "aprfm", (8, 8), 16,
            dict(jrho=8, jg=16, m_velocity=4)),
    "ex4-rfm": ("ex4", 1.0, "rfm", (8, 8), 8,
                dict(j=8, m_spatial=(2, 2), m_velocity=2)),
    "ex4-aprfm": ("ex4", 1.0, "aprfm", (8, 8), 8,
                  dict(jrho=8, jg=8, m_spatial=(2, 2), m_velocity=2)),
    "ex6-rfm-mv1": ("ex6", 1.0, "rfm", (8, 8), 16, dict(j=16)),
}


def assert_blocks_equal(meth, colloc, rule):
    blocks = list(meth.blocks(colloc, rule))
    reference = list(unfused_blocks(meth, colloc, rule))
    assert len(blocks) == len(reference) > 2
    for block, ref in zip(blocks, reference):
        for name in ("matrix", "rhs", "lam"):
            assert np.array_equal(getattr(block, name), getattr(ref, name))


class TestTileRows:
    """The interior (rfm) and micro (aprfm) rows, written into the matrix
    one tile of the kernel at a time, equal the rows built from the full
    column arrays, bit for bit up to the sign of a zero; so do the aprfm
    inflow rows' g columns, multiplied into the matrix in place, and the
    blocks' rhs and weights."""

    @pytest.mark.parametrize("activation", ["tanh", "sine-pi"])
    @pytest.mark.parametrize("case", TILE_CASES.values(),
                             ids=TILE_CASES.keys())
    def test_blocks_equal_unfused_blocks(self, case, activation,
                                         monkeypatch):
        problem, eps, name, n_spatial, n_velocity, features = case
        meth, colloc, rule = setup(problem, eps, name, n_spatial, n_velocity,
                                   activation=activation, **features)
        # several slabs
        monkeypatch.setattr(method, "_CHUNK_BUDGET", 20_000)
        assert_blocks_equal(meth, colloc, rule)

    @pytest.mark.parametrize("case", ["ex6-eps1", "ex3-mx2", "ex4-aprfm",
                                      "T3-mx2-mv2"])
    def test_tiles_over_part_of_the_nodes(self, case, monkeypatch):
        # chunks of a few nodes split each box's tile over the nodes, so
        # a box's base entries go in before its first tile
        problem, eps, name, n_spatial, n_velocity, features = TILE_CASES[case]
        meth, colloc, rule = setup(problem, eps, name, n_spatial, n_velocity,
                                   **features)
        monkeypatch.setattr(method, "_CHUNK_BUDGET", 20_000)
        monkeypatch.setattr(basis, "_EVAL_CHUNK", 3 * n_velocity * 16)
        assert_blocks_equal(meth, colloc, rule)


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


COMPRESSED_CASES = {
    "T4-eps1e-8-J128": ("ex1", 1e-8, "aprfm", (128,), 256, dict(j=128)),
    # rank 285 of 288 at condition 1e11; the benchmark's ex3 model (jrho
    # 64, jg 128 at 64 x 128) keeps rank 1031 of 1152 at condition 1e12,
    # and its error moves by 8e-6 relative between the two layouts
    "ex3": ("ex3", None, "aprfm", (64,), 128,
            dict(jrho=16, jg=32, m_spatial=(2,), m_velocity=4)),
    "ex6-mv4": ("ex6", 1.0, "aprfm", (16, 16), 32,
                dict(jrho=32, jg=64, m_velocity=4)),
}


def objective(blocks, coeffs):
    """Weighted residual norm of the stacked blocks at ``coeffs``."""
    total = 0.0
    for block in blocks:
        matrix, rhs = weighted(block)
        total += np.sum((matrix @ coeffs - rhs) ** 2)
    return np.sqrt(total)


class TestCompressedMacroRows:
    """One macro row per spatial node, weighted by sqrt(n_v), against the
    n_v repeated unweighted rows it stands for."""

    @pytest.mark.parametrize("case", COMPRESSED_CASES.values(),
                             ids=COMPRESSED_CASES.keys())
    def test_matches_repeated_macro_rows(self, case):
        problem, eps, name, n_spatial, n_velocity, features = case
        meth, colloc, rule = setup(problem, eps, name, n_spatial, n_velocity,
                                   **features)
        compressed = lstsq(meth.blocks(colloc, rule))
        repeated = lstsq(repeated_macro_blocks(meth, colloc, rule))
        assert compressed.rank == repeated.rank
        assert compressed.condition_estimate == pytest.approx(
            repeated.condition_estimate, rel=1e-3)
        err_c = error(meth, rule, compressed.coeffs)
        err_r = error(meth, rule, repeated.coeffs)
        if err_r < 1e-10:
            assert abs(err_c - err_r) <= 1e-12
        else:
            assert err_c == pytest.approx(err_r, rel=1e-6)

    @pytest.mark.parametrize("case", COMPRESSED_CASES.values(),
                             ids=COMPRESSED_CASES.keys())
    def test_objective_unchanged(self, case):
        problem, eps, name, n_spatial, n_velocity, features = case
        meth, colloc, rule = setup(problem, eps, name, n_spatial, n_velocity,
                                   **features)
        blocks = list(meth.blocks(colloc, rule))
        assert sum(b.n_rows for b in blocks) == (
            colloc.spatial_nodes.shape[0] + colloc.n_interior
            + colloc.n_boundary)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(blocks[0].n_columns)
        assert objective(blocks, coeffs) == pytest.approx(
            objective(repeated_macro_blocks(meth, colloc, rule), coeffs),
            rel=1e-12)

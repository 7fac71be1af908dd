import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg.lapack import dtpqrt

import helpers
from aprfm import assemble, cli, collocation, problems, quadrature, solve
from aprfm.errors import NonFiniteInputError
from aprfm.method import Method
from helpers import build_models


def plain_system(matrix, rhs):
    matrix = np.asarray(matrix, dtype=float)
    return assemble.LinearSystem(
        matrix=matrix, rhs=np.asarray(rhs, dtype=float),
        row_kind=np.full(matrix.shape[0], assemble.ROW_RFM),
        lam=np.ones(matrix.shape[0]))


def blocks(matrix, rhs):
    """The system as the one-block iterable ``solve.lstsq`` takes."""
    return [plain_system(matrix, rhs)]


def pinv_by_eigendecomposition(matrix, rhs):
    """Minimum-norm solution via the normal-equations eigendecomposition;
    a deliberately separate small-matrix route."""
    gram = matrix.T @ matrix
    evals, evecs = np.linalg.eigh(gram)
    inv = np.where(evals > 1e-12 * evals.max(), 1.0 / np.where(evals > 0,
                                                               evals, 1.0), 0.0)
    return evecs @ (inv * (evecs.T @ (matrix.T @ rhs)))


class TestLstsq:
    def test_identity(self):
        report = solve.lstsq(blocks(np.eye(3), [1.0, 2.0, 3.0]))
        np.testing.assert_allclose(report.coeffs, [1.0, 2.0, 3.0], atol=1e-14)
        assert report.residual_norm < 1e-14
        assert report.rank == 3

    def test_singular_tail_is_smallest_retained(self):
        # singular values 1e0 .. 1e-9, 1e-14 and 0: rank_tol 1e-10 keeps
        # the first ten
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((40, 12)))
        v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        sing = np.concatenate([10.0 ** -np.arange(10.0), [1e-14, 0.0]])
        report = solve.lstsq(blocks((u * sing) @ v.T, rng.standard_normal(40)),
                             rank_tol=1e-10)
        assert report.rank == 10
        np.testing.assert_allclose(report.singular_tail, sing[2:10],
                                   rtol=1e-6)
        assert report.condition_estimate == pytest.approx(
            report.singular_tail[0] / report.singular_tail[-1] * 1e2,
            rel=1e-6)
        short = solve.lstsq(blocks(np.diag([3.0, 2.0]), [1.0, 1.0]))
        assert short.singular_tail == pytest.approx((3.0, 2.0), rel=1e-14)

    def test_inconsistent_rows_average(self):
        report = solve.lstsq(blocks([[1.0], [1.0]], [0.0, 2.0]))
        assert report.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert report.residual_norm == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_rank_deficient_minimum_norm(self):
        matrix = np.ones((3, 2))
        rhs = np.array([3.0, 3.0, 3.0])
        report = solve.lstsq(blocks(matrix, rhs))
        oracle = pinv_by_eigendecomposition(matrix, rhs)
        np.testing.assert_allclose(report.coeffs, [1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(report.coeffs, oracle, atol=1e-12)
        assert report.rank == 1

    def test_minimum_norm_random_rank_deficient(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            base = rng.standard_normal((20, 3))
            matrix = np.concatenate([base, base[:, :1] + base[:, 1:2]], axis=1)
            rhs = rng.standard_normal(20)
            report = solve.lstsq(blocks(matrix, rhs))
            oracle = pinv_by_eigendecomposition(matrix, rhs)
            np.testing.assert_allclose(report.coeffs, oracle, atol=1e-10)
            assert np.linalg.norm(report.coeffs) <= \
                np.linalg.norm(oracle) + 1e-10

    def test_normal_equations_optimality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            matrix = rng.standard_normal((40, 7))
            rhs = rng.standard_normal(40)
            report = solve.lstsq(blocks(matrix, rhs))
            grad = matrix.T @ (matrix @ report.coeffs - rhs)
            bound = 1e-8 * np.linalg.norm(matrix) * np.linalg.norm(rhs)
            assert np.linalg.norm(grad) <= bound

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((30, 6))
        rhs = rng.standard_normal(30)
        a = solve.lstsq(blocks(matrix, rhs))
        b = solve.lstsq(blocks(matrix, rhs))
        assert a.coeffs.tobytes() == b.coeffs.tobytes()

    def test_row_blocks_give_the_stacked_solution(self):
        # blocks shorter than the column count, as the last one may be
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((50, 6))
        rhs = rng.standard_normal(50)
        whole = solve.lstsq(blocks(matrix, rhs))
        parts = solve.lstsq([plain_system(matrix[i:i + 4], rhs[i:i + 4])
                             for i in range(0, 50, 4)])
        np.testing.assert_allclose(parts.coeffs, whole.coeffs, rtol=1e-12)
        assert parts.residual_norm == pytest.approx(whole.residual_norm,
                                                    rel=1e-12)
        assert parts.rank == whole.rank == 6

    def test_blocks_must_share_columns(self):
        with pytest.raises(ValueError):
            solve.lstsq([plain_system(np.eye(3), np.ones(3)),
                         plain_system(np.eye(2), np.ones(2))])

    def test_non_finite_rejected(self):
        matrix = np.array([[1.0, np.nan]])
        with pytest.raises(NonFiniteInputError):
            solve.lstsq(blocks(matrix, [1.0]))

    def test_rank_tol_domain(self):
        with pytest.raises(ValueError):
            solve.lstsq(blocks(np.eye(2), [1.0, 1.0]), rank_tol=0.0)
        with pytest.raises(ValueError):
            solve.lstsq(blocks(np.eye(2), [1.0, 1.0]), rank_tol=1.5)


def condition(system):
    """Untruncated condition number from the solver's own spectrum: a rank
    tolerance below double precision retains every singular value."""
    return solve.lstsq([system], rank_tol=1e-16).condition_estimate


class TestConditionReport:
    def test_orthogonal_matrix(self):
        theta = 0.3
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        assert condition(plain_system(rot, [0.0, 0.0])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matrix(self):
        sys_ = plain_system(np.diag([1.0, 1e-8]), [0.0, 0.0])
        assert condition(sys_) == pytest.approx(1e8, rel=1e-10)

    def test_rescaling_improves_conditioning(self):
        # For this benchmark the assembled rows are already near
        # equilibrium, so the reduction is modest and seed-dependent;
        # seed 1 is a computed instance where it strictly decreases.
        spec = problems.catalog("ex1", 1e-8)
        rule = quadrature.angular_rule(1, 16)
        colloc = collocation.build_collocation(spec, (16,), 32)
        rho_model, g_model = build_models(spec, 16, 16, (1,), 1, seed=1)
        raw = assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule)
        scaled = assemble.rescale_rows(raw)
        cond_raw = condition(raw)
        cond_scaled = condition(scaled)
        assert np.isfinite(cond_scaled)
        assert cond_scaled < cond_raw

    def test_rescaling_tames_badly_scaled_rows(self):
        # rows of an orthogonal matrix blown up by mixed factors give a
        # condition number equal to the scale spread; row rescaling
        # removes it up to the orthogonal rows' max-entry spread
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        scales = 10.0 ** rng.integers(-8, 8, size=8)
        system = plain_system(scales[:, None] * q, np.ones(8))
        cond_raw = condition(system)
        cond_scaled = condition(assemble.rescale_rows(system))
        assert cond_raw > 1e8
        assert cond_scaled < 1e2


# (problem, eps, method, spatial nodes, velocities, boxes per axis,
# velocity boxes, features): small partitioned systems whose factors per
# signature include one over every column (ex2), none (ex2 rfm over three
# boxes, ex4 over 2 x 2) and rows touching three boxes (ex4)
PARTITIONED = {
    "ex2-aprfm-mx2": ("ex2", 1.0, "aprfm", (32,), 32, (2,), 2,
                      dict(jrho=2, jg=4)),
    "ex2-rfm-mx3": ("ex2", 1.0, "rfm", (32,), 32, (3,), 2, dict(j=3)),
    "ex4-aprfm-2x2": ("ex4", 1.0, "aprfm", (8, 8), 8, (2, 2), 2,
                      dict(jrho=2, jg=2)),
}


def method_blocks(problem, eps, method, n_spatial, n_velocity, m_spatial,
                  m_velocity, features):
    """A ``Method`` on the problem and its weighted row blocks."""
    spec = problems.catalog(problem, eps)
    config = helpers.run_config(spec, method, n_spatial, n_velocity,
                                m_spatial, m_velocity, seed=0, **features)
    meth = Method.build(spec, config)
    colloc = collocation.build_collocation(spec, n_spatial, n_velocity)
    rule = quadrature.angular_rule(spec.spatial_dim, 16)
    return meth, list(meth.blocks(colloc, rule))


class TestFactorsPerSignature:
    @pytest.mark.parametrize("case", PARTITIONED.values(),
                             ids=list(PARTITIONED))
    def test_matches_one_full_width_factor(self, case):
        # full rank and well conditioned (estimates 8.6-126), so the
        # reordered QR agrees with the single factor to roundoff
        meth, parts = method_blocks(*case)
        report = solve.lstsq(parts, box_columns=meth.box_columns)
        ref = helpers.single_factor_lstsq(parts)
        assert report.rank == ref.rank == meth.box_columns[-1][-1].stop
        np.testing.assert_allclose(report.coeffs, ref.coeffs, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref.coeffs).max())
        assert report.residual_norm == pytest.approx(ref.residual_norm,
                                                     rel=1e-12)
        np.testing.assert_allclose(report.singular_tail, ref.singular_tail,
                                   rtol=1e-12)

    def test_one_box_is_the_single_factor_bit_for_bit(self):
        # one spatial box and one velocity box: one unit (with several
        # velocity boxes there is a unit per velocity box)
        meth, parts = method_blocks("ex2", 1e-1, "aprfm", (32,), 32, (1,), 1,
                                    dict(jrho=8, jg=16))
        assert len(meth.box_columns) == 1
        report = solve.lstsq(parts, box_columns=meth.box_columns)
        ref = helpers.single_factor_lstsq(parts)
        assert np.array_equal(report.coeffs, ref.coeffs)
        assert report.residual_norm == ref.residual_norm
        assert report.singular_tail == ref.singular_tail
        assert report.condition_estimate == ref.condition_estimate

    def test_rows_fold_at_their_signature_width(self, monkeypatch):
        # each row is folded over the columns of the boxes it touches plus
        # the rhs; rows touching one box must not be folded at full width
        meth, parts = method_blocks(*PARTITIONED["ex2-aprfm-mx2"])
        folded = {}
        merges = []

        fold = solve._fold

        def recording_fold(r, rows, l=0):
            if l == 0:
                folded[rows.shape[1]] = folded.get(rows.shape[1], 0) \
                    + rows.shape[0]
            else:
                merges.append(rows.shape)
            fold(r, rows, l)

        monkeypatch.setattr(solve, "_fold", recording_fold)
        solve.lstsq(parts, box_columns=meth.box_columns)
        matrix = helpers.stack_blocks(parts).matrix
        touch = np.stack([np.any(matrix[:, np.r_[box]] != 0, axis=1)
                          for box in meth.box_columns], axis=1)
        widths = [sum(s.stop - s.start for k, box in
                      enumerate(meth.box_columns) if row[k] for s in box) + 1
                  for row in touch]
        expected = dict(zip(*np.unique(widths, return_counts=True)))
        assert folded == {int(w): int(n) for w, n in expected.items()}
        z = meth.box_columns[-1][-1].stop
        assert set(folded) == {z // 2 + 1, z + 1}
        assert len(merges) == 2  # the one-box factors, into the full one


# (problem, eps, method, spatial nodes, velocities, velocity boxes,
# features): one spatial box and several velocity boxes, small, full rank
# and well conditioned (estimates 185-372)
VELOCITY_GROUPED = {
    "ex5-aprfm-mv2": ("ex5", 1.0, "aprfm", (8, 8), 16, 2,
                      dict(jrho=8, jg=8)),
    "ex6-aprfm-mv4": ("ex6", 1.0, "aprfm", (8, 8), 32, 4,
                      dict(jrho=8, jg=8)),
    "ex1-rfm-mv2": ("ex1", 1.0, "rfm", (16,), 32, 2, dict(j=8)),
}


def grouped_blocks(problem, eps, method, n_spatial, n_velocity, m_velocity,
                   features):
    """A ``Method`` with one spatial box, its weighted row blocks and its
    velocity groups at the collocation velocities."""
    meth, parts = method_blocks(problem, eps, method, n_spatial, n_velocity,
                                (1,), m_velocity, features)
    spec = meth.spec
    velocities = collocation.build_collocation(
        spec, n_spatial, n_velocity).velocity_nodes
    return meth, parts, meth.velocity_groups(velocities)


def householder(weights, rows):
    """H rows for the reflection H with H weights = -|weights| e_1, from
    its definition."""
    u = weights.copy()
    u[0] += np.linalg.norm(weights)
    return rows - np.outer(u, 2.0 * (u @ rows) / (u @ u))


class TestVelocityGroups:
    @pytest.mark.parametrize("case", VELOCITY_GROUPED.values(),
                             ids=list(VELOCITY_GROUPED))
    def test_matches_one_full_width_factor(self, case):
        meth, parts, groups = grouped_blocks(*case)
        assert len(groups) > len(meth.box_columns) > 1
        with helpers.fold_flops() as flops:
            report = solve.lstsq(parts, box_columns=meth.box_columns,
                                 velocity_groups=groups)
        ref = helpers.single_factor_lstsq(parts)
        z = parts[0].n_columns
        full_width = 2.0 * sum(b.n_rows for b in parts) * (z + 1) ** 2
        assert flops["fold"] < full_width
        assert report.rank == ref.rank == z
        np.testing.assert_allclose(report.coeffs, ref.coeffs, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref.coeffs).max())
        assert report.residual_norm == pytest.approx(ref.residual_norm,
                                                     rel=1e-12)
        np.testing.assert_allclose(report.singular_tail, ref.singular_tail,
                                   rtol=1e-12)

    def test_block_with_inflow_rows_after_its_interior(self):
        # one block of the whole system: macro, interior, then inflow rows,
        # which are split by signature after the reflected ones
        meth, parts, groups = grouped_blocks(
            *VELOCITY_GROUPED["ex6-aprfm-mv4"])
        whole = helpers.stack_blocks(parts)
        assert whole.row_kind[-1] == assemble.ROW_BOUNDARY
        macro = np.flatnonzero(whole.row_kind == assemble.ROW_MACRO)
        order = np.concatenate([macro, np.setdiff1d(np.arange(whole.n_rows),
                                                    macro)])
        block = dataclasses.replace(whole, **{
            name: getattr(whole, name)[order]
            for name in ("matrix", "rhs", "row_kind", "lam")})
        report = solve.lstsq([block], box_columns=meth.box_columns,
                             velocity_groups=groups)
        ref = helpers.single_factor_lstsq([block])
        assert report.rank == ref.rank
        np.testing.assert_allclose(report.coeffs, ref.coeffs, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref.coeffs).max())
        assert report.residual_norm == pytest.approx(ref.residual_norm,
                                                     rel=1e-12)

    @pytest.mark.parametrize("case", VELOCITY_GROUPED.values(),
                             ids=list(VELOCITY_GROUPED))
    def test_reflected_rows_vanish_outside_their_units(self, case):
        meth, parts, groups = grouped_blocks(*case)
        units = meth.box_columns
        block = parts[0]
        n_v, z = groups[-1][1], block.n_columns
        n_macro = np.count_nonzero(block.row_kind == assemble.ROW_MACRO)
        n_x = (block.n_rows - n_macro) // n_v
        folds = solve._block_rows(block, units, groups)
        # every unit: the macro rows, then each group's first rows; then
        # the other rows of each group of several velocities
        assert [signature for signature, _ in folds] == \
            [tuple(range(len(units)))] + [group for lo, hi, group in groups
                                          if hi - lo > 1]
        dense = folds[0][1]
        assert dense.shape == (n_macro + n_x * len(groups), z + 1)
        weighted = np.column_stack(helpers.weighted(block))
        np.testing.assert_array_equal(dense[:n_macro], weighted[:n_macro])
        interior = weighted[n_macro:].reshape(n_x, n_v, z + 1)
        others = iter(rows for _, rows in folds[1:])
        zeroed = []
        for g, (lo, hi, group) in enumerate(groups):
            rows = next(others) if hi - lo > 1 else None
            columns = solve._signature_columns(units, group)
            inside = np.r_[tuple(columns) + (slice(z, z + 1),)]
            outside = np.setdiff1d(np.arange(z + 1), inside)
            for node in range(n_x):
                expected = householder(
                    block.lam[n_macro + node * n_v + lo:
                              n_macro + node * n_v + hi],
                    interior[node, lo:hi])
                scale = np.abs(expected).max(axis=1)
                np.testing.assert_allclose(
                    dense[n_macro + g * n_x + node], -expected[0], rtol=0,
                    atol=1e-13 * scale[0])
                if rows is None:
                    continue
                # the folded rows hold the group's columns alone: they are
                # exact zeros outside them, where the reflected rows carry
                # the cancellation's roundoff
                assert rows.shape == (n_x * (hi - lo - 1), inside.size)
                got = rows[node * (hi - lo - 1):(node + 1) * (hi - lo - 1)]
                assert np.all(np.abs(got - expected[1:, inside])
                              <= 1e-13 * scale[1:, None])
                zeroed.append(np.abs(expected[1:, outside]).max(
                    axis=1, initial=0.0) / scale[1:])
        assert zeroed and max(map(np.max, zeroed)) <= 1e-13

    @pytest.mark.parametrize("case", [
        ("ex2", 1.0, "aprfm", (32,), 32, (1,), 1, dict(jrho=4, jg=8)),
        PARTITIONED["ex2-aprfm-mx2"], PARTITIONED["ex2-rfm-mx3"],
        PARTITIONED["ex4-aprfm-2x2"]],
        ids=["ex2-mv1", "ex2-aprfm-mx2", "ex2-rfm-mx3", "ex4-aprfm-2x2"])
    def test_one_velocity_box_or_several_spatial_boxes_fold_as_copied(
            self, case):
        # no groups: each signature's rows are the weighted rows of the
        # block over its units' columns, bit for bit
        meth, parts = method_blocks(*case)
        spec = meth.spec
        velocities = collocation.build_collocation(
            spec, case[3], case[4]).velocity_nodes
        assert meth.velocity_groups(velocities) is None
        units = meth.box_columns
        for block in parts:
            folds = solve._block_rows(block, units, None)
            touch = np.stack([np.any(block.matrix[:, np.r_[unit]] != 0,
                                     axis=1) for unit in units], axis=1)
            assert sum(rows.shape[0] for _, rows in folds) == block.n_rows
            assert len({signature for signature, _ in folds}) == len(folds)
            for signature, rows in folds:
                columns = solve._signature_columns(units, signature)
                at = np.flatnonzero(np.all(
                    touch == np.isin(np.arange(len(units)), signature),
                    axis=1))
                expected = np.column_stack([
                    block.matrix[at][:, np.r_[columns]]
                    * block.lam[at, None], block.rhs[at] * block.lam[at]])
                assert np.array_equal(rows, expected)

    def test_narrow_rows_copy_in_tiles_bitwise(self):
        # a narrow block's long runs go in tiles of rows
        rng = np.random.default_rng(4)
        block = plain_system(rng.standard_normal((6000, 64)),
                             rng.standard_normal(6000))
        block = dataclasses.replace(block, lam=rng.random(6000) + 0.5)
        assert solve._COPY_TILE // 64 < 3000
        runs, columns = [(0, 2500), (2600, 5999)], (slice(3, 20),
                                                     slice(30, 64))
        rows = solve._weighted_rows(block, runs, columns)
        at = np.r_[0:2500, 2600:5999]
        expected = np.column_stack([
            block.matrix[at][:, np.r_[3:20, 30:64]] * block.lam[at, None],
            block.rhs[at] * block.lam[at]])
        assert np.array_equal(rows, expected)

    def test_annulus_benchmark_folds_a_quarter(self):
        # acceptance criterion 6's ex6 model: 45.45 GF of folds at full
        # width, about 10.7 GF by velocity group
        spec = problems.catalog("ex6", 1.0)
        config = helpers.run_config(spec, "aprfm", (32, 32), 64, (1,), 4,
                                    jrho=64, jg=128)
        with helpers.fold_flops() as flops:
            solution = helpers.solve(spec, config)
        assert solution.report.rank == 576
        assert flops["fold"] <= 12e9
        assert flops["merge"] <= 2e9


def triangle(rng, n):
    return np.asfortranarray(np.triu(rng.standard_normal((n, n))))


def f2py_fold(r, rows, l=0):
    """scipy's f2py ``dtpqrt`` on copies: the independent reference."""
    folded, _, _, info = dtpqrt(l, min(16, r.shape[0]), np.asfortranarray(r),
                                np.asfortranarray(rows))
    assert info == 0
    return folded


class TestFold:
    def test_full_rows_match_f2py(self):
        rng = np.random.default_rng(0)
        r = np.zeros((41, 41), order="F")
        rows = np.asfortranarray(rng.standard_normal((300, 41)))
        expected = f2py_fold(r, rows)
        solve._fold(r, rows)
        assert np.array_equal(r, expected)

    def test_trapezoidal_rows_fold_into_view_in_place(self):
        # as in the merge: a factor's rows placed from column k on, folded
        # into the trailing part r[k:, k:] through r's leading dimension
        rng = np.random.default_rng(1)
        r = triangle(rng, 60)
        k, w = 23, 9
        rows = np.asfortranarray(np.triu(rng.standard_normal((w + 1,
                                                              60 - k))))
        expected = f2py_fold(r[k:, k:], rows, l=w + 1)
        before = r.copy(order="F")
        solve._fold(r[k:, k:], rows, l=w + 1)
        assert np.array_equal(r[k:, k:], expected)
        assert np.array_equal(r[:k], before[:k])
        assert np.array_equal(r[:, :k], before[:, :k])

    def test_impossible_trapezoid_names_info(self):
        r = np.zeros((5, 5), order="F")
        with pytest.raises(np.linalg.LinAlgError, match="info -3"):
            solve._fold(r, np.zeros((3, 5), order="F"), l=7)

    @pytest.mark.parametrize("operand", ["r", "rows"])
    @pytest.mark.parametrize("layout", [
        lambda shape: np.zeros(shape),
        lambda shape: np.zeros(shape, np.float32, order="F"),
        lambda shape: np.zeros(shape, order="F")[::-1, ::-1],
        lambda shape: np.broadcast_to(np.zeros(shape[1]), shape)],
        ids=["c-order", "float32", "reversed", "read-only"])
    def test_rejects_layout_lapack_cannot_read(self, operand, layout):
        operands = {"r": np.zeros((5, 5), order="F"),
                    "rows": np.zeros((3, 5), order="F")}
        operands[operand] = layout(operands[operand].shape)
        with pytest.raises(ValueError, match="fold operands must"):
            solve._fold(operands["r"], operands["rows"])


class TestFoldConcurrency:
    def test_threads_give_serial_result(self):
        # more folding threads than cores, binding dtpqrt afresh, with
        # frequent switches: each factor must be the serial one bit for bit
        rng = np.random.default_rng(2)
        cases = [(triangle(rng, 257), np.asfortranarray(
            rng.standard_normal((1024, 257)))) for _ in range(4)]
        expected = [f2py_fold(r, rows) for r, rows in cases]
        threads = [threading.Thread(target=solve._fold, args=case)
                   for case in cases]
        interval = sys.getswitchinterval()
        solve._dtpqrt.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (r, _), folded in zip(cases, expected):
            assert np.array_equal(r, folded)

    def test_other_threads_run_during_a_fold(self):
        # a fold of about 0.3 s on two cores; a ticking thread must not
        # wait for it, as it does while a call holds the GIL
        rng = np.random.default_rng(3)
        r = np.zeros((961, 961), order="F")
        rows = np.asfortranarray(rng.standard_normal((4096, 961)))
        ticks, done = [time.perf_counter()], threading.Event()

        def tick():
            while not done.is_set():
                time.sleep(1e-3)
                ticks.append(time.perf_counter())

        ticker = threading.Thread(target=tick)
        ticker.start()
        time.sleep(0.02)
        start = time.perf_counter()
        solve._fold(r, rows)
        duration = time.perf_counter() - start
        time.sleep(0.02)
        done.set()
        ticker.join(timeout=10)
        assert not ticker.is_alive()
        assert sum(start < t < start + duration for t in ticks) > 1
        assert np.diff(ticks).max() < duration / 4


def row_pieces(parts, size):
    """The rows of the blocks ``parts`` again, as blocks of at most
    ``size`` rows."""
    return [dataclasses.replace(
        block, **{name: getattr(block, name)[lo:lo + size]
                  for name in ("matrix", "rhs", "row_kind", "lam")})
        for block in parts for lo in range(0, block.n_rows, size)]


@pytest.fixture
def two_blas_threads():
    """Both OpenBLAS copies on two threads, as a lone run on the 2-core
    box finds them."""
    with helpers.blas_threads(2) as controls:
        yield controls


class TestFoldPipeline:
    def test_helper_folds_match_inline_folds_bitwise(self, two_blas_threads,
                                                     monkeypatch):
        # ex4 over 2 x 2 boxes in blocks of 64 rows: most blocks hold rows
        # of several signatures, and a block folds while the next is cut
        meth, parts = method_blocks(*PARTITIONED["ex4-aprfm-2x2"])
        parts = row_pieces(parts, 64)
        assert len(parts) > 4
        get = two_blas_threads[0][0]
        folds, merged = [], []
        fold, merge = solve._fold, solve._merge

        def recording_fold(r, rows, l=0):
            folds.append((l == 0, threading.get_ident(), get()))
            fold(r, rows, l)

        def recording_merge(factors, z):
            merged.append(merge(factors, z))
            return merged[-1]

        monkeypatch.setattr(solve, "_fold", recording_fold)
        monkeypatch.setattr(solve, "_merge", recording_merge)
        helper = solve.lstsq(parts, box_columns=meth.box_columns)
        helper_folds, folds[:] = folds[:], []
        with solve._one_blas_thread() as taken:
            assert taken == 1
            inline = solve.lstsq(parts, box_columns=meth.box_columns)
        caller = threading.get_ident()
        # the folds ran on one other thread at one BLAS thread, the merge
        # on the caller at one BLAS thread too; inline, all on the caller
        assert {(thread != caller, count) for block_fold, thread, count
                in helper_folds if block_fold} == {(True, 1)}
        assert {(thread, count) for block_fold, thread, count
                in helper_folds if not block_fold} == {(caller, 1)}
        assert {thread for _, thread, _ in folds} == {caller}
        assert np.array_equal(merged[0], merged[1])
        assert helper.coeffs.tobytes() == inline.coeffs.tobytes()
        assert helper.residual_norm == inline.residual_norm
        assert helper.rank == inline.rank
        assert helper.condition_estimate == inline.condition_estimate
        assert helper.singular_tail == inline.singular_tail

    def assert_cleaned_up(self, controls, threads):
        assert [get() for get, _ in controls] == [2, 2]
        assert threading.active_count() == threads

    def test_block_failure_while_a_fold_is_pending_reaches_caller(
            self, two_blas_threads, monkeypatch):
        meth, parts = method_blocks(*PARTITIONED["ex2-aprfm-mx2"])
        folding, raised = threading.Event(), threading.Event()
        fold = solve._fold

        def held_fold(r, rows, l=0):
            folding.set()
            raised.wait(timeout=30)  # still folding when the blocks fail
            fold(r, rows, l)

        def failing_blocks():
            yield parts[0]
            assert folding.wait(timeout=30)
            raised.set()
            raise RuntimeError("stand-in assembly failure")

        monkeypatch.setattr(solve, "_fold", held_fold)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="stand-in assembly failure"):
            solve.lstsq(failing_blocks(), box_columns=meth.box_columns)
        self.assert_cleaned_up(two_blas_threads, threads)

    @pytest.mark.parametrize("last", [False, True],
                             ids=["awaited-before-next", "awaited-at-end"])
    def test_fold_failure_reaches_caller(self, two_blas_threads,
                                         monkeypatch, last):
        meth, parts = method_blocks(*PARTITIONED["ex2-aprfm-mx2"])
        if last:  # the only block's fold fails: no next block waits on it
            parts = parts[-1:]
        failed = []

        def failing_fold(r, rows, l=0):
            failed.append(threading.get_ident())
            raise np.linalg.LinAlgError("stand-in fold failure")

        monkeypatch.setattr(solve, "_fold", failing_fold)
        threads = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError,
                           match="stand-in fold failure"):
            solve.lstsq(parts, box_columns=meth.box_columns)
        assert len(failed) == 1 and failed[0] != threading.get_ident()
        self.assert_cleaned_up(two_blas_threads, threads)

    def test_only_lone_runs_start_a_helper(self, two_blas_threads,
                                           monkeypatch):
        def no_helper(workers):
            raise RuntimeError("a helper thread was started")

        monkeypatch.setattr(solve, "ThreadPoolExecutor", no_helper)
        cells = [cli.RunConfig(problem="ex1", method="aprfm", epsilon=0.5,
                               j=6, nx=8, nv=16, mx=mx) for mx in (1, 2)]
        cli.sweep(cells, cli.RunConfig(seeds=1))
        with solve._one_blas_thread():
            cli.run(cells[1])  # as under OPENBLAS_NUM_THREADS=1
        with pytest.raises(RuntimeError, match="helper thread"):
            cli.run(cells[1])

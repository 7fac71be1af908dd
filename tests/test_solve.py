import numpy as np
import pytest

from aprfm import assemble, collocation, problems, quadrature, solve
from aprfm.errors import NonFiniteInputError
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

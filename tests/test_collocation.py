import numpy as np
import pytest

from aprfm import collocation, problems
from aprfm.collocation import _tensor
from aprfm.problems import HOLE_HALF_WIDTH


def interior(spec, n_spatial, n_velocity):
    """The interior points X (N, d) and V (N,), flattened space-major."""
    return _tensor(*collocation._nodes(spec, n_spatial, n_velocity))


class TestInteriorGrid:
    def test_1d_count(self):
        spec = problems.catalog("ex1", 1.0)
        x, v = interior(spec, (2,), 2)
        assert x.shape == (4, 1) and v.shape == (4,)

    def test_2d_square_count(self):
        spec = problems.catalog("ex4", 1.0)
        x, v = interior(spec, (32, 32), 64)
        assert x.shape == (65536, 2)

    def test_cell_centering(self):
        spec = problems.catalog("ex1", 1.0)
        x, v = interior(spec, (4,), 4)
        np.testing.assert_allclose(np.unique(x),
                                   [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(np.unique(v),
                                   [-0.75, -0.25, 0.25, 0.75])

    def test_annulus_drops_hole(self):
        spec = problems.catalog("ex6", 1.0)
        x, _ = interior(spec, (16, 16), 4)
        assert np.all(np.max(np.abs(x), axis=1) >= HOLE_HALF_WIDTH)
        # brute-force count of surviving cells
        axis = collocation.cell_centers(-1.0, 1.0, 16)
        kept = sum(1 for a in axis for b in axis
                   if max(abs(a), abs(b)) >= HOLE_HALF_WIDTH)
        assert x.shape[0] == kept * 4

    def test_points_strictly_inside(self):
        spec = problems.catalog("ex1", 1.0)
        x, _ = interior(spec, (8,), 8)
        assert x.min() > 0.0 and x.max() < 1.0

    def test_cell_grid_factors(self):
        spec = problems.catalog("ex6", 1.0)
        axes, points, mask = collocation.cell_grid(spec, (16, 8))
        assert points.shape == (16, 8, 2) and mask.shape == (16, 8)
        np.testing.assert_array_equal(axes[0],
                                      collocation.cell_centers(-1, 1, 16))
        np.testing.assert_array_equal(points[3, 5], [axes[0][3], axes[1][5]])
        np.testing.assert_array_equal(
            mask, np.max(np.abs(points), axis=-1) >= HOLE_HALF_WIDTH)
        np.testing.assert_array_equal(
            collocation._nodes(spec, (16, 8), 2)[0], points[mask])

    def test_cell_grid_needs_one_count_per_axis(self):
        spec = problems.catalog("ex4", 1.0)
        with pytest.raises(ValueError):
            collocation.cell_grid(spec, (8,))

    def test_interior_is_space_major(self):
        spec = problems.catalog("ex1", 1.0)
        x, v = interior(spec, (3,), 2)
        np.testing.assert_allclose(x[:2, 0], x[0, 0])
        assert v[0] != v[1]


class TestInflowBoundary:
    def test_1d_faces(self):
        spec = problems.catalog("ex1", 1.0)
        x, v, val = collocation.inflow_boundary(spec, (2,), 16)
        at_left = x[:, 0] == 0.0
        assert np.all(v[at_left] > 0) and np.all(val[at_left] == 1.0)
        at_right = x[:, 0] == 1.0
        assert np.all(v[at_right] < 0) and np.all(val[at_right] == 0.0)
        assert at_left.sum() == 8 and at_right.sum() == 8

    def test_outflow_rejected(self):
        spec = problems.catalog("ex1", 1.0)
        x, v, _ = collocation.inflow_boundary(spec, (2,), 16)
        # v . n < 0 strictly everywhere: n = -1 at x=0, +1 at x=1
        normals = np.where(x[:, 0] == 0.0, -1.0, 1.0)
        assert np.all(v * normals < 0.0)

    def test_square_inflow_condition(self):
        spec = problems.catalog("ex4", 1.0)
        x, v, _ = collocation.inflow_boundary(spec, (8, 8), 16)
        on_left = x[:, 0] == -1.0
        assert np.all(np.cos(v[on_left]) > 0)
        on_top = x[:, 1] == 1.0
        assert np.all(np.sin(v[on_top]) < 0)

    def test_annulus_inner_face(self):
        spec = problems.catalog("ex6", 1.0)
        x, v, val = collocation.inflow_boundary(spec, (8, 8), 16)
        inner_right = (x[:, 0] == HOLE_HALF_WIDTH) \
            & (np.abs(x[:, 1]) < HOLE_HALF_WIDTH)
        assert np.any(inner_right)
        assert np.all(np.cos(v[inner_right]) > 0)
        np.testing.assert_allclose(
            val[inner_right],
            np.exp(-HOLE_HALF_WIDTH - x[inner_right, 1]), rtol=1e-14)

    def test_face_spans_inner_segment_only(self):
        spec = problems.catalog("ex6", 1.0)
        x, _, _ = collocation.inflow_boundary(spec, (8, 8), 16)
        inner = (np.abs(x[:, 0]) == HOLE_HALF_WIDTH) | \
                (np.abs(x[:, 1]) == HOLE_HALF_WIDTH)
        assert np.all(np.max(np.abs(x[inner]), axis=1) <= HOLE_HALF_WIDTH)

    def test_deterministic(self):
        spec = problems.catalog("ex4", 0.5)
        a = collocation.inflow_boundary(spec, (4, 4), 8)
        b = collocation.inflow_boundary(spec, (4, 4), 8)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)


class TestEvaluationGrid:
    def test_1d_size(self):
        spec = problems.catalog("ex1", 1.0)
        x, v = _tensor(*collocation.evaluation_nodes(spec))
        assert x.shape == (32768, 1)

    def test_2d_square_size(self):
        spec = problems.catalog("ex4", 1.0)
        x, _ = _tensor(*collocation.evaluation_nodes(spec))
        assert x.shape == (131072, 2)

    def test_annulus_size_matches_brute_force(self):
        spec = problems.catalog("ex6", 1.0)
        x, _ = _tensor(*collocation.evaluation_nodes(spec))
        axis = collocation.cell_centers(-1.0, 1.0, 64)
        hole = sum(1 for a in axis for b in axis
                   if max(abs(a), abs(b)) < HOLE_HALF_WIDTH)
        assert x.shape[0] == (64 * 64 - hole) * 32
        assert x.shape[0] == 115584


class TestBuildCollocation:
    def test_counts_and_structure(self):
        spec = problems.catalog("ex1", 1.0)
        cs = collocation.build_collocation(spec, (8,), 16)
        assert cs.n_interior == 128
        assert cs.n_boundary == 16  # two faces, half the nodes kept each
        assert cs.spatial_nodes.shape == (8, 1)
        assert cs.velocity_nodes.shape == (16,)

    def test_immutability(self):
        spec = problems.catalog("ex1", 1.0)
        cs = collocation.build_collocation(spec, (4,), 4)
        with pytest.raises(ValueError):
            cs.spatial_nodes[0, 0] = 2.0

    def test_fine_dyadic_grid_accepted(self):
        # 2^18 cells put no node on a window joint of a dyadic partition
        spec = problems.catalog("ex1", 1.0)
        cs = collocation.build_collocation(spec, (2 ** 18,), 2)
        assert cs.n_interior == 2 ** 19

    def test_rejects_tiny_counts(self):
        spec = problems.catalog("ex1", 1.0)
        with pytest.raises(ValueError):
            collocation.build_collocation(spec, (1,), 4)

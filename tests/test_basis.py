import tracemalloc

import numpy as np
import pytest

from aprfm import assemble, basis, collocation, problems
from aprfm.collocation import _phase, _tensor
from aprfm.errors import DegenerateCoverError
from helpers import build_models, dense_column_batch, dense_model_values


def unit_square_partition(counts=(1, 1)):
    return basis.uniform_partition([(0.0, 1.0), (-1.0, 1.0)], counts)


def window(z):
    return basis._axis_pou(np.asarray(z, dtype=float))[0]


class TestNormalizeToBox:
    """The kernels map box i onto [-1, 1]^d by z = (y - c_i) / r_i, with
    the partition's centers and half-widths."""

    def test_midpoint_maps_to_zero(self):
        part = basis.uniform_partition([(0.2, 0.8), (-1.0, 3.0)], (1, 1))
        np.testing.assert_allclose(part.centers, [[0.5, 1.0]])
        np.testing.assert_allclose(part.radii, [[0.3, 2.0]])

    def test_unit_interval_endpoints(self):
        part = basis.uniform_partition([(0.0, 1.0)], (1,))
        assert part.centers[0, 0] == 0.5 and part.radii[0, 0] == 0.5
        # z = -1, 1 and 0.5: half weight on the faces, flat inside
        psi, _ = basis.pou_raw_batch(part, np.array([[0.0], [1.0], [0.75]]))
        np.testing.assert_allclose(psi[:, 0], [0.5, 0.5, 1.0], atol=1e-15)


class TestPouUnivariate:
    def test_bump_values(self):
        assert window(0.0) == 1.0
        assert window(1.0) == pytest.approx(0.5)
        assert window(-1.0) == pytest.approx(0.5)
        assert window(2.0) == 0.0

    def test_bump_continuity_at_joints(self):
        for joint in (0.75, 1.25, -0.75, -1.25):
            lo = window(joint - 1e-9)
            hi = window(joint + 1e-9)
            assert abs(lo - hi) < 1e-7


class TestPouTensorNormalized:
    def test_single_box_is_one(self):
        part = unit_square_partition((1, 1))
        pts = np.array([[0.5, 0.0], [0.01, -0.99], [0.99, 0.73]])
        psi, _ = basis.pou_normalized_batch(part, pts)
        np.testing.assert_allclose(psi, 1.0)

    # here and below the ids name the window, phi_b, whose joints at
    # |z| = 3/4 and 5/4 the assertions use
    @pytest.mark.parametrize("counts", [(1, 1), (2, 2), (4, 2), (8, 8)],
                             ids=[f"counts{i}-phi_b" for i in range(4)])
    def test_sums_to_one(self, counts):
        part = unit_square_partition(counts)
        rng = np.random.default_rng(7)
        pts = rng.uniform([0, -1], [1, 1], size=(200, 2))
        psi, _ = basis.pou_normalized_batch(part, pts)
        np.testing.assert_allclose(psi.sum(axis=1), 1.0, atol=1e-13)

    def test_flat_region_exclusivity(self):
        part = unit_square_partition((2, 2))
        # deep inside box (0, 0): |z| <= 3/4 on both axes, so the bump of
        # every other box vanishes there
        psi, _ = basis.pou_normalized_batch(part, np.array([[0.25, -0.5]]))
        np.testing.assert_allclose(psi[0], [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_degenerate_cover(self):
        part = unit_square_partition((1, 1))
        with pytest.raises(DegenerateCoverError, match="outside"):
            basis.pou_normalized_batch(part, np.array([[5.0, 0.0]]))

    def test_support(self):
        part = unit_square_partition((2, 2))
        psi, _ = basis.pou_raw_batch(part, np.array([[0.9, 0.9]]))
        # box 0 spans x in [0, 0.5]: |z| = (0.9 - 0.25) / 0.25 = 2.6 >= 5/4
        assert psi[0, 0] == 0.0


class TestFeatureEval:
    """Single neurons through ``column_batch``, the kernel assembly uses."""

    def test_zero_weights(self):
        part = unit_square_partition((1, 1))
        model = basis.FeatureModel(partition=part, w=np.zeros((1, 1, 2)),
                                   b=np.zeros((1, 1)))
        for axis in range(2):
            chi, dchi = basis.column_batch(model, np.array([[0.3, 0.2]]),
                                           np.eye(2)[axis])
            assert chi[0, 0] == 0.0 and dchi[0, 0] == 0.0

    def test_sine_activation_peak(self):
        part = unit_square_partition((1, 1))
        model = basis.FeatureModel(partition=part, w=np.zeros((1, 1, 2)),
                                   b=np.full((1, 1), 0.5),
                                   activation="sine-pi")
        chi, _ = basis.column_batch(model, np.array([[0.5, 0.0]]))
        assert chi[0, 0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("activation", ["tanh", "sine-pi"])
    def test_gradient_matches_finite_differences(self, activation):
        # the derivative along full (x, v) directions, velocity included,
        # off the window joints
        part = basis.uniform_partition([(0.0, 1.0), (-1.0, 1.0)], (2, 2))
        model = basis.make_model(part, 5, seed=11, range_b=2.0,
                                 activation=activation)
        rng = np.random.default_rng(3)
        pts = rng.uniform([0, -1], [1, 1], size=(200, 2))
        az = np.abs((pts[:, None, :] - part.centers) / part.radii)
        off = np.all(np.abs(az[..., None] - [0.75, 1.25]) > 1e-3,
                     axis=(1, 2, 3))
        pts = pts[off][:100]
        dirs = rng.standard_normal(pts.shape)
        h = 1e-6
        _, grad = basis.column_batch(model, pts, dirs)
        up, _ = basis.column_batch(model, pts + h * dirs)
        dn, _ = basis.column_batch(model, pts - h * dirs)
        fd = (up - dn) / (2 * h)
        scale = np.maximum(np.abs(fd).max(axis=1, keepdims=True), 1.0)
        assert len(pts) == 100
        assert np.all(np.abs(grad - fd) <= 1e-6 * scale)


# phase-space partitions: space x velocity in 2D, space^2 x angle in 3D
PHASE_BOUNDS = {2: ([(0.0, 1.0), (-1.0, 1.0)], (2, 3)),
                3: ([(0.0, 1.0), (0.0, 1.0), (0.0, 2 * np.pi)], (2, 1, 3))}


def phase_model(dim, counts=None, **kwargs):
    bounds, default = PHASE_BOUNDS[dim]
    part = basis.uniform_partition(bounds, counts or default)
    return basis.make_model(part, 4, seed=5, range_b=2.0, **kwargs)


def random_points(model, n, seed):
    lo = model.partition.centers - model.partition.radii
    hi = model.partition.centers + model.partition.radii
    return np.random.default_rng(seed).uniform(lo.min(axis=0),
                                               hi.max(axis=0),
                                               size=(n, model.dim))


class TestColumnKernel:
    @pytest.mark.parametrize("dim", [2, 3], ids=["phi_b-2", "phi_b-3"])
    @pytest.mark.parametrize("activation", basis.ACTIVATIONS)
    def test_directional_derivative_matches_finite_differences(
            self, activation, dim):
        # derivative of the glued columns along a spatial direction (the
        # last axis is velocity), checked off the window joints: on flat
        # and ramp parts of the windows and outside their support
        model = phase_model(dim, activation=activation)
        part = model.partition
        pts = random_points(model, 400, seed=19)
        dirs = np.random.default_rng(3).standard_normal((400, dim - 1))
        az = np.abs((pts[:, None, :] - part.centers) / part.radii)
        off = np.all(np.abs(az[..., None] - [0.75, 1.25]) > 1e-3,
                     axis=(1, 2, 3))
        pts, dirs, az = pts[off], dirs[off], az[off]
        h = 1e-6
        step = h * np.pad(dirs, ((0, 0), (0, 1)))
        chi, dchi = basis.column_batch(model, pts, dirs)
        up, _ = basis.column_batch(model, pts + step)
        dn, _ = basis.column_batch(model, pts - step)
        fd = (up - dn) / (2 * h)
        np.testing.assert_allclose(dchi, fd, rtol=0,
                                   atol=1e-6 * max(np.abs(fd).max(), 1.0))
        np.testing.assert_array_equal(chi, basis.column_batch(model, pts)[0])

        outside = np.any(az > 1.25, axis=2)
        flat = np.all(az <= 0.75, axis=2)
        ramp = ~outside & ~flat
        assert outside.sum() > 20 and flat.sum() > 20 and ramp.sum() > 20
        per_box = (len(pts), model.n_boxes, model.n_features)
        assert not np.any(dchi.reshape(per_box)[outside])
        assert not np.any(chi.reshape(per_box)[outside])

    @pytest.mark.parametrize("counts", [(2, 1), (1, 4), (1, 8), (2, 1, 4)],
                             ids=["mx2", "mv4", "mv8", "3d-mv4"])
    @pytest.mark.parametrize("activation", basis.ACTIVATIONS)
    def test_matches_dense_reference(self, activation, counts):
        model = phase_model(len(counts), counts, activation=activation)
        pts = random_points(model, 500, seed=4)
        dirs = np.random.default_rng(5).standard_normal((500,
                                                         model.dim - 1))
        chi, dchi = basis.column_batch(model, pts, dirs)
        chi_ref, grad_ref = dense_column_batch(model, pts)
        dchi_ref = np.einsum("nzk,nk->nz", grad_ref[..., :-1], dirs)
        for got, ref in ((chi, chi_ref), (dchi, dchi_ref)):
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-14 * np.abs(ref).max())
            np.testing.assert_array_equal(got == 0.0, ref == 0.0)
        coeffs = np.random.default_rng(6).standard_normal(model.n_columns)
        ref = dense_model_values(model, coeffs, pts)
        np.testing.assert_allclose(basis.model_values(model, coeffs, pts),
                                   ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    def test_direction_components_checked(self):
        model = phase_model(2)
        with pytest.raises(ValueError):
            basis.column_batch(model, random_points(model, 3, 0),
                               np.ones(3))


def product_grid(model, n_x, n_v, seed):
    """Random spatial points (n_x, D - 1) and sorted velocities (n_v,)
    over a phase model's cube."""
    pts = random_points(model, n_x + n_v, seed)
    return pts[:n_x, :-1], np.sort(pts[n_x:, -1])


def dense_transport(model, xs, vs):
    """Columns and their derivative along each velocity's transport
    direction at the product of xs and vs, every box at every point."""
    dim = xs.shape[1]
    dirs = np.tile(problems.direction(dim, vs), (xs.shape[0], 1))
    chi, grad = dense_column_batch(model, _phase(*_tensor(xs, vs)))
    return chi, np.einsum("nzk,nk->nz", grad[..., :dim], dirs)


class TestProductKernel:
    """The kernel over the product of spatial points and velocities, with
    windows and pre-activations split over the two factors."""

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2), (2, 1, 3),
                                        (2, 2, 2)],
                             ids=["phi_b-1d-mx2-mv3", "phi_b-1d-mx3-mv2",
                                  "phi_b-2d-mx2-mv3", "phi_b-2d-mx4-mv2"])
    @pytest.mark.parametrize("activation", basis.ACTIVATIONS)
    def test_matches_dense_reference(self, activation, counts):
        model = phase_model(len(counts), counts, activation=activation)
        xs, vs = product_grid(model, 60, 40, seed=8)
        dirs = problems.direction(xs.shape[1], vs)
        chi, dchi = basis.column_batch(model, xs, dirs, velocities=vs)
        for got, ref in zip((chi, dchi), dense_transport(model, xs, vs)):
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-14 * np.abs(ref).max())
            np.testing.assert_array_equal(got == 0.0, ref == 0.0)
        coeffs = np.random.default_rng(6).standard_normal(model.n_columns)
        ref = dense_model_values(model, coeffs, _phase(*_tensor(xs, vs)))
        np.testing.assert_allclose(basis.model_values(model, coeffs, xs, vs),
                                   ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("activation", basis.ACTIVATIONS,
                             ids=[f"{a}-phi_b" for a in basis.ACTIVATIONS])
    def test_exact_zeros_outside_windows(self, activation):
        # dyadic nodes, among them the |z| = 5/4 joints of the window:
        # x = 9/16 and 7/16 for the spatial boxes, v = -1/8 and 1/8 for
        # the velocity boxes
        model = phase_model(2, (2, 2), activation=activation)
        xs = np.arange(33)[:, None] / 32.0
        vs = np.arange(-16, 17) / 16.0
        chi, dchi = basis.column_batch(model, xs, vs[:, None], velocities=vs)
        part = model.partition
        z = np.abs((_phase(*_tensor(xs, vs))[:, None, :] - part.centers)
                   / part.radii)
        per_box = (xs.size * vs.size, model.n_boxes, model.n_features)
        outside = np.any(z > 1.25, axis=2)
        joint = ~outside & np.any(z == 1.25, axis=2)
        assert outside.sum() > 100 and joint.sum() > 20
        assert not np.any(chi.reshape(per_box)[outside])
        assert not np.any(dchi.reshape(per_box)[outside])
        # the window is zero at its joint, its derivative roundoff
        assert not np.any(chi.reshape(per_box)[joint])
        for got, ref in zip((chi, dchi), dense_transport(model, xs, vs)):
            np.testing.assert_array_equal(got == 0.0, ref == 0.0)

    @pytest.mark.parametrize("counts", [(2, 3), (2, 2, 2)], ids=["1d", "2d"])
    @pytest.mark.parametrize("activation", basis.ACTIVATIONS)
    def test_pointwise_and_product_agree(self, activation, counts):
        model = phase_model(len(counts), counts, activation=activation)
        xs, vs = product_grid(model, 30, 20, seed=2)
        dirs = problems.direction(xs.shape[1], vs)
        pts = _phase(*_tensor(xs, vs))
        product = basis.column_batch(model, xs, dirs, velocities=vs)
        pointwise = basis.column_batch(model, pts,
                                       np.tile(dirs, (xs.shape[0], 1)))
        for got, ref in zip(product, pointwise):
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-14 * np.abs(ref).max())
            np.testing.assert_array_equal(got == 0.0, ref == 0.0)
        coeffs = np.random.default_rng(3).standard_normal(model.n_columns)
        ref = basis.model_values(model, coeffs, pts)
        np.testing.assert_allclose(basis.model_values(model, coeffs, xs, vs),
                                   ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("counts", [(2, 3), (2, 2, 2)], ids=["1d", "2d"])
    @pytest.mark.parametrize("product", [True, False],
                             ids=["product", "phase-points"])
    def test_tiles_scatter_to_columns(self, product, counts, monkeypatch):
        # column_batch is the tiles scattered into zeros; with unsorted
        # points and velocities and chunks of 7 points the tiles have
        # index-array rows and columns and split over the chunks
        model = phase_model(len(counts), counts)
        xs, vs = product_grid(model, 30, 20, seed=4)
        vs = vs[np.random.default_rng(1).permutation(vs.size)]
        dirs = problems.direction(xs.shape[1], vs)
        if not product:
            xs, vs = _phase(*_tensor(xs, vs)), None
            dirs = np.tile(dirs, (30, 1))
        n_l = 1 if vs is None else vs.size
        monkeypatch.setattr(basis, "_EVAL_CHUNK", 7 * n_l * model.n_features)
        shape = (xs.shape[0], n_l, model.n_columns)
        covered = np.zeros(shape, dtype=int)
        tiled = np.zeros((2,) + shape)
        for index, *tiles in basis.column_tiles(model, xs, dirs,
                                                velocities=vs):
            at = basis.tile_index(*index)
            covered[at] += 1
            for out, tile in zip(tiled, tiles):
                assert tile.shape == out[at].shape
                out[at] = tile
        assert covered.max() == 1 and 0 < covered.mean() < 1
        for got, full in zip(tiled, basis.column_batch(model, xs, dirs,
                                                       velocities=vs)):
            full = full.reshape(shape)
            assert np.array_equal(got.view(np.int64), full.view(np.int64))
            assert not np.any(full[covered == 0])

    def test_shapes_checked(self):
        model = phase_model(3)
        xs, vs = product_grid(model, 4, 5, seed=0)
        for points, dirs in ((xs, np.ones((4, 2))), (xs[:, :1], None),
                             (xs, np.ones(3))):
            with pytest.raises(ValueError):
                basis.column_batch(model, points, dirs, velocities=vs)
        spatial = basis.make_model(unit_square_partition((1, 1)), 2, seed=0)
        with pytest.raises(ValueError):
            basis.model_values(spatial, np.zeros(2), xs[:, :1], vs)


class TestFeatureWeights:
    """The fixed weights ``make_model`` draws."""

    def test_regeneration_is_bit_identical(self):
        part = unit_square_partition((3, 1))
        a = basis.make_model(part, 7, seed=42)
        b = basis.make_model(part, 7, seed=42)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_different_seeds_differ(self):
        part = unit_square_partition((2, 1))
        a = basis.make_model(part, 4, seed=1)
        b = basis.make_model(part, 4, seed=2)
        assert not np.array_equal(a.w, b.w)

    def test_entries_within_range(self):
        part = basis.uniform_partition([(0.0, 1.0)] * 3, (4, 1, 1))
        model = basis.make_model(part, 16, seed=9, range_b=0.5)
        assert np.all(np.abs(model.w) <= 0.5)
        assert np.all(np.abs(model.b) <= 0.5)

    def test_per_feature_streams_independent_of_counts(self):
        # entry (i, j) depends only on (seed, i, j), not on M or J
        small = basis.make_model(unit_square_partition((2, 1)), 3, seed=4)
        large = basis.make_model(unit_square_partition((5, 1)), 8, seed=4)
        np.testing.assert_array_equal(small.w, large.w[:2, :3])
        np.testing.assert_array_equal(small.b, large.b[:2, :3])

    @pytest.mark.parametrize("range_b", [0.0, -1.0, np.nan, np.inf, 1e308])
    def test_unusable_weight_range_rejected(self, range_b):
        # [-1e308, 1e308] is wider than the largest double
        with pytest.raises(ValueError, match="weight range"):
            basis.make_model(unit_square_partition((1, 1)), 2, seed=0,
                             range_b=range_b)


class TestModelEval:
    def test_zero_coefficients(self):
        model = basis.make_model(unit_square_partition((2, 1)), 3, seed=0)
        out = basis.model_values(model, np.zeros(6), np.array([[0.4, 0.1]]))
        assert out[0] == 0.0

    def test_single_feature_factorization(self):
        part = unit_square_partition((1, 1))
        model = basis.make_model(part, 1, seed=8)
        y = np.array([[0.3, -0.4]])
        c = 2.5
        psi, _ = basis.pou_normalized_batch(part, y)
        z = (y[0] - part.centers[0]) / part.radii[0]
        phi = np.tanh(model.w[0, 0] @ z + model.b[0, 0])
        assert basis.model_values(model, np.array([c]), y)[0] == \
            pytest.approx(psi[0, 0] * c * phi, rel=1e-15)

    def test_linearity(self):
        model = basis.make_model(unit_square_partition((2, 2)), 6, seed=2)
        rng = np.random.default_rng(0)
        c1 = rng.standard_normal(model.n_columns)
        c2 = rng.standard_normal(model.n_columns)
        pts = rng.uniform([0, -1], [1, 1], size=(20, 2))
        lhs = basis.model_values(model, c1 + c2, pts)
        rhs = (basis.model_values(model, c1, pts)
               + basis.model_values(model, c2, pts))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)

    def test_length_mismatch(self):
        model = basis.make_model(unit_square_partition((1, 1)), 4, seed=0)
        with pytest.raises(ValueError):
            basis.model_values(model, np.zeros(3), np.array([[0.5, 0.0]]))

    def test_values_do_not_depend_on_chunks(self):
        model = basis.make_model(unit_square_partition((3, 2)), 40, seed=3)
        coeffs = np.random.default_rng(1).standard_normal(model.n_columns)
        xs = np.linspace(0, 1, 1001)[:, None]
        vs = np.linspace(-1, 1, 101)
        pts = _phase(*_tensor(xs, vs))
        # chunks of _EVAL_CHUNK // (L J) points: both grids span several,
        # and their halves end mid-chunk
        rows = basis._EVAL_CHUNK // model.n_features
        assert pts.shape[0] > 2 * rows and xs.shape[0] > 2 * rows // vs.size
        for grid, extra in ((pts, ()), (xs, (vs,))):
            half = grid.shape[0] // 2
            np.testing.assert_array_equal(
                basis.model_values(model, coeffs, grid, *extra),
                np.concatenate([
                    basis.model_values(model, coeffs, grid[:half], *extra),
                    basis.model_values(model, coeffs, grid[half:], *extra)]))

    def test_annulus_f_evaluation_memory(self):
        # f of ex6 at acceptance criterion 6 size on the 64 x 64 x 32 grid
        spec = problems.catalog("ex6", 1.0)
        rho, g = build_models(spec, 64, 128, (1, 1), 4, seed=0)
        coeffs = np.random.default_rng(2).standard_normal(
            rho.n_columns + g.n_columns)
        x, v = collocation.evaluation_nodes(spec)
        tracemalloc.start()
        try:
            assemble.reconstruct_f(spec, rho, g, coeffs, x, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestPartitionConstruction:
    def test_shared_faces(self):
        part = basis.uniform_partition([(0.0, 1.0)], (4,))
        hi = part.centers + part.radii
        lo = part.centers - part.radii
        np.testing.assert_array_equal(hi[:-1], lo[1:])
        assert lo[0, 0] == 0.0 and hi[-1, 0] == 1.0

    def test_invalid_box(self):
        for bounds, counts in (([(1.0, 0.0)], (1,)), ([(0.5, 0.5)], (2,)),
                               ([(0.0, 1.0), (1.0, 0.0)], (1, 1)),
                               ([(0.0, 1.0)], (0,))):
            with pytest.raises(ValueError):
                basis.uniform_partition(bounds, counts)

    def test_weight_shape_checked(self):
        one_box = basis.make_model(unit_square_partition((1, 1)), 4, seed=0)
        with pytest.raises(ValueError):
            basis.FeatureModel(partition=unit_square_partition((2, 1)),
                               w=one_box.w, b=one_box.b)

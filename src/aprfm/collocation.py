"""Collocation point generation on uniform cell-centered grids.

Interior points are tensor products of cell-centered spatial nodes and
cell-centered velocity nodes (v in [-1, 1] for slabs, angles in [0, 2 pi)
for planar problems), ordered space-major.  Cell centers keep collocation
off the spatial boundary and off v = 0 for even velocity counts.  Boundary
points live on the domain faces, carry the prescribed inflow value, and
are filtered strictly to v . n(x) < 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProblemError, NodeOnJointError
from .problems import HOLE_HALF_WIDTH, v_dot

EVAL_GRID_1D = (128, 256)
EVAL_GRID_2D = (64, 64, 32)


def _tensor(xs, vs):
    """Space-major tensor product of spatial nodes (S, d) and velocities
    (L,): X (S * L, d) and V (S * L,), each node repeated over every
    velocity."""
    return np.repeat(xs, vs.size, axis=0), np.tile(vs, xs.shape[0])


def _phase(x, v):
    """Phase points (n, d + 1) from spatial points x (n, d) and v (n,)."""
    return np.concatenate([x, np.asarray(v)[:, None]], axis=1)


@dataclass(frozen=True)
class CollocationSet:
    """Interior and inflow-boundary collocation for one problem.

    The interior is the tensor product of ``spatial_nodes`` (S, d) and
    ``velocity_nodes`` (L,), flattened space-major, which assembly relies
    on to reuse angular quadrature caches across velocity nodes;
    ``interior_x`` and ``interior_v`` are derived from the two factors.
    """

    spatial_nodes: np.ndarray
    velocity_nodes: np.ndarray
    boundary_x: np.ndarray
    boundary_v: np.ndarray
    boundary_value: np.ndarray

    def __post_init__(self):
        for name in ("spatial_nodes", "velocity_nodes", "boundary_x",
                     "boundary_v", "boundary_value"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _interior(self, axis):
        arr = _tensor(self.spatial_nodes, self.velocity_nodes)[axis]
        arr.setflags(write=False)
        return arr

    @property
    def interior_x(self):
        """Spatial coordinates (N, d) of the interior points."""
        return self._interior(0)

    @property
    def interior_v(self):
        """Velocities (N,) of the interior points."""
        return self._interior(1)

    @property
    def n_interior(self):
        return self.spatial_nodes.shape[0] * self.velocity_nodes.size

    @property
    def n_boundary(self):
        return self.boundary_x.shape[0]


def cell_centers(lo, hi, n):
    """n cell-centered nodes on [lo, hi]."""
    n = int(n)
    if n < 1:
        raise ValueError("need at least one cell")
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h


def velocity_cells(spec, n_velocity):
    """Cell-centered velocity nodes for the problem's velocity domain."""
    lo, hi = spec.velocity_bounds
    return cell_centers(lo, hi, n_velocity)


def spatial_cells(spec, n_spatial):
    """Cell-centered spatial nodes (S, d); hole cells dropped for annuli."""
    n_spatial = tuple(int(n) for n in np.atleast_1d(n_spatial))
    if len(n_spatial) != spec.spatial_dim:
        raise ValueError("need one count per spatial axis")
    axes = [cell_centers(lo, hi, n)
            for lo, hi, n in zip(spec.x_lo, spec.x_hi, n_spatial)]
    for lo, hi, nodes in zip(spec.x_lo, spec.x_hi, axes):
        _require_off_dyadic_kinks(nodes, lo, hi)
    if spec.spatial_dim == 1:
        points = axes[0][:, None]
    else:
        g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.stack([g1.ravel(), g2.ravel()], axis=1)
    return points[spec.in_domain(points)]


def _nodes(spec, n_spatial, n_velocity):
    """Tensor factors of the interior: spatial (S, d), velocity (L,)."""
    if int(n_velocity) < 2 or any(int(n) < 2 for n in np.atleast_1d(n_spatial)):
        raise ValueError("per-axis counts must be at least 2")
    return spatial_cells(spec, n_spatial), velocity_cells(spec, n_velocity)


def interior_grid(spec, n_spatial, n_velocity):
    """Interior collocation points as arrays X (N, d) and V (N,)."""
    return _tensor(*_nodes(spec, n_spatial, n_velocity))


def _faces(spec, n_face):
    """Per-face (points, normal) lists; counts follow the varying axis."""
    n_face = tuple(int(n) for n in np.atleast_1d(n_face))
    if spec.spatial_dim == 1:
        lo, hi = spec.x_lo[0], spec.x_hi[0]
        yield np.array([[lo]]), np.array([-1.0])
        yield np.array([[hi]]), np.array([1.0])
        return
    if len(n_face) != 2:
        raise ValueError("need one face count per spatial axis")

    def face(axis, coord, normal, span, count):
        varying = cell_centers(span[0], span[1], count)
        points = np.empty((count, 2))
        points[:, axis] = coord
        points[:, 1 - axis] = varying
        return points, np.asarray(normal, dtype=float)

    (lo1, lo2), (hi1, hi2) = spec.x_lo, spec.x_hi
    yield face(0, lo1, (-1.0, 0.0), (lo2, hi2), n_face[1])
    yield face(0, hi1, (1.0, 0.0), (lo2, hi2), n_face[1])
    yield face(1, lo2, (0.0, -1.0), (lo1, hi1), n_face[0])
    yield face(1, hi2, (0.0, 1.0), (lo1, hi1), n_face[0])
    if spec.geometry == "annulus":
        h = HOLE_HALF_WIDTH
        # Inner faces: outward normals point into the hole.
        yield face(0, -h, (1.0, 0.0), (-h, h), n_face[1])
        yield face(0, h, (-1.0, 0.0), (-h, h), n_face[1])
        yield face(1, -h, (0.0, 1.0), (-h, h), n_face[0])
        yield face(1, h, (0.0, -1.0), (-h, h), n_face[0])


def inflow_boundary(spec, n_face, n_velocity):
    """Inflow boundary tuples (X, V, prescribed value), v . n < 0 strictly."""
    if spec.boundary_value is None:
        raise InvalidProblemError(f"{spec.id} has no boundary data")
    vs = velocity_cells(spec, n_velocity)
    xs_out, vs_out, val_out = [], [], []
    for points, normal in _faces(spec, n_face):
        for point in points:
            keep = v_dot(spec.spatial_dim, vs, normal) < 0.0
            if not np.any(keep):
                continue
            kept_v = vs[keep]
            x_rep = np.repeat(point[None, :], kept_v.size, axis=0)
            xs_out.append(x_rep)
            vs_out.append(kept_v)
            val_out.append(spec.boundary_value(x_rep, kept_v))
    return (np.concatenate(xs_out, axis=0), np.concatenate(vs_out),
            np.concatenate(val_out))


def build_collocation(spec, n_spatial, n_velocity):
    """Assemble the full collocation set for one solver run."""
    xs, vs = _nodes(spec, n_spatial, n_velocity)
    x_b, v_b, val_b = inflow_boundary(spec, n_spatial, n_velocity)
    return CollocationSet(spatial_nodes=xs, velocity_nodes=vs,
                          boundary_x=x_b, boundary_v=v_b,
                          boundary_value=val_b)


def evaluation_counts(spec):
    if spec.spatial_dim == 1:
        return (EVAL_GRID_1D[0],), EVAL_GRID_1D[1]
    return (EVAL_GRID_2D[0], EVAL_GRID_2D[1]), EVAL_GRID_2D[2]


def evaluation_nodes(spec):
    """Tensor factors of the error-measurement phase grid: spatial (S, d)
    and velocity (L,) nodes."""
    return _nodes(spec, *evaluation_counts(spec))


def evaluation_grid(spec):
    """Fixed error-measurement phase grid: X (I, d) and V (I,), the
    space-major product of ``evaluation_nodes``."""
    return _tensor(*evaluation_nodes(spec))


def evaluation_spatial_grid(spec):
    """Spatial part of the error-measurement grid, (S, d)."""
    n_spatial, _ = evaluation_counts(spec)
    return spatial_cells(spec, n_spatial)


def _require_off_dyadic_kinks(nodes, lo, hi):
    """Guard cell-centered nodes against the bump window's C1 joints.

    For 2^p cells and a dyadic partition into 2^m boxes the normalized
    coordinates hit |z| in {3/4, 5/4} exactly iff p - m == 2; that single
    coincidence is unavoidable (and harmless, the window is C1), every
    other dyadic combination must stay clear.
    """
    n = nodes.size
    if n & (n - 1):  # not a power of two
        return
    p = n.bit_length() - 1
    for m_exp in range(0, 4):
        if p - m_exp == 2:
            continue
        m = 2 ** m_exp
        width = (hi - lo) / m
        centers = lo + (np.arange(m) + 0.5) * width
        z = (nodes[:, None] - centers[None, :]) / (width / 2.0)
        hits = np.isclose(np.abs(z), 0.75) | np.isclose(np.abs(z), 1.25)
        if np.any(hits):
            raise NodeOnJointError(
                f"{n} cells put a collocation node on a window joint of a "
                f"{m}-box partition")

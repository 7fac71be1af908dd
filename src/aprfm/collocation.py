"""Collocation point generation on uniform cell-centered grids.

Every cell-centered spatial grid comes from :func:`cell_grid`.  Interior
points are tensor products of its nodes and cell-centered velocity nodes
(v in [-1, 1] for slabs, angles in [0, 2 pi) for planar problems), kept as
the two factors and ordered space-major.  Cell centers keep collocation
off the spatial boundary and off v = 0 for even velocity counts.  Boundary
points live on the domain faces, carry the prescribed inflow value, and
are filtered strictly to v . n(x) < 0.
"""

from dataclasses import dataclass

import numpy as np

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
    ``velocity_nodes`` (L,), kept as the two factors; its points are
    ordered space-major (see ``_tensor``).
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


def cell_grid(spec, counts):
    """The cell-centered grid with ``counts`` cells per spatial axis: the
    nodes of each axis, the points (n_1, ..., n_d, d) and the mask of the
    points in the domain (not in a hole)."""
    counts = tuple(int(n) for n in np.atleast_1d(counts))
    if len(counts) != spec.spatial_dim:
        raise ValueError("need one count per spatial axis")
    axes = [cell_centers(lo, hi, n)
            for lo, hi, n in zip(spec.x_lo, spec.x_hi, counts)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return axes, points, spec.in_domain(points)


def _nodes(spec, n_spatial, n_velocity):
    """Tensor factors of the interior: spatial (S, d), the domain points of
    the cell grid (hole cells dropped for annuli), and velocity (L,)."""
    if int(n_velocity) < 2 or any(int(n) < 2 for n in np.atleast_1d(n_spatial)):
        raise ValueError("per-axis counts must be at least 2")
    _, points, mask = cell_grid(spec, n_spatial)
    return points[mask], velocity_cells(spec, n_velocity)


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
    vs = velocity_cells(spec, n_velocity)
    # the normal is constant on a face, so each face keeps one velocity set
    faces = [_tensor(points, vs[v_dot(spec.spatial_dim, vs, normal) < 0.0])
             for points, normal in _faces(spec, n_face)]
    x_b, v_b = (np.concatenate(part) for part in zip(*faces))
    return x_b, v_b, spec.boundary_value(x_b, v_b)


def build_collocation(spec, n_spatial, n_velocity):
    """Assemble the full collocation set for one solver run."""
    xs, vs = _nodes(spec, n_spatial, n_velocity)
    x_b, v_b, val_b = inflow_boundary(spec, n_spatial, n_velocity)
    return CollocationSet(spatial_nodes=xs, velocity_nodes=vs,
                          boundary_x=x_b, boundary_v=v_b,
                          boundary_value=val_b)


def evaluation_nodes(spec):
    """Tensor factors of the error-measurement phase grid: spatial (S, d)
    and velocity (L,) nodes."""
    *n_spatial, n_velocity = (EVAL_GRID_1D if spec.spatial_dim == 1
                              else EVAL_GRID_2D)
    return _nodes(spec, n_spatial, n_velocity)

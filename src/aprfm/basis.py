"""Partition-of-unity random feature models with analytic first derivatives.

A model covers an enclosing hypercube split into axis-aligned boxes.  Each
box ``i`` carries ``J`` fixed random neurons ``phi_ij(y) = act(w_ij . z + b_ij)``
evaluated in box-normalized coordinates ``z = (y - center_i) / radius_i``,
and a bump weight ``psi_i(y)`` built as a tensor product of a univariate
window.  The normalized weights ``psi_i / sum_k psi_k`` sum to one over the
whole hypercube, so a linear combination of ``psi_i * phi_ij`` glues the
per-box neurons into one global approximant.

Coefficient/column order everywhere is box-major, neuron-minor:
column ``c = i * J + j``.

The batched kernels use the compact support of the windows: ``phi_b``
reaches an eighth of its box's width past each face, so a point of a
uniform partition lies in at most two boxes per axis.  ``column_batch`` and ``model_values`` evaluate box i only
at the points where psi~_i (or its derivative) is non-zero, found from the
cheap (n, M) window arrays, and ``column_batch`` returns the derivative
along one given direction, not the gradient, so no batched array carries a
gradient axis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoverError

ACTIVATIONS = ("tanh", "sine-pi")
POU_KINDS = ("phi_a", "phi_b")


def _frozen(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BoxPartition:
    """Axis-aligned boxes tiling an enclosing hypercube, with shared faces,
    as their (M, d) centers and half-widths; ``dims`` counts the boxes
    per axis, and box order is axis-major (see ``uniform_partition``)."""

    centers: np.ndarray
    radii: np.ndarray
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "centers", _frozen(self.centers))
        object.__setattr__(self, "radii", _frozen(self.radii))
        object.__setattr__(self, "dims", tuple(int(m) for m in self.dims))
        if (self.centers.ndim != 2 or self.radii.shape != self.centers.shape
                or len(self.dims) != self.dim
                or int(np.prod(self.dims)) != self.n_boxes):
            raise ValueError("need (M, d) centers and radii, and d per-axis "
                             "counts with product M")

    @property
    def n_boxes(self):
        return self.centers.shape[0]

    @property
    def dim(self):
        return self.centers.shape[1]


def uniform_partition(bounds, counts):
    """Split ``prod_j [lo_j, hi_j]`` into a uniform grid of boxes.

    ``bounds`` is a sequence of (lo, hi) pairs with lo < hi, ``counts`` the
    per-axis box counts.  Boxes are ordered with the first axis slowest, so
    neighbours along the last axis are adjacent in the list.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    counts = [int(m) for m in counts]
    if len(bounds) != len(counts) or any(m < 1 for m in counts):
        raise ValueError("need one positive count per axis")
    if not all(lo < hi for lo, hi in bounds):
        raise ValueError("partition requires lo < hi on every axis")
    edges = [np.linspace(lo, hi, m + 1) for (lo, hi), m in zip(bounds, counts)]
    lo, hi = (np.stack(np.meshgrid(*axes, indexing="ij"),
                       axis=-1).reshape(-1, len(counts))
              for axes in ([e[:-1] for e in edges], [e[1:] for e in edges]))
    return BoxPartition(0.5 * (lo + hi), 0.5 * (hi - lo), counts)


@dataclass(frozen=True)
class FeatureWeights:
    """Fixed inner weights, regenerable bit-identically from the seed.

    Entry (i, j) is drawn from its own counter-based stream keyed by
    (seed, i, j), components in row-major order (w first, then b), so the
    draws do not depend on how assembly is parallelized.
    """

    w: np.ndarray
    b: np.ndarray
    range_b: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(self.w))
        object.__setattr__(self, "b", _frozen(self.b))
        if self.w.ndim != 3 or self.b.ndim != 2 or self.w.shape[:2] != self.b.shape:
            raise ValueError("weights must be (M, J, d) with biases (M, J)")

    @staticmethod
    def generate(seed, n_boxes, n_features, dim, range_b):
        seed = int(seed)
        if not 0 <= seed < 2 ** 63:
            raise ValueError("seed must lie in [0, 2**63)")
        if range_b <= 0:
            raise ValueError("weight range must be positive")
        w = np.empty((n_boxes, n_features, dim))
        b = np.empty((n_boxes, n_features))
        for i in range(n_boxes):
            for j in range(n_features):
                key = (seed << 64) | (i << 32) | j
                gen = np.random.Generator(np.random.Philox(key=key))
                draw = gen.uniform(-range_b, range_b, dim + 1)
                w[i, j] = draw[:dim]
                b[i, j] = draw[dim]
        return FeatureWeights(w=w, b=b, range_b=float(range_b), seed=seed)


@dataclass(frozen=True)
class FeatureModel:
    """Partition + fixed random neurons + activation + window kind."""

    partition: BoxPartition
    weights: FeatureWeights
    activation: str = "tanh"
    pou_kind: str = "phi_b"

    def __post_init__(self):
        m, j, d = self.weights.w.shape
        if m != self.partition.n_boxes or d != self.partition.dim:
            raise ValueError("weight shape does not match the partition")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.pou_kind not in POU_KINDS:
            raise ValueError(f"unknown pou kind {self.pou_kind!r}")

    @property
    def dim(self):
        return self.partition.dim

    @property
    def n_boxes(self):
        return self.partition.n_boxes

    @property
    def n_features(self):
        return self.weights.w.shape[1]

    @property
    def n_columns(self):
        return self.n_boxes * self.n_features


def make_model(partition, n_features, seed, range_b=1.0, activation="tanh",
               pou_kind="phi_b"):
    """Build a model with freshly generated weights for this partition."""
    weights = FeatureWeights.generate(seed, partition.n_boxes, int(n_features),
                                      partition.dim, range_b)
    return FeatureModel(partition=partition, weights=weights,
                        activation=activation, pou_kind=pou_kind)


def _axis_pou(kind, z):
    """Window value and d/dz, elementwise.  At the piecewise joints of
    ``phi_b`` the derivative is taken from the transition side; the window
    is C1 there, so the two one-sided values agree anyway."""
    az = np.abs(z)
    if kind == "phi_a":
        value = (az <= 1.0).astype(float)
        return value, np.zeros_like(value)
    if kind == "phi_b":
        flat = az <= 0.75
        ramp = ~flat & (az <= 1.25)
        value = np.where(flat, 1.0, 0.0)
        value = np.where(ramp, 0.5 * (1.0 - np.sin(2.0 * np.pi * az)), value)
        deriv = np.where(ramp,
                         -np.pi * np.cos(2.0 * np.pi * az) * np.sign(z), 0.0)
        return value, deriv
    raise ValueError(f"unknown pou kind {kind!r}")


def pou_raw_batch(partition, kind, points, direction=None):
    """Raw bump values psi (n, M) and, given ``direction`` (n, k), their
    derivative along it over the first k coordinates (n, M), else None.
    The tensor product is built one axis at a time, its derivative by the
    product rule, so no array carries a gradient axis."""
    points = np.asarray(points, dtype=float)
    psi = np.ones((points.shape[0], partition.n_boxes))
    dpsi = None if direction is None else np.zeros_like(psi)
    for axis in range(partition.dim):
        radius = partition.radii[:, axis]
        u, du_dz = _axis_pou(kind, (points[:, axis, None]
                                    - partition.centers[:, axis]) / radius)
        if dpsi is not None:
            dpsi *= u
            if axis < direction.shape[1]:
                dpsi += psi * du_dz * (direction[:, axis, None] / radius)
        psi *= u
    return psi, dpsi


def pou_normalized_batch(partition, kind, points, direction=None):
    """Normalized bump values psi~ (n, M) and, given ``direction``, their
    derivative along it (quotient rule), as in ``pou_raw_batch``."""
    psi, dpsi = pou_raw_batch(partition, kind, points, direction)
    total = psi.sum(axis=1)
    bad = total <= 0.0
    if np.any(bad):
        where = np.asarray(points)[np.argmax(bad)]
        raise DegenerateCoverError(
            f"no partition box covers point {where}; check partition overlap")
    psi_t = psi / total[:, None]
    if dpsi is None:
        return psi_t, None
    dpsi_t = (dpsi - psi_t * dpsi.sum(axis=1)[:, None]) / total[:, None]
    return psi_t, dpsi_t


def _activation(name, t, slope=True):
    """Activation values at ``t`` and, if ``slope``, its derivative (else
    None)."""
    if name == "tanh":
        value = np.tanh(t)
        return value, (1.0 - value * value if slope else None)
    if name == "sine-pi":
        return (np.sin(np.pi * t),
                np.pi * np.cos(np.pi * t) if slope else None)
    raise ValueError(f"unknown activation {name!r}")


def _box_rows(reach):
    """(box, rows) for every box of an (n, M) mask with a true entry: a
    slice when the box reaches every point, else the row indices."""
    for i in range(reach.shape[1]):
        rows = np.flatnonzero(reach[:, i])
        if rows.size == reach.shape[0]:
            yield i, slice(None)
        elif rows.size:
            yield i, rows


def _box_features(model, i, points, slope):
    """Neurons of box ``i`` at ``points``: phi (n, J) and, if ``slope``,
    the activation derivative at the same arguments (else None)."""
    z = (points - model.partition.centers[i]) / model.partition.radii[i]
    # einsum, not @, for the thin contractions over d + 1 <= 3 axes here
    # and in column_batch: @ hands them to the BLAS dgemm, whose threads
    # then slow the dtpqrt folds that run between row blocks (T4 J=128
    # cell, 2-core OpenBLAS box: solve 0.47 -> 1.07-2.01 s, assembly
    # 0.42 -> 0.53-0.63 s)
    t = np.einsum("nd,dj->nj", z, model.weights.w[i].T) + model.weights.b[i]
    return _activation(model.activation, t, slope)


def column_batch(model, points, direction=None):
    """Glued columns chi_c = psi~_i phi_ij at (n, d) points, (n, M*J) in
    box-major column order, and, given ``direction`` ((k,) or (n, k)),
    their derivative along it over the first k coordinates,

        (d_dir psi~_i) phi_ij + psi~_i act'(t_ij) (w_ij / r_i) . dir,

    else None.  Box i is evaluated only at the points where psi~_i or its
    derivative is non-zero: every other entry is exactly zero.
    """
    points = np.asarray(points, dtype=float)
    n, m, j = points.shape[0], model.n_boxes, model.n_features
    if direction is not None:
        direction = np.asarray(direction, dtype=float)
        if direction.ndim not in (1, 2) \
                or not 1 <= direction.shape[-1] <= model.dim:
            raise ValueError(f"direction must have 1..{model.dim} components")
        k = direction.shape[-1]
        direction = np.broadcast_to(direction, (n, k))
    psi_t, dpsi_t = pou_normalized_batch(model.partition, model.pou_kind,
                                         points, direction)
    chi = np.zeros((n, m, j))
    dchi = None if direction is None else np.zeros((n, m, j))
    reach = psi_t != 0.0 if dchi is None else (psi_t != 0.0) | (dpsi_t != 0.0)
    for i, rows in _box_rows(reach):
        phi, dact = _box_features(model, i, points[rows], dchi is not None)
        chi[rows, i] = psi_t[rows, i, None] * phi
        if dchi is not None:
            rate = np.einsum("nk,kj->nj", direction[rows],
                             (model.weights.w[i, :, :k]
                              / model.partition.radii[i, :k]).T)
            dchi[rows, i] = (dpsi_t[rows, i, None] * phi
                             + psi_t[rows, i, None] * (dact * rate))
    return (chi.reshape(n, m * j),
            None if dchi is None else dchi.reshape(n, m * j))


# Points per evaluation chunk times the model's columns, in doubles.  On
# a 2-core OpenBLAS box, going from 8M to 1M doubles took the tracemalloc
# peak of f on the 64 x 64 x 32 grid of ex6 at acceptance criterion 6
# size from 123.2 to 25.5 MB.  A call on T1's J = 256 model over its
# 32768 evaluation points went from 0.16-0.26 s to 0.13 s, and one on
# ex6's g model over 3612 points stayed at 8.5-8.9 ms.  Values do not
# depend on the chunk: every point is evaluated on its own.
_EVAL_CHUNK = 1_000_000


def model_values(model, coeffs, points):
    """Batched model evaluation, (n,) values for (n, d) points.

    Evaluation is chunked internally so large grids never materialize more
    than ``_EVAL_CHUNK`` doubles of (n, M, J) neuron values at once, and
    box i is evaluated only at the points its window psi~_i reaches.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (model.n_columns,):
        raise ValueError(f"expected {model.n_columns} coefficients")
    points = np.asarray(points, dtype=float)
    c = coeffs.reshape(model.n_boxes, model.n_features)
    n = points.shape[0]
    out = np.zeros(n)
    chunk = max(1, _EVAL_CHUNK // max(model.n_columns, 1))
    for lo in range(0, n, chunk):
        block = points[lo:lo + chunk]
        values = out[lo:lo + chunk]
        psi_t, _ = pou_normalized_batch(model.partition, model.pou_kind,
                                        block)
        for i, rows in _box_rows(psi_t != 0.0):
            phi, _ = _box_features(model, i, block[rows], False)
            values[rows] += psi_t[rows, i] * np.einsum("nj,j->n", phi, c[i])
    return out

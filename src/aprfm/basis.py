"""Partition-of-unity random feature models with analytic first derivatives.

A model covers an enclosing hypercube split into axis-aligned boxes.  Each
box ``i`` carries ``J`` fixed random neurons ``phi_ij(y) = act(w_ij . z + b_ij)``
evaluated in box-normalized coordinates ``z = (y - center_i) / radius_i``,
and a bump weight ``psi_i(y)`` built as a tensor product of a univariate
window.  The normalized weights ``psi_i / sum_k psi_k`` sum to one over the
whole hypercube, so a linear combination of ``psi_i * phi_ij`` glues the
per-box neurons into one global approximant.

There is one window, the C1 bump ``phi_b``: flat for |z| <= 3/4, a sine
ramp to zero at |z| = 5/4.  Neighbouring windows overlap and the glued
columns are C1, so collocation needs no continuity rows between boxes,
and the assemblers write none.

Coefficient/column order everywhere is box-major, neuron-minor:
column ``c = i * J + j``.

The batched kernels use the compact support of the window: it reaches an
eighth of its box's width past each face, so a point of a
uniform partition lies in at most two boxes per axis.  ``column_batch`` and
``model_values`` evaluate box i only where psi~_i (or its derivative) is
non-zero, and ``column_batch`` returns the derivative along one given
direction, not the gradient.  Both take either phase points or the tensor
product of spatial points (S, d) and velocities (L,), which is how
assembly and evaluation grids come: on a tensor partition the window and
the pre-activation of a box split into a spatial and a velocity part, so
windows, their gradients and the pre-activation parts are evaluated on
S + L rows, and sine-pi's sines and cosines too, by angle addition; only
tanh and the products run over the S L rows.  ``column_tiles`` gives the
columns one box tile at a time, so that assembly can write each tile's
rows while it is in cache; ``column_batch`` scatters those tiles into
zeros.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoverError

ACTIVATIONS = ("tanh", "sine-pi")


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
class FeatureModel:
    """Partition + fixed random neurons (inner weights ``w`` (M, J, d) and
    biases ``b`` (M, J)) + activation."""

    partition: BoxPartition
    w: np.ndarray
    b: np.ndarray
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(self.w))
        object.__setattr__(self, "b", _frozen(self.b))
        if self.w.ndim != 3 or self.b.shape != self.w.shape[:2]:
            raise ValueError("weights must be (M, J, d) with biases (M, J)")
        m, _, d = self.w.shape
        if m != self.partition.n_boxes or d != self.partition.dim:
            raise ValueError("weight shape does not match the partition")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def dim(self):
        return self.partition.dim

    @property
    def n_boxes(self):
        return self.partition.n_boxes

    @property
    def n_features(self):
        return self.w.shape[1]

    @property
    def n_columns(self):
        return self.n_boxes * self.n_features


def make_model(partition, n_features, seed, range_b=1.0, activation="tanh"):
    """Build a model with fixed weights drawn for this partition.

    Weights and biases are uniform on [-range_b, range_b], and entry
    (i, j) is drawn from its own counter-based stream keyed by
    (seed, i, j), w first, then b, so the draws are bit-identical for a
    seed and do not depend on the number of boxes or features.
    """
    seed = int(seed)
    if not 0 <= seed < 2 ** 63:
        raise ValueError("seed must lie in [0, 2**63)")
    # the interval's width, not range_b: [-1e308, 1e308] overflows
    if not 0 < 2.0 * range_b < np.inf:
        raise ValueError("weight range must be positive and finite")
    dim, n_features = partition.dim, int(n_features)
    w = np.empty((partition.n_boxes, n_features, dim))
    b = np.empty((partition.n_boxes, n_features))
    for i in range(partition.n_boxes):
        for j in range(n_features):
            key = (seed << 64) | (i << 32) | j
            gen = np.random.Generator(np.random.Philox(key=key))
            draw = gen.uniform(-range_b, range_b, dim + 1)
            w[i, j] = draw[:dim]
            b[i, j] = draw[dim]
    return FeatureModel(partition=partition, w=w, b=b, activation=activation)


def _axis_pou(z):
    """Window value and d/dz, elementwise.  At the piecewise joints the
    derivative is taken from the ramp side; the window is C1 there, so
    the two one-sided values agree anyway."""
    az = np.abs(z)
    flat = az <= 0.75
    ramp = ~flat & (az <= 1.25)
    value = np.where(flat, 1.0, 0.0)
    value = np.where(ramp, 0.5 * (1.0 - np.sin(2.0 * np.pi * az)), value)
    deriv = np.where(ramp, -np.pi * np.cos(2.0 * np.pi * az) * np.sign(z), 0.0)
    return value, deriv


def pou_raw_batch(partition, points, n_grad=0):
    """Raw bump values psi (n, M) and, for ``n_grad`` > 0, their gradient
    over the first n_grad coordinates (n, M, n_grad), else None.  The
    tensor product is built one axis at a time, its gradient by the
    product rule."""
    points = np.asarray(points, dtype=float)
    psi = np.ones((points.shape[0], partition.n_boxes))
    grad = np.zeros(psi.shape + (n_grad,)) if n_grad else None
    for axis in range(partition.dim):
        radius = partition.radii[:, axis]
        u, du_dz = _axis_pou((points[:, axis, None]
                              - partition.centers[:, axis]) / radius)
        if grad is not None:
            grad *= u[:, :, None]
            if axis < n_grad:
                grad[:, :, axis] = psi * (du_dz / radius)
        psi *= u
    return psi, grad


def pou_normalized_batch(partition, points, n_grad=0):
    """Normalized bump values psi~ (n, M) and, for ``n_grad`` > 0, their
    gradient (quotient rule), as in ``pou_raw_batch``."""
    psi, grad = pou_raw_batch(partition, points, n_grad)
    total = psi.sum(axis=1)
    bad = total <= 0.0
    if np.any(bad):
        where = np.asarray(points)[np.argmax(bad)]
        raise DegenerateCoverError(
            f"point {where} lies outside the model's boxes")
    psi_t = psi / total[:, None]
    if grad is None:
        return psi_t, None
    grad_t = ((grad - psi_t[:, :, None] * grad.sum(axis=1)[:, None, :])
              / total[:, None, None])
    return psi_t, grad_t


def _split(partition):
    """The partitions of the leading axes and of the last axis of a tensor
    partition: box k * m + q of ``partition`` (m boxes on the last axis)
    is the product of box k of the first and box q of the second."""
    m = partition.dims[-1]
    return (BoxPartition(partition.centers[::m, :-1],
                         partition.radii[::m, :-1], partition.dims[:-1]),
            BoxPartition(partition.centers[:m, -1:], partition.radii[:m, -1:],
                         partition.dims[-1:]))


def _sine_parts(lead, tail):
    """sin(pi a), cos(pi a), sin(pi b) and cos(pi b) of the parts of
    t = a + b."""
    a, b = np.pi * lead, np.pi * tail
    return np.sin(a), np.cos(a), np.sin(b), np.cos(b)


def _activation(name, lead, tail=None, slope=True):
    """Activation values on the tile t[s, l, j] = lead[s, j] + tail[l, j],
    (S, L, J), or t = lead with no tail (L = 1), and, if ``slope``, its
    derivative there (else None).  sine-pi expands sin(pi (a + b)) by
    angle addition, so its sines and cosines are taken on the S + L rows
    of the parts, not on the S L rows of the tile."""
    if name == "tanh":
        if tail is None:
            value = np.tanh(lead[:, None, :])
        else:
            value = lead[:, None, :] + tail
            np.tanh(value, out=value)
        if not slope:
            return value, None
        deriv = value * value
        np.subtract(1.0, deriv, out=deriv)
        return value, deriv
    if name == "sine-pi":
        if tail is None:
            t = np.pi * lead[:, None, :]
            return np.sin(t), (np.pi * np.cos(t) if slope else None)
        sin_a, cos_a, sin_b, cos_b = _sine_parts(lead, tail)
        sin_a, cos_a = sin_a[:, None, :], cos_a[:, None, :]
        value = sin_a * cos_b
        value += cos_a * sin_b
        if not slope:
            return value, None
        deriv = cos_a * cos_b
        deriv -= sin_a * sin_b
        deriv *= np.pi
        return value, deriv
    raise ValueError(f"unknown activation {name!r}")


def _neuron_sum(name, lead, tail, c):
    """sum_j c_j act(t[s, l, j]) over the tile of ``_activation``, (S, L).
    For sine-pi with a tail the sum is two (S x J)(J x L) contractions of
    the angle-addition parts."""
    if name == "sine-pi" and tail is not None:
        sin_a, cos_a, sin_b, cos_b = _sine_parts(lead, tail)
        # einsum, not @: it keeps the sums out of the BLAS, so values do
        # not depend on its thread count (sweep replay), at a small cost:
        # one (244 x 128)(128 x 12) product of an ex6 evaluation chunk
        # took 85 us against 29 us with @ (2-core OpenBLAS box)
        return (np.einsum("sj,lj->sl", sin_a * c, cos_b)
                + np.einsum("sj,lj->sl", cos_a * c, sin_b))
    value, _ = _activation(name, lead, tail, slope=False)
    return np.einsum("slj,j->sl", value, c)


def _box_rows(reach):
    """(box, rows) for every box of an (n, M) mask with a true entry: the
    rows as a slice when they are contiguous, else as indices."""
    for i in range(reach.shape[1]):
        rows = np.flatnonzero(reach[:, i])
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            yield i, slice(rows[0], rows[-1] + 1)
        elif rows.size:
            yield i, rows


def _tile(rows, cols):
    """Index of the rows x cols tile of an (S, L, ...) array."""
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


# Spatial points per chunk times the velocities and the neurons of one
# box, in doubles, so a box's (s, l, J) tile stays below 8 MB.  On a
# 2-core OpenBLAS box, f of ex6 at acceptance criterion 6 size on its
# 64 x 64 x 32 grid (244 spatial points per chunk) took 155 / 103 ms
# (tanh / sine-pi) at tracemalloc peaks of 6.2 / 5.7 MB, against 435 /
# 750 ms and 25.5 / 33.4 MB for the former kernel's chunks of 1M / Z
# phase points; chunks of 250k doubles took sine-pi to 143 ms.  Values
# do not depend on the chunk: every point is evaluated on its own.
_EVAL_CHUNK = 1_000_000


def _box_tiles(model, points, velocities, n_grad):
    """The pieces of every box of ``model`` over the product of ``points``
    and ``velocities`` (see ``column_batch``), one tile of the points and
    velocities its window reaches at a time: (i, (rows, cols), lead,
    tail, window, gradient).

    On a tensor partition the normalized window of box i = (k, q) is the
    product of the spatial window k at the points and the velocity window
    q at the velocities, and its pre-activation is lead[s] + tail[l], with
    lead = W_x z_x + b over the points and tail = w_v z_v over the
    velocities; with no velocities the points carry every coordinate,
    tail is None and the tile has one column.  ``window`` is the tile's
    window (S_k, L_q) and, for ``n_grad`` > 0, ``gradient`` its gradient
    over the first n_grad coordinates of the points (S_k, L_q, n_grad),
    else None.  Points go in chunks of ``_EVAL_CHUNK`` // (L J)."""
    part, w, b = model.partition, model.w, model.b
    if velocities is None:
        lead_part, m_v, n_l = part, 1, 1
        tails = [(0, slice(0, 1), None)]
    else:
        lead_part, tail_part = _split(part)
        m_v, n_l = tail_part.n_boxes, velocities.size
        psi_v, _ = pou_normalized_batch(tail_part, velocities[:, None])
        tails = [(q, cols, psi_v[cols, q])
                 for q, cols in _box_rows(psi_v != 0.0)]
    dim = lead_part.dim
    chunk = max(1, _EVAL_CHUNK // (n_l * model.n_features))
    for lo in range(0, points.shape[0], chunk):
        block = points[lo:lo + chunk]
        psi, grad = pou_normalized_batch(lead_part, block, n_grad)
        reach = psi != 0.0
        if grad is not None:
            reach |= np.any(grad != 0.0, axis=2)
        for k, rows in _box_rows(reach):
            i0 = k * m_v
            z = (block[rows] - part.centers[i0, :dim]) / part.radii[i0, :dim]
            at = (slice(rows.start + lo, rows.stop + lo)
                  if isinstance(rows, slice) else rows + lo)
            for q, cols, psi_q in tails:
                i = i0 + q
                lead = np.einsum("nd,jd->nj", z, w[i, :, :dim]) + b[i]
                window = psi[rows, k][:, None]
                gradient = None if grad is None else grad[rows, k][:, None]
                tail = None
                if psi_q is not None:
                    z_v = ((velocities[cols] - part.centers[i, -1])
                           / part.radii[i, -1])
                    tail = z_v[:, None] * w[i, :, -1]
                    window = window * psi_q
                    if gradient is not None:
                        gradient = gradient * psi_q[:, None]
                yield i, (at, cols), lead, tail, window, gradient


def _product_points(model, points, velocities):
    """Points and velocities as float arrays, checked against the model:
    (n, D) phase points, or (S, D - 1) spatial points with (L,)
    velocities."""
    points = np.asarray(points, dtype=float)
    if velocities is not None:
        velocities = np.asarray(velocities, dtype=float)
        if model.dim < 2 or velocities.ndim != 1:
            raise ValueError("velocities need a phase model and one axis")
    width = model.dim - (velocities is not None)
    if points.ndim != 2 or points.shape[1] != width:
        raise ValueError(f"expected (n, {width}) points")
    return points, velocities


def column_tiles(model, points, direction=None, velocities=None):
    """The tiles of ``column_batch``'s columns (same arguments) that
    may be non-zero, one box and one chunk of points at a time:
    ((rows, cols, columns), chi, dchi).

    ``rows`` (over the S points) and ``cols`` (over the L velocities;
    slice(0, 1) without them) are each a slice or an index array,
    ``columns`` is the slice of box i's J columns, and ``chi`` and
    ``dchi`` (None without ``direction``) are (rows, cols, J) arrays;
    ``tile_index(rows, cols, columns)`` places them in an (S, L, M*J)
    array.  Tiles do not overlap, and every entry outside them is exactly
    zero.  The tiles are fresh arrays, which the caller may overwrite.
    """
    points, velocities = _product_points(model, points, velocities)
    n_s = points.shape[0]
    n_l = 1 if velocities is None else velocities.size
    k = 0
    if direction is not None:
        direction = np.asarray(direction, dtype=float)
        k = direction.shape[-1]
        rows = n_s if velocities is None else n_l
        if not 1 <= k <= points.shape[1] \
                or direction.shape not in ((k,), (rows, k)):
            raise ValueError("direction must be (k,) or one row per point "
                             "(per velocity), k at most the points' width")
        # (S | 1, L | 1, k): shared, per point or per velocity
        direction = direction.reshape(
            (1, 1, k) if direction.ndim == 1
            else (n_s, 1, k) if velocities is None else (1, n_l, k))
        rate = model.w[:, :, :k] / model.partition.radii[:, None, :k]
    j = model.n_features
    for i, (rows, cols), lead, tail, window, gradient in _box_tiles(
            model, points, velocities, k):
        phi, dact = _activation(model.activation, lead, tail, k > 0)
        window = window[:, :, None]
        chi = window * phi
        if k:
            along = direction[rows] if direction.shape[0] > 1 else direction
            along = along[:, cols] if along.shape[1] > 1 else along
            # (d_dir psi~) phi + psi~ act' rate, reusing phi and act'
            dact *= np.einsum("slk,jk->slj", along, rate[i])
            dact *= window
            phi *= (gradient * along).sum(axis=2)[:, :, None]
            phi += dact
        columns = slice(i * j, (i + 1) * j)
        yield (rows, cols, columns), chi, (phi if k else None)


def tile_index(rows, cols, columns):
    """Index of a ``column_tiles`` tile in an (S, L, Z) array."""
    return _tile(rows, cols) + (columns,)


def column_batch(model, points, direction=None, velocities=None):
    """Glued columns chi_c = psi~_i phi_ij, (n, M*J) in box-major column
    order, and, given ``direction``, their derivative along it over its
    first k coordinates,

        (d_dir psi~_i) phi_ij + psi~_i act'(t_ij) (w_ij / r_i) . dir,

    else None.

    Without ``velocities`` the n rows are the (n, D) phase points, and
    ``direction`` is (k,) or one (n, k) row per point.  With
    ``velocities`` (L,) the rows are the product of the (S, D - 1)
    spatial points with them, space-major (n = S L), and ``direction`` is
    (k,) or one (L, k) row per velocity: windows and pre-activations are
    split over the factors (see ``_box_tiles``).  Box i is evaluated only
    where psi~_i or its derivative is non-zero: every other entry is
    exactly zero.  The columns are the tiles of ``column_tiles`` scattered
    into zeros.
    """
    points, velocities = _product_points(model, points, velocities)
    n_s = points.shape[0]
    n_l = 1 if velocities is None else velocities.size
    shape = (n_s, n_l, model.n_columns)
    chi = np.zeros(shape)
    dchi = None if direction is None else np.zeros(shape)
    for index, chi_tile, dchi_tile in column_tiles(model, points, direction,
                                                   velocities):
        at = tile_index(*index)
        chi[at] = chi_tile
        if dchi is not None:
            dchi[at] = dchi_tile
    shape = (n_s * n_l, model.n_columns)
    return chi.reshape(shape), None if dchi is None else dchi.reshape(shape)


def model_values(model, coeffs, points, velocities=None):
    """Model values, (n,), at the rows of ``column_batch``: the (n, D)
    phase points, or the space-major product of the (S, D - 1) spatial
    points with the velocities (L,).

    Box i is evaluated only at the tile its window reaches, and the tiles
    go in chunks of points (see ``_box_tiles``), so a large grid never
    holds more than ``_EVAL_CHUNK`` doubles of neuron values at once.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (model.n_columns,):
        raise ValueError(f"expected {model.n_columns} coefficients")
    points, velocities = _product_points(model, points, velocities)
    c = coeffs.reshape(model.n_boxes, model.n_features)
    out = np.zeros((points.shape[0],
                    1 if velocities is None else velocities.size))
    for i, (rows, cols), lead, tail, window, _ in _box_tiles(
            model, points, velocities, 0):
        out[_tile(rows, cols)] += window * _neuron_sum(model.activation,
                                                       lead, tail, c[i])
    return out.ravel()

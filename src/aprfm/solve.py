"""Minimum-norm least squares over streamed row blocks, with rank and
conditioning diagnostics.

The system A theta ~ b arrives as row blocks.  Each block is folded into
upper-triangular factors of [A | b] as it arrives (TSQR: Demmel, Grigori,
Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012), so only the factors and
one block are ever held (two while one folds on a helper thread, see
below).  With [A | b] = Q [[R_A, c], [0, r]], the
least-squares problem becomes R_A theta ~ c, whose residual adds |r| in
quadrature, and R_A has the singular values of A.

The columns come in units (see ``Method.box_columns``): the features of
one spatial box, or with one spatial box and several velocity boxes,
rho's features and those of one velocity box.  A row is exactly zero in
the phase columns of every box whose window does not reach its point, and
most rows touch few units.  Each row is then folded into the factor of
its signature, the set of units it has a non-zero entry in, over those
units' columns and the rhs alone.  With velocity units, the micro
(aprfm) and interior (rfm) rows of a spatial node all carry the node's
velocity average, which reaches every velocity box; one Householder
reflection per node and velocity group first gathers it into the group's
first row, so that the group's other rows touch the group's units only
(see ``_reflect_groups``).  An orthogonal transform of the rows leaves
the least-squares problem as it is.  After the last block the factors
are merged into one R (again with ``dtpqrt``): the widest one becomes R
when it spans every column, and each other factor, whose rows are upper
trapezoidal once placed in the full column space, folds into the
trailing part of R from its leading column on, in place.  With one unit
there is one factor, folded as the rows arrive, and no merge.

Each fold calls LAPACK ``dtpqrt`` through ctypes, at the function pointer
that ``scipy.linalg.cython_lapack`` publishes, so the call releases the
GIL (scipy's f2py wrapper holds it): the worker threads of a sweep fold
side by side, and a lone run builds its next block while a helper thread
folds.  The final ``gelsd`` still goes through scipy and holds it.

Every fold runs on one BLAS thread (where the bundled OpenBLAS lets its
thread count be set).  When the process's BLAS has more, the folds of a
block run on one helper thread while the calling thread builds the next
block (assembly, rescaling, the signature split, the reflections and
the weighted copy), at most one block folding at a time and in block
order.  The merge runs on the calling thread, on one BLAS thread too, and
``gelsd`` gets the process's threads back.  Under a sweep, whose cells
already run on one BLAS thread each, or with one BLAS thread to start
with, the folds run inline on the calling thread.  Either way the factors
are the same, bit for bit.
"""

import contextlib
import ctypes
import functools
import glob
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.linalg
from scipy.linalg import cython_lapack

from .assemble import ROW_MICRO, ROW_RFM
from .errors import NonFiniteInputError

# Block size of the compact-WY reflectors in each fold: on the 2-core
# OpenBLAS box 16 folded 2048 x 577 and 1536 x 1153 blocks 7-15 % faster
# than 32, and 8 or 64 were slower still.
_FOLD_BLOCK = 16

# The transposing copy of a block into a fold buffer reads each column of
# the buffer from every row of the block.  Narrow blocks (at most _NARROW
# columns) go in tiles of _COPY_TILE entries, so that the rows of one tile
# stay in cache across the columns; wider ones go whole, which tiles made
# slower.  One BLAS thread, 2-core box, medians: 2313 x 256 5.5 -> 1.1 ms,
# 8320 x 64 4.8 -> 1.0 ms, 30326 x 32 8.5 -> 2.5 ms; 1161 x 576 0.82 ms
# whole against 0.86 ms in tiles of 256 rows.
_COPY_TILE = 1 << 16
_NARROW = 256

# How many of the smallest retained singular values a report keeps.
_TAIL = 8


@dataclass(frozen=True)
class SolveReport:
    """Solution of min ||A theta - b||_2 plus diagnostics.
    ``singular_tail`` holds the smallest retained singular values of A
    (at most ``_TAIL``), largest first."""

    coeffs: np.ndarray
    residual_norm: float
    rank: int
    condition_estimate: float
    singular_tail: tuple
    wall_time: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


def _weighted_rows(block, runs, columns):
    """The weighted rows diag(lam_k) [A_k | b_k] of ``block`` in the row
    ranges ``runs`` and the column slices ``columns``, as the
    Fortran-ordered buffer that ``dtpqrt`` reads.  The weights are applied
    in that buffer, after the transposing copy into it: on the 2-core box,
    copying then scaling a 1536 x 577 block in place took 1.9 ms, one
    ``np.multiply`` from C into Fortran order 7.7 ms.  Blocks of at most
    ``_NARROW`` columns are copied in tiles of ``_COPY_TILE`` entries."""
    n = sum(hi - lo for lo, hi in runs)
    w = sum(s.stop - s.start for s in columns)
    rows = np.empty((n, w + 1), order="F")
    step = (_COPY_TILE // block.n_columns if block.n_columns <= _NARROW
            else block.n_rows)
    top = 0
    for lo, hi in [(t, min(t + step, hi)) for lo, hi in runs
                   for t in range(lo, hi, step)]:
        left = 0
        for s in columns:
            rows[top:top + hi - lo, left:left + s.stop - s.start] = \
                block.matrix[lo:hi, s]
            left += s.stop - s.start
        top += hi - lo
    lam = np.concatenate([block.lam[lo:hi] for lo, hi in runs])
    rows[:, :w] *= lam[:, None]
    np.multiply(np.concatenate([block.rhs[lo:hi] for lo, hi in runs]), lam,
                out=rows[:, w])
    _check_finite(rows)
    return rows


def _check_finite(rows):
    if not np.all(np.isfinite(rows)):
        raise NonFiniteInputError("system contains non-finite entries")


def _interior(block, groups):
    """(first row, nodes) of the interior rows of ``block`` (see
    ``lstsq``), or None when it has none or there are no groups."""
    if groups is None:
        return None
    interior = np.isin(block.row_kind, (ROW_MICRO, ROW_RFM))
    n_int = np.count_nonzero(interior)
    if n_int == 0:
        return None
    top = int(np.argmax(interior))
    n_v = groups[-1][1]
    if not np.all(interior[top:top + n_int]) or n_int % n_v:
        raise ValueError("interior rows must be consecutive, n_v per node")
    return top, n_int // n_v


def _reflect_groups(block, top, n_x, groups, box_columns):
    """[(signature, rows)]: the rows of ``block`` before its interior rows,
    which start at row ``top`` (``n_x`` nodes), and the interior rows after
    one Householder reflection H per node and velocity group (see
    ``lstsq``), as fold buffers.  The first spans every unit (the units
    cover every column) and holds the rows before ``top`` and every
    group's first row, node-major within each group; then each group of
    several velocities has one over its units with its other rows,
    node-major.

    A group's rows at a node are A_l = L_l - m, where L_l is zero outside
    the columns of the group's units and m is the same for every l.  Over
    the weighted rows W = diag(lam) [A | b], H maps the weights lam onto
    the first row, H lam = -|lam| e_1, so it maps diag(lam) 1 m^T onto
    that row as well.  With p = sum_l lam_l^2 [A_l | b_l] and
    beta = 1 / (|lam| (|lam| + lam_0)),

        -(H W)_0 = p / |lam|,
        (H W)_i  = lam_i ([A_i | b_i] - beta (p + |lam| lam_0 [A_0 | b_0])),

    for i > 0, and the second is zero outside the columns of the group's
    units (and the rhs), where A_i = -m for every i.  It is written only
    there, so the cancellation's roundoff outside them is never formed.
    The first row is written negated, which leaves the objective as it
    is."""
    n_v, z = groups[-1][1], block.n_columns
    a = block.matrix[top:top + n_x * n_v].reshape(n_x, n_v, z)
    b = block.rhs[top:top + n_x * n_v].reshape(n_x, n_v)
    lam = block.lam[top:top + n_x * n_v].reshape(n_x, n_v)
    dense = np.empty((top + n_x * len(groups), z + 1), order="F")
    if top:
        dense[:top] = _weighted_rows(block, [(0, top)], (slice(0, z),))
    folds = [(tuple(range(len(box_columns))), dense)]
    for g, (lo, hi, units) in enumerate(groups):
        sq = lam[:, lo:hi] ** 2
        norm = np.sqrt(sq.sum(axis=1))
        p = np.einsum("sl,slz->sz", sq, a[:, lo:hi])
        p_b = np.einsum("sl,sl->s", sq, b[:, lo:hi])
        first = dense[top + g * n_x:top + (g + 1) * n_x]
        np.divide(p, norm[:, None], out=first[:, :z])
        np.divide(p_b, norm, out=first[:, z])
        if hi - lo == 1:
            continue
        beta = 1.0 / (norm * (norm + lam[:, lo]))
        lead = norm * lam[:, lo]
        columns = _signature_columns(box_columns, units)
        w = sum(s.stop - s.start for s in columns)
        rows = np.empty((n_x * (hi - lo - 1), w + 1), order="F")
        # the rows of one node as the middle axis: a view of ``rows``
        nodes = np.lib.stride_tricks.as_strided(
            rows, (n_x, hi - lo - 1, w + 1),
            (rows.strides[0] * (hi - lo - 1),) + rows.strides)
        left = 0
        for s in columns:
            t = p[:, s] + lead[:, None] * a[:, lo, s]
            t *= beta[:, None]
            np.subtract(a[:, lo + 1:hi, s], t[:, None, :],
                        out=nodes[:, :, left:left + s.stop - s.start])
            left += s.stop - s.start
        weight = lam[:, lo + 1:hi].ravel()
        rows[:, :w] *= weight[:, None]
        t_b = beta * (p_b + lead * b[:, lo])
        np.multiply((b[:, lo + 1:hi] - t_b[:, None]).ravel(), weight,
                    out=rows[:, w])
        folds.append((units, rows))
    for _, rows in folds:
        _check_finite(rows)
    return folds


def _block_rows(block, box_columns, groups):
    """[(signature, rows)]: the weighted rows of ``block`` as the
    Fortran-ordered buffers that its signatures' factors fold, a signature
    possibly more than once.  With ``groups`` its interior rows are
    reflected first (see ``lstsq``)."""
    interior = _interior(block, groups)
    top = 0
    folds = []
    if interior is not None:
        folds = _reflect_groups(block, *interior, groups, box_columns)
        top = interior[0] + interior[1] * groups[-1][1]
    if top < block.n_rows:
        for signature, ranges in _signature_runs(block.matrix[top:],
                                                 box_columns).items():
            folds.append((signature, _weighted_rows(
                block, [(top + lo, top + hi) for lo, hi in ranges],
                _signature_columns(box_columns, signature))))
    return folds


@functools.cache
def _dtpqrt():
    """LAPACK ``dtpqrt(m, n, l, nb, a, lda, b, ldb, t, ldt, work, info)``
    as a ctypes function, which releases the GIL while it runs."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = cython_lapack.__pyx_capi__["dtpqrt"]
    integer = ctypes.POINTER(ctypes.c_int)
    array = ctypes.c_void_p
    return ctypes.CFUNCTYPE(None, integer, integer, integer, integer,
                            array, integer, array, integer, array, integer,
                            array, integer)(pointer(capsule, name(capsule)))


def _leading_dimension(a):
    """The leading dimension LAPACK reads the matrix ``a`` with, after
    checking that ``a`` is writeable float64 with Fortran-ordered rows."""
    if a.dtype != np.float64 or not a.flags.writeable:
        raise ValueError("fold operands must be writeable float64 matrices")
    row_stride, column_stride = a.strides
    if row_stride != a.itemsize or column_stride % a.itemsize \
            or column_stride < a.itemsize * a.shape[0]:
        raise ValueError("fold operands must be Fortran-ordered")
    return column_stride // a.itemsize


def _fold(r, rows, l=0):
    """Fold the rows ``rows`` into the triangular factor ``r`` in place
    (``r`` may be a view); with ``l`` > 0 their last ``l`` rows are upper
    trapezoidal (see ``dtpqrt``).  ``rows`` is overwritten."""
    n = r.shape[0]
    if r.shape != (n, n) or rows.shape[1:] != (n,):
        raise ValueError("fold operands do not conform")
    lda, ldb = _leading_dimension(r), _leading_dimension(rows)
    nb = min(_FOLD_BLOCK, n)
    t, work = np.empty((nb, n), order="F"), np.empty(nb * n)
    m, n, l, nb, lda, ldb = map(ctypes.c_int,
                                (rows.shape[0], n, l, nb, lda, ldb))
    info = ctypes.c_int()
    _dtpqrt()(m, n, l, nb, r.ctypes.data, lda, rows.ctypes.data, ldb,
              t.ctypes.data, nb, work.ctypes.data, info)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dtpqrt failed with info {info.value}")


def _signature_runs(matrix, box_columns):
    """{signature: row ranges} of ``matrix``: the ranges (lo, hi) of
    consecutive rows that have a non-zero entry in the columns of the same
    units, grouped by that set of units, in row order.  A row touches a
    unit when it is non-zero in a column of that unit alone (aprfm's
    velocity units share rho's columns); a row that touches none belongs
    to every unit.  With one unit every row belongs to it, unscanned."""
    n_rows = matrix.shape[0]
    if len(box_columns) == 1:
        return {(0,): [(0, n_rows)]}
    owners = {}
    for slices in box_columns:
        for s in slices:
            owners[s.start, s.stop] = owners.get((s.start, s.stop), 0) + 1
    touch = np.zeros((n_rows, len(box_columns)), dtype=bool)
    for unit, slices in enumerate(box_columns):
        for s in slices:
            if owners[s.start, s.stop] == 1:
                touch[:, unit] |= np.any(matrix[:, s] != 0, axis=1)
    touch[~np.any(touch, axis=1)] = True
    starts = np.flatnonzero(np.any(touch[1:] != touch[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), n_rows]
    runs = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        signature = tuple(np.flatnonzero(touch[lo]).tolist())
        runs.setdefault(signature, []).append((lo, hi))
    return runs


def _signature_columns(box_columns, signature):
    """The columns of the units in ``signature`` as ascending slices, each
    shared slice once and adjacent ones joined."""
    columns = []
    for start, stop in sorted({(s.start, s.stop) for unit in signature
                               for s in box_columns[unit]}):
        if columns and columns[-1].stop == start:
            start = columns.pop().start
        columns.append(slice(start, stop))
    return tuple(columns)


def _merge(factors, z):
    """The (z + 1)^2 factor of all rows, from the signature factors
    ``factors`` ({signature: (column slices, factor)}), each freed once it
    is merged.  The widest factor becomes R if it spans every column;
    the others follow in descending order of their leading column k, each
    placed in the columns of R[k:, k:] and folded into that trailing part,
    where its rows are upper trapezoidal."""
    widest = max(factors, key=lambda key: factors[key][1].shape[0])
    if factors[widest][1].shape[0] == z + 1:
        r = factors.pop(widest)[1]
    else:
        r = np.zeros((z + 1, z + 1), order="F")

    def lead(key):
        columns = factors[key][0]
        return columns[0].start if columns else z

    for key in sorted(factors, key=lead, reverse=True):
        k = lead(key)
        columns, factor = factors.pop(key)
        w = factor.shape[0] - 1
        rows = np.zeros((w + 1, z + 1 - k), order="F")
        left = 0
        for s in columns:
            rows[:, s.start - k:s.stop - k] = \
                factor[:, left:left + s.stop - s.start]
            left += s.stop - s.start
        rows[:, z - k] = factor[:, w]
        del factor
        _fold(r[k:, k:], rows, l=w + 1)
    return r


# The OpenBLAS copies bundled with scipy (LAPACK: the QR folds and the
# SVD) and numpy (@ and norm): the package, its library file and the
# suffix of its thread-count symbols.
_OPENBLAS = ((scipy, "libscipy_openblas-*.so", ""),
             (np, "libscipy_openblas64_-*.so", "64_"))


@functools.cache
def _blas_thread_controls():
    """(get, set) thread-count functions of both bundled OpenBLAS copies,
    or None when either cannot be found."""
    controls = []
    for package, pattern, suffix in _OPENBLAS:
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs")
        paths = glob.glob(os.path.join(libs, pattern))
        if len(paths) != 1:
            return None
        try:
            lib = ctypes.CDLL(paths[0])
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            return None
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        controls.append((get, put))
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with both OpenBLAS copies on one thread and restore
    their counts after it.  Yields the number of threads it took away (the
    most from either copy): 0 when both already ran on one, and None,
    changing nothing, when they cannot be set.

    The roundoff of the QR folds depends on the BLAS thread count.  A
    sweep runs inside it, so that a table's errors do not depend on the
    number of workers.  ``lstsq`` folds inside it, because a second BLAS
    thread buys the folds little and the CPU it frees can build the next
    block meanwhile (``lstsq`` alone over 24 pre-built ex6 tanh blocks at
    criterion-6 size, 2-core box, medians of 6: 0.88 and 0.90 s with the
    folds on two threads, 0.98 and 1.01 s on one), and merges inside it,
    so that a lone run's factor is the one its sweep cell folds."""
    controls = _blas_thread_controls()
    if controls is None:
        yield None
        return
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield max(previous) - 1
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


def _fold_in_order(folds):
    """Fold each (factor, rows) pair of ``folds`` in turn."""
    for r, rows in folds:
        _fold(r, rows)


def lstsq(blocks, rank_tol=1e-12, box_columns=None, velocity_groups=None):
    """Minimum-norm least-squares solution of the weighted system
    diag(lam) A theta ~ diag(lam) b stacked from the ``LinearSystem`` row
    blocks in ``blocks`` (any iterable, read once).

    ``box_columns`` lists, for each unit, the column slices of its
    features (see ``Method.box_columns``); with more than one unit, rows
    are folded into one factor per signature and merged at the end.  By
    default all columns belong to one unit.  ``velocity_groups`` (see
    ``Method.velocity_groups``) gives the velocity groups of the blocks'
    micro (aprfm) or interior (rfm) rows, which come node-major with every
    velocity of a node; each node's rows of one group are then folded
    after one reflection (see ``_reflect_groups``): its first row over
    every unit, next to the macro rows, and its other rows over the
    group's units.

    Singular values below ``rank_tol`` times the largest are treated as
    zero; the condition estimate is the ratio of the largest retained
    singular value to the smallest retained one.  ``wall_time`` is the
    caller's time in this call outside the block iterator: the signature
    split, the reflections and weighted copies, the folds it runs or
    waits for, the merge and the final SVD.  Folds that overlap the
    production of the next block are not counted.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    factors = {}  # signature: (column slices, factor)
    z = None
    start = time.perf_counter()
    producing = 0.0  # spent in the block iterator
    blocks = iter(blocks)
    # a helper thread only when the BLAS had threads to spare: in a sweep
    # every CPU already runs a worker
    with (_one_blas_thread() as taken,
          ThreadPoolExecutor(1) if taken else contextlib.nullcontext()
          as helper):
        pending = None  # the helper's folds of the previous block
        while True:
            produced = time.perf_counter()
            block = next(blocks, None)
            producing += time.perf_counter() - produced
            if block is None:
                break
            if block.matrix.size == 0:
                continue
            if z is None:
                z = block.n_columns
                box_columns = box_columns or ((slice(0, z),),)
            elif z != block.n_columns:
                raise ValueError(
                    "row blocks differ in their number of columns")
            folds = []
            for signature, rows in _block_rows(block, box_columns,
                                               velocity_groups):
                if signature not in factors:
                    columns = _signature_columns(box_columns, signature)
                    w = sum(s.stop - s.start for s in columns)
                    factors[signature] = (columns,
                                          np.zeros((w + 1, w + 1), order="F"))
                folds.append((factors[signature][1], rows))
            del block, rows  # freed before the next one is built
            if helper is None:
                _fold_in_order(folds)
                folds = []
            if pending is not None:
                pending.result()
            if folds:
                pending = helper.submit(_fold_in_order, folds)
                del folds  # the helper holds them until they are folded
        if pending is not None:
            pending.result()
        if z is None:
            raise ValueError("system must have at least one row and column")
        r = _merge(factors, z)
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        r[:z, :z], r[:z, z], cond=rank_tol, lapack_driver="gelsd",
        check_finite=False)
    residual = float(np.hypot(np.linalg.norm(r[:z, :z] @ coeffs - r[:z, z]),
                              r[z, z]))
    retained = sing[sing > rank_tol * sing[0]] if sing[0] > 0 else sing[:1]
    condition = float(sing[0] / retained[-1]) if retained[-1] > 0 else np.inf
    return SolveReport(coeffs=coeffs, residual_norm=residual,
                       rank=int(rank), condition_estimate=condition,
                       singular_tail=tuple(map(float, retained[-_TAIL:])),
                       wall_time=time.perf_counter() - start - producing)

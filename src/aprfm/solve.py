"""Minimum-norm least squares over streamed row blocks, with rank and
conditioning diagnostics.

The system A theta ~ b arrives as row blocks.  Each block is folded into
upper-triangular factors of [A | b] as it arrives (TSQR: Demmel, Grigori,
Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012), so only the factors and
one block are ever held (two while one folds on a helper thread, see
below).  With [A | b] = Q [[R_A, c], [0, r]], the
least-squares problem becomes R_A theta ~ c, whose residual adds |r| in
quadrature, and R_A has the singular values of A.

When the columns belong to several spatial boxes, a row is exactly zero
in the columns of every box whose window does not reach its point, and
most rows touch one box only.  Each row is then folded into the factor of
its signature, the set of boxes whose columns it has a non-zero entry in,
over those boxes' columns and the rhs alone.  After the last block the
factors are merged into one R (again with ``dtpqrt``): the widest one
becomes R when it spans every column, and each other factor, whose rows
are upper trapezoidal once placed in the full column space, folds into
the trailing part of R from its leading column on, in place.  With one
box there is one factor, folded as the rows arrive, and no merge.

Each fold calls LAPACK ``dtpqrt`` through ctypes, at the function pointer
that ``scipy.linalg.cython_lapack`` publishes, so the call releases the
GIL (scipy's f2py wrapper holds it): the worker threads of a sweep fold
side by side, and a lone run builds its next block while a helper thread
folds.  The final ``gelsd`` still goes through scipy and holds it.

Every fold runs on one BLAS thread (where the bundled OpenBLAS lets its
thread count be set).  When the process's BLAS has more, the folds of a
block run on one helper thread while the calling thread builds the next
block (assembly, rescaling, the signature split and the weighted copy),
at most one block folding at a time and in block order; the merge and
``gelsd`` get the process's threads back.  Under a sweep, whose cells
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

from .errors import NonFiniteInputError

# Block size of the compact-WY reflectors in each fold: on the 2-core
# OpenBLAS box 16 folded 2048 x 577 and 1536 x 1153 blocks 7-15 % faster
# than 32, and 8 or 64 were slower still.
_FOLD_BLOCK = 16

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
    ``np.multiply`` from C into Fortran order 7.7 ms."""
    n = sum(hi - lo for lo, hi in runs)
    w = sum(s.stop - s.start for s in columns)
    rows = np.empty((n, w + 1), order="F")
    top = 0
    for lo, hi in runs:
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
    if not np.all(np.isfinite(rows)):
        raise NonFiniteInputError("system contains non-finite entries")
    return rows


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


def _signature_runs(block, box_columns):
    """{signature: row ranges} of ``block``: the ranges (lo, hi) of
    consecutive rows that have a non-zero entry in the columns of the same
    spatial boxes, grouped by that set of boxes, in row order.  With one
    box every row belongs to it, unscanned."""
    if len(box_columns) == 1:
        return {(0,): [(0, block.n_rows)]}
    touch = np.stack([np.logical_or.reduce(
        [np.any(block.matrix[:, s] != 0, axis=1) for s in slices])
        for slices in box_columns], axis=1)
    starts = np.flatnonzero(np.any(touch[1:] != touch[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), block.n_rows]
    runs = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        signature = tuple(np.flatnonzero(touch[lo]).tolist())
        runs.setdefault(signature, []).append((lo, hi))
    return runs


def _signature_columns(box_columns, signature):
    """The column slices of the boxes in ``signature``, ascending."""
    return tuple(sorted((s for box in signature for s in box_columns[box]),
                        key=lambda s: s.start))


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
    folds on two threads, 0.98 and 1.01 s on one)."""
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


def lstsq(blocks, rank_tol=1e-12, box_columns=None):
    """Minimum-norm least-squares solution of the weighted system
    diag(lam) A theta ~ diag(lam) b stacked from the ``LinearSystem`` row
    blocks in ``blocks`` (any iterable, read once).

    ``box_columns`` lists, for each spatial box, the column slices of its
    features (see ``Method.box_columns``); with more than one box, rows
    are folded into one factor per signature and merged at the end.  By
    default all columns belong to one box.

    Singular values below ``rank_tol`` times the largest are treated as
    zero; the condition estimate is the ratio of the largest retained
    singular value to the smallest retained one.  ``wall_time`` is the
    caller's time in this call outside the block iterator: the signature
    split, the weighted copies, the folds it runs or waits for, the merge
    and the final SVD.  Folds that overlap the production of the next
    block are not counted.
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
            for signature, ranges in _signature_runs(block,
                                                     box_columns).items():
                if signature not in factors:
                    columns = _signature_columns(box_columns, signature)
                    w = sum(s.stop - s.start for s in columns)
                    factors[signature] = (columns,
                                          np.zeros((w + 1, w + 1), order="F"))
                columns, r = factors[signature]
                if helper is None:
                    _fold(r, _weighted_rows(block, ranges, columns))
                else:
                    folds.append((r, _weighted_rows(block, ranges, columns)))
            del block  # freed before the next one is built
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

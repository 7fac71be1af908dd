"""Minimum-norm least squares over streamed row blocks, with rank and
conditioning diagnostics.

The system A theta ~ b arrives as row blocks.  Each block is folded into
upper-triangular factors of [A | b] as it arrives (TSQR: Demmel, Grigori,
Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012), so only the factors and
one block are ever held.  With [A | b] = Q [[R_A, c], [0, r]], the
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
the trailing part of R from its leading column on.  With one box there is
one factor, folded as the rows arrive, and no merge.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtpqrt

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


def _fold(r, rows, l=0):
    """Fold the rows ``rows`` into the triangular factor ``r``; with
    ``l`` > 0 their last ``l`` rows are upper trapezoidal (see
    ``dtpqrt``)."""
    r, _, _, info = dtpqrt(l, min(_FOLD_BLOCK, r.shape[0]), r, rows,
                           overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtpqrt failed with info {info}")
    return r


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
        trailing = r[k:, k:]
        merged = _fold(trailing, rows, l=w + 1)
        if merged is not trailing:  # dtpqrt copied the non-contiguous view
            trailing[...] = merged
    return r


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
    singular value to the smallest retained one.  ``wall_time`` counts the
    folds, the merge and the final SVD, not the time spent producing the
    blocks.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    factors = {}  # signature: (column slices, factor)
    z = None
    elapsed = 0.0
    for block in blocks:
        if block.matrix.size == 0:
            continue
        start = time.perf_counter()
        if z is None:
            z = block.n_columns
            box_columns = box_columns or ((slice(0, z),),)
        elif z != block.n_columns:
            raise ValueError("row blocks differ in their number of columns")
        for signature, ranges in _signature_runs(block, box_columns).items():
            if signature not in factors:
                columns = _signature_columns(box_columns, signature)
                w = sum(s.stop - s.start for s in columns)
                factors[signature] = (columns,
                                      np.zeros((w + 1, w + 1), order="F"))
            columns, r = factors[signature]
            factors[signature] = (columns, _fold(
                r, _weighted_rows(block, ranges, columns)))
        elapsed += time.perf_counter() - start
    if z is None:
        raise ValueError("system must have at least one row and column")
    start = time.perf_counter()
    r = _merge(factors, z)
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        r[:z, :z], r[:z, z], cond=rank_tol, lapack_driver="gelsd",
        check_finite=False)
    residual = float(np.hypot(np.linalg.norm(r[:z, :z] @ coeffs - r[:z, z]),
                              r[z, z]))
    retained = sing[sing > rank_tol * sing[0]] if sing[0] > 0 else sing[:1]
    condition = float(sing[0] / retained[-1]) if retained[-1] > 0 else np.inf
    elapsed += time.perf_counter() - start
    return SolveReport(coeffs=coeffs, residual_norm=residual,
                       rank=int(rank), condition_estimate=condition,
                       singular_tail=tuple(map(float, retained[-_TAIL:])),
                       wall_time=elapsed)

"""Minimum-norm least squares over streamed row blocks, with rank and
conditioning diagnostics.

The system A theta ~ b arrives as row blocks.  Each block is folded into
the upper-triangular factor R of [A | b] as it arrives (TSQR: Demmel,
Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012), so only R and
one block are ever held.  With [A | b] = Q [[R_A, c], [0, r]], the
least-squares problem becomes R_A theta ~ c, whose residual adds |r| in
quadrature, and R_A has the singular values of A.
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


def _fold(r, block):
    """Fold one block's weighted rows diag(lam_k) [A_k | b_k] into the
    triangular factor r.  The weights are applied in the Fortran-ordered
    buffer that ``dtpqrt`` reads, after the transposing copy into it: on
    the 2-core box, copying then scaling a 1536 x 577 block in place took
    1.9 ms, one ``np.multiply`` from C into Fortran order 7.7 ms."""
    z = block.n_columns
    rows = np.empty((block.n_rows, z + 1), order="F")
    rows[:, :z] = block.matrix
    rows[:, :z] *= block.lam[:, None]
    np.multiply(block.rhs, block.lam, out=rows[:, z])
    if not np.all(np.isfinite(rows)):
        raise NonFiniteInputError("system contains non-finite entries")
    r, _, _, info = dtpqrt(0, min(_FOLD_BLOCK, z + 1), r, rows,
                           overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtpqrt failed with info {info}")
    return r


def lstsq(blocks, rank_tol=1e-12):
    """Minimum-norm least-squares solution of the weighted system
    diag(lam) A theta ~ diag(lam) b stacked from the ``LinearSystem`` row
    blocks in ``blocks`` (any iterable, read once).

    Singular values below ``rank_tol`` times the largest are treated as
    zero; the condition estimate is the ratio of the largest retained
    singular value to the smallest retained one.  ``wall_time`` counts the
    folds and the final SVD, not the time spent producing the blocks.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    r = None
    elapsed = 0.0
    for block in blocks:
        if block.matrix.size == 0:
            continue
        start = time.perf_counter()
        if r is None:
            r = np.zeros((block.n_columns + 1,) * 2, order="F")
        elif r.shape[0] != block.n_columns + 1:
            raise ValueError("row blocks differ in their number of columns")
        r = _fold(r, block)
        elapsed += time.perf_counter() - start
    if r is None:
        raise ValueError("system must have at least one row and column")
    start = time.perf_counter()
    z = r.shape[0] - 1
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        r[:z, :z], r[:z, z], cond=rank_tol, lapack_driver="gelsd",
        check_finite=False)
    residual = float(np.hypot(np.linalg.norm(r[:z, :z] @ coeffs - r[:z, z]),
                              r[z, z]))
    retained = sing[sing > rank_tol * sing[0]] if sing[0] > 0 else sing[:1]
    condition = float(sing[0] / retained[-1]) if retained[-1] > 0 else np.inf
    elapsed += time.perf_counter() - start
    return SolveReport(coeffs=coeffs, residual_norm=residual, rank=int(rank),
                       condition_estimate=condition,
                       singular_tail=tuple(map(float, retained[-_TAIL:])),
                       wall_time=elapsed)

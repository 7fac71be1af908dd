"""Dense minimum-norm least squares with rank and conditioning diagnostics."""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonFiniteInputError


@dataclass(frozen=True)
class SolveReport:
    """Solution of min ||A theta - b||_2 plus diagnostics."""

    coeffs: np.ndarray
    residual_norm: float
    rank: int
    condition_estimate: float
    wall_time: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


def lstsq(system, rank_tol=1e-12):
    """Minimum-norm least-squares solution via a rank-revealing SVD.

    Singular values below ``rank_tol`` times the largest are treated as
    zero; the condition estimate is the ratio of the largest retained
    singular value to the smallest retained one.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    matrix, rhs = system.matrix, system.rhs
    if matrix.size == 0 or rhs.size == 0:
        raise ValueError("system must have at least one row and column")
    if not np.all(np.isfinite(matrix)) or not np.all(np.isfinite(rhs)):
        raise NonFiniteInputError("system contains non-finite entries")
    start = time.perf_counter()
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        matrix, rhs, cond=rank_tol, lapack_driver="gelsd",
        check_finite=False)
    residual = float(np.linalg.norm(matrix @ coeffs - rhs))
    retained = sing[sing > rank_tol * sing[0]] if sing[0] > 0 else sing[:1]
    condition = float(sing[0] / retained[-1]) if retained[-1] > 0 else np.inf
    elapsed = time.perf_counter() - start
    return SolveReport(coeffs=coeffs, residual_norm=residual, rank=int(rank),
                       condition_estimate=condition, wall_time=elapsed)

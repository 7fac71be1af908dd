"""Ground truth: exact fields, a finite-difference transport oracle, and
the relative l2 error metric.

The oracle discretizes the one-shot form of each benchmark, the equation
the rfm solver collocates (sigma_s = 1 and sigma_a = 0, see
:mod:`aprfm.problems`),

    eps(x) v . grad_x f + f = <f> + rfm_source,

with first-order upwind differences on cell-centered grids over the
16-node Gauss-Legendre rule.  Inflow values are injected as ghost values
on the upwind side of boundary faces.  There is one entry point per
dimension, for the field each dimension's runs are scored on:

- :func:`fdm_reference` (1D) solves the scheme for the angular flux at
  the K ordinates of every cell as one sparse system, cell-major so that
  its bandwidth is about 2K, by one direct ``spsolve``; rho = <f> gives
  the scattering source of one upwind sweep at the evaluation velocities
  for f;
- :func:`fdm_density` (2D) eliminates f, which leaves a linear system
  (I - K) rho = b for the angular average rho = <f>, where K is one
  transport sweep of the scattering source; it applies K by one
  wavefront sweep over all ordinates at once and solves the system by
  GMRES (Krylov-accelerated source iteration, Adams & Larsen 2002).

Plain source iteration needs about 1/eps^2 sweeps; GMRES needs far fewer
but still more as the optical thickness grows.  The 2D oracle takes a
square only, its mesh the whole cell grid with the inflow as ghost rows:
ex4 and the ex6 annulus are scored against their exact densities, so ex5
is the one 2D problem scored against it.  It refuses eps below
``FDM_MIN_EPSILON_2D`` (1e-2); the exact-solution benchmarks carry the
deep-diffusive checks instead.

The mesh is independent of the evaluation grid; ``np.interp`` per axis maps
results onto it: linear between cell centers, constant past the outer ones.
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import LinearOperator, gmres, spsolve

from . import collocation
from .collocation import EVAL_GRID_2D, _phase, _tensor
from .errors import (NoConvergenceError, NonFiniteInputError,
                     UndefinedMetricError, UnsupportedProblemError)
from .quadrature import angular_rule

FDM_RESOLUTION_1D = 512
FDM_RESOLUTION_2D = (128, 128)
# 2D: GMRES relative-residual tolerance and the default limit on
# transport-operator applications
FDM_SWEEP_TOL = 1e-10
FDM_MAX_ITERS = 200_000
# 2D: the smallest eps the oracle is used for.  Step differencing loses
# the diffusion limit in optically thick cells (Larsen, Morel & Miller,
# JCP 69, 1987), and nothing checks GMRES's answer below it.
FDM_MIN_EPSILON_2D = 1e-2
# Krylov vectors GMRES keeps before it restarts (scipy's default is 20,
# which needs 890 sweeps on ex5 at 128 x 128 and eps = 1e-2, against 261)
_GMRES_RESTART = 60

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridField:
    """Values attached to a fixed list of grid points.  ``info`` says how
    an oracle made them: its mesh, solver and sweep count, and in 2D the
    final relative GMRES residual (empty for other fields)."""

    points: np.ndarray
    values: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        values = np.asarray(self.values, dtype=float)
        points.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if points.shape[0] != values.shape[0] or values.ndim != 1:
            raise ValueError("one value per grid point required")
        if not np.all(np.isfinite(values)):
            raise NonFiniteInputError("field values must be finite")


def phase_field(xs, vs, values):
    """GridField over the space-major product of the spatial points xs
    (S, d) and the velocities vs (L,), with ``values`` (S L,) in that
    order."""
    return GridField(points=_phase(*_tensor(xs, vs)), values=values)


def exact_field(spec, grid):
    """Exact solution on the phase grid given by its factors (xs, vs)."""
    if spec.exact_f is None:
        raise UnsupportedProblemError(f"{spec.id} has no exact solution")
    xs, vs = grid
    return phase_field(xs, vs, spec.exact_f(xs[:, None], vs).ravel())


def relative_l2(approx, ref):
    """Relative l2 distance between two fields on the same grid."""
    if approx.points.shape != ref.points.shape or \
            not np.array_equal(approx.points, ref.points):
        raise ValueError("fields live on different grids")
    denom = float(np.sum(ref.values ** 2))
    if denom == 0.0:
        raise UndefinedMetricError("reference field is identically zero")
    num = float(np.sum((approx.values - ref.values) ** 2))
    return float(np.sqrt(num / denom))


# -- finite-difference oracle ----------------------------------------------

def fdm_reference(spec, resolution=None):
    """Upwind discrete-ordinates reference f of a 1D problem on its
    evaluation phase grid; ``resolution`` sets the internal mesh (cells).

    Raises :class:`NoConvergenceError` when the direct solve gives a
    non-finite density, and :class:`UnsupportedProblemError` for a 2D
    problem (see :func:`fdm_density`).
    """
    if spec.spatial_dim != 1:
        raise UnsupportedProblemError(
            f"{spec.id}: the f oracle is 1D only, use fdm_density")
    eval_x, eval_v = collocation.evaluation_nodes(spec)
    n_cells = FDM_RESOLUTION_1D if resolution is None else resolution
    x, _, f = _solve_1d(spec, n_cells, angular_rule(1, 16), eval_v)
    f_eval = np.stack([np.interp(eval_x[:, 0], x, row) for row in f])
    # one sparse direct solve, counted as one sweep, as the log record
    # counts it
    return replace(phase_field(eval_x, eval_v, f_eval.T.ravel()),
                   info={"kind": "fdm", "resolution": (int(n_cells),),
                         "solver": "direct", "sweeps": 1})


def fdm_density(spec, resolution=None, max_iters=FDM_MAX_ITERS):
    """Upwind discrete-ordinates density of a 2D problem on its spatial
    evaluation grid; ``resolution`` sets the internal mesh (cells per
    axis) and ``max_iters`` limits the transport sweeps.

    Raises :class:`NoConvergenceError` when GMRES does not reach
    ``FDM_SWEEP_TOL`` within ``max_iters`` sweeps, and
    :class:`UnsupportedProblemError` for a 1D problem (see
    :func:`fdm_reference`), for a domain other than a square, or for eps
    below ``FDM_MIN_EPSILON_2D`` anywhere in it.
    """
    if spec.spatial_dim != 2:
        raise UnsupportedProblemError(
            f"{spec.id}: the density oracle is 2D only, use fdm_reference")
    n_cells = tuple(int(n) for n in (FDM_RESOLUTION_2D if resolution is None
                                     else resolution))
    out = _solve_2d(spec, n_cells, max_iters, angular_rule(2, 16))
    (e1, e2), eval_x, _ = collocation.cell_grid(spec, EVAL_GRID_2D[:2])
    (c1, c2), rho = out["axes"], out["rho"]
    rho = np.stack([np.interp(e2, c2, row) for row in rho])
    rho = np.stack([np.interp(e1, c1, col) for col in rho.T], axis=1)
    return GridField(points=eval_x.reshape(-1, 2), values=rho.ravel(),
                     info={"kind": "fdm", "resolution": n_cells,
                           "solver": "gmres", "sweep_tol": FDM_SWEEP_TOL,
                           "sweeps": out["iterations"],
                           "gmres_residual": out["residual"]})


def _require_oracle_eps(spec, resolution=FDM_RESOLUTION_2D):
    """Raise :class:`UnsupportedProblemError` for a domain other than a
    square, or when eps drops below ``FDM_MIN_EPSILON_2D`` in a cell of
    the 2D oracle's mesh: the checks :func:`fdm_density` makes before it
    solves."""
    if spec.geometry != "square":
        raise UnsupportedProblemError(
            f"{spec.id}: the 2D oracle takes a square, not {spec.geometry}")
    _, pts, _ = collocation.cell_grid(spec, resolution)
    eps = spec.epsilon_at(pts).min()
    if eps < FDM_MIN_EPSILON_2D:
        raise UnsupportedProblemError(
            f"{spec.id}: the 2D oracle is validated for eps down to "
            f"{FDM_MIN_EPSILON_2D:g}, not {eps:g}")


def _upwind(ratio, q):
    """The upwind recurrence f_i = ratio_i f_(i-1) + q_i from f_0 = q_0,
    over the cells (axis 1) of each ordinate (axis 0) in crossing order;
    trailing axes of ``q`` are swept alongside."""
    f = np.empty(q.shape)
    f[:, 0] = q[:, 0]
    ratio = ratio.reshape(ratio.shape + (1,) * (q.ndim - 2))
    for i in range(1, q.shape[1]):
        f[:, i] = ratio[:, i] * f[:, i - 1] + q[:, i]
    return f


def _solve_1d(spec, n_cells, rule, velocities):
    """Cell centers (n,), the density on them from one sparse solve of the
    angular system over the ``rule`` ordinates, and the angular flux at
    ``velocities`` (L, n) from one sweep each with that density's
    scattering source."""
    lo, hi = spec.x_lo[0], spec.x_hi[0]
    x = collocation.cell_centers(lo, hi, n_cells)
    n = x.size
    h = (hi - lo) / n
    eps = spec.epsilon_at(x[:, None])

    def sweep_terms(vs):
        """Per ordinate: its cells in crossing order, the upwind coupling
        a and the diagonal den of the step scheme, and the source with the
        inflow a_0 f_in folded into its first cell, all (K, n) in crossing
        order.  The order, the identity or a reversal, is its own inverse,
        so indexing by it also maps back."""
        order = np.where(vs[:, None] < 0, np.arange(n)[::-1], np.arange(n))
        a = eps[order] * np.abs(vs)[:, None] / h
        den = a + 1.0
        src = np.take_along_axis(spec.rfm_source(x[None, :, None],
                                                 vs[:, None]), order, axis=1)
        faces = np.where(vs < 0, hi, lo)[:, None]
        src[:, 0] += a[:, 0] * spec.boundary_value(faces, vs)
        return order, a, den, src

    # the step scheme for every (cell c, ordinate m), cell-major so that
    # the bandwidth is about 2K: den f(c, m) - a f(upwind cell, m)
    # - sum_m' w_m' f(c, m') = src(c, m)
    n_ord = rule.n_nodes
    order, a, den, src = sweep_terms(rule.nodes)
    index = np.arange(n * n_ord).reshape(n, n_ord)
    # each cell's K x K block: -w_m' in every row, den on the diagonal
    block = np.tile(-rule.weights, (n, n_ord, 1))
    block[:, np.arange(n_ord), np.arange(n_ord)] += \
        np.take_along_axis(den, order, axis=1).T
    # each ordinate's cells past the first it crosses, from their upwind
    # neighbours
    upwind = order * n_ord + np.arange(n_ord)[:, None]
    rows = np.concatenate([np.repeat(index, n_ord, axis=1).ravel(),
                           upwind[:, 1:].ravel()])
    cols = np.concatenate([np.tile(index, n_ord).ravel(),
                           upwind[:, :-1].ravel()])
    system = csc_array((np.concatenate([block.ravel(), -a[:, 1:].ravel()]),
                        (rows, cols)), shape=(n * n_ord, n * n_ord))
    rhs = np.take_along_axis(src, order, axis=1).T.ravel()
    rho = spsolve(system, rhs, use_umfpack=False).reshape(n, n_ord) \
        @ rule.weights
    if not np.all(np.isfinite(rho)):
        raise NoConvergenceError("1D direct solve gave a non-finite density",
                                 np.inf)
    # one sparse direct solve; the message format is what log readers parse
    logger.info("%s: 1D source iteration converged in %d sweeps (n=%d)",
                spec.id, 1, n)

    order, a, den, src = sweep_terms(velocities)
    q = (src + rho[order]) / den
    f = np.take_along_axis(_upwind(a / den, q), order, axis=1)
    return x, rho, f


class _Sweep:
    """Wavefront data of every 2D ordinate on a square mesh.  In its own
    frame, the grid flipped along each axis it travels down, an ordinate
    crosses the cells in fronts i + j = d, each front needing only the one
    before it.  The sweep data of all ordinates is held cell by cell in
    that front order, (cells, K), so one loop over the fronts sweeps every
    ordinate at once and a front is one slice of rows.

    The inflow is carried as ghost rows after the cells: n2 rows for the
    faces the first row of the frame enters through, then n1 for the
    first column's, each holding every ordinate's boundary value there.
    The upwind neighbours of a first-row or first-column cell are those
    ghost rows, so every cell reads both neighbours the same way."""

    def __init__(self, spec, grid, angles):
        c1, c2, h1, h2, eps_f = grid
        angles = np.asarray(angles, dtype=float)
        n1, n2 = self.shape = eps_f.shape
        n = n1 * n2
        flip1 = np.cos(angles) < 0
        flip2 = np.sin(angles) < 0

        # front order in the ordinates' own frame, and each front cell's
        # flat index in the grid for every ordinate
        ii, jj = np.divmod(np.argsort(np.add.outer(np.arange(n1),
                                                   np.arange(n2)).ravel(),
                                      kind="stable"), n2)
        self.bounds = np.searchsorted(ii + jj, np.arange(n1 + n2)).tolist()
        self.cells = (np.where(flip1[:, None], n1 - 1 - ii, ii) * n2
                      + np.where(flip2[:, None], n2 - 1 - jj, jj))
        # front positions of the upwind neighbours, the ghost rows n + jj
        # and n + n2 + ii on the first row and column
        position = np.empty(n, dtype=int)
        position[ii * n2 + jj] = np.arange(n)
        self.up1 = np.where(ii == 0, n + jj,
                            position[np.maximum(ii - 1, 0) * n2 + jj])
        self.up2 = np.where(jj == 0, n + n2 + ii,
                            position[ii * n2 + np.maximum(jj - 1, 0)])

        eps = self.frontal(eps_f)
        self.a1 = eps * np.abs(np.cos(angles)) / h1
        self.a2 = eps * np.abs(np.sin(angles)) / h2
        self.den = self.a1 + self.a2 + 1.0

        # the inflow on the face each first-row (first-column) cell enters
        # through, in the order of its ghost rows
        i, j = np.divmod(self.cells.T, n2)
        first1, first2 = position[:n2], position[::n2]
        faces = ((c1[i[first1]] - np.where(flip1, -h1, h1) / 2.0,
                  c2[j[first1]]),
                 (c1[i[first2]],
                  c2[j[first2]] - np.where(flip2, -h2, h2) / 2.0))
        self.inflow = np.concatenate([spec.boundary_value(
            np.stack([x1, x2], axis=-1), np.broadcast_to(angles, x1.shape))
            for x1, x2 in faces])

    def frontal(self, field):
        """``field`` ((n1, n2), or (K, n1, n2) per ordinate) in front
        order, (cells, K)."""
        n_ord = self.cells.shape[0]
        flat = np.broadcast_to(field, (n_ord,) + self.shape)
        return np.ascontiguousarray(np.take_along_axis(
            flat.reshape(n_ord, -1), self.cells, axis=1).T)

    def sweep(self, sources):
        """The angular flux (K, n1, n2) of one transport sweep of every
        ordinate with the sources (K, n1, n2)."""
        src = self.frontal(sources)
        n = src.shape[0]
        f = np.empty((n + self.inflow.shape[0], src.shape[1]))
        f[n:] = self.inflow
        a1, a2, den, up1, up2 = self.a1, self.a2, self.den, self.up1, self.up2
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            f[lo:hi] = (a1[lo:hi] * f.take(up1[lo:hi], axis=0)
                        + a2[lo:hi] * f.take(up2[lo:hi], axis=0)
                        + src[lo:hi]) / den[lo:hi]
        out = np.empty(self.cells.shape)
        np.put_along_axis(out, self.cells, f[:n].T, axis=1)
        return out.reshape(sources.shape)


def _solve_2d(spec, n_cells, max_iters, rule):
    """The cell centers per axis, the density on the cell grid of a
    square, the sweep count and the final relative residual of one GMRES
    solve over the ``rule`` ordinates."""
    _require_oracle_eps(spec, n_cells)
    n1, n2 = n_cells
    (lo1, lo2), (hi1, hi2) = spec.x_lo, spec.x_hi
    h1, h2 = (hi1 - lo1) / n1, (hi2 - lo2) / n2
    (c1, c2), pts, _ = collocation.cell_grid(spec, n_cells)
    sweep = _Sweep(spec, (c1, c2, h1, h2, spec.epsilon_at(pts)), rule.nodes)
    sources = spec.rfm_source(pts, rule.nodes[:, None, None])

    # GMRES on rho - (S(rho) - S(0)) = S(0), where S(rho) averages one
    # transport sweep of every ordinate with scattering source rho;
    # the application count includes the sweep that gives S(0)
    applications = 0
    residuals = [1.0]  # GMRES's relative residuals, in order

    def sweep_average(rho):
        nonlocal applications
        if applications >= max_iters:
            raise NoConvergenceError("GMRES stalled", residuals[-1])
        applications += 1
        f_all = sweep.sweep(sources + rho)
        return np.einsum("q,qij->ij", rule.weights, f_all)

    def matvec(x):
        rho = x.reshape(n1, n2)
        return (rho - (sweep_average(rho) - b)).ravel()

    b = sweep_average(np.zeros((n1, n2)))
    op = LinearOperator((n1 * n2, n1 * n2), matvec=matvec, dtype=float)
    x, info = gmres(op, b.ravel(), rtol=FDM_SWEEP_TOL, atol=0.0,
                    restart=_GMRES_RESTART, maxiter=int(max_iters),
                    callback=residuals.append, callback_type="pr_norm")
    if info != 0:
        raise NoConvergenceError("GMRES stalled", residuals[-1])
    rho = x.reshape(n1, n2)
    logger.info("%s: 2D source iteration converged in %d sweeps (%dx%d)",
                spec.id, applications, n1, n2)
    return {"axes": (c1, c2), "rho": rho, "iterations": applications,
            "residual": float(residuals[-1])}

"""Ground truth: exact fields, a finite-difference transport oracle, and
the relative l2 error metric.

The oracle discretizes the native form of each benchmark,

    eps(x) v . grad_x f + (sigma_s + eps(x)^2 sigma_a) f
        = sigma_s <f> + rfm_source,

with first-order upwind differences on cell-centered grids over the
16-node Gauss-Legendre rule.  Inflow values are injected as ghost values
on the upwind side of boundary faces.  Eliminating f leaves a linear
system (I - K) rho = b for the angular average rho = <f>, where K is one
transport sweep of the scattering source.  There is one entry point per
dimension, for the field each dimension's runs are scored on:

- :func:`fdm_reference` (1D) forms K densely from the per-ordinate upwind
  propagators, solves the system directly, and sweeps once more at the
  evaluation velocities for f;
- :func:`fdm_density` (2D) applies K by one wavefront sweep over all
  ordinates at once and solves the system by GMRES (Krylov-accelerated
  source iteration, Adams & Larsen 2002) for rho.

Plain source iteration needs about 1/eps^2 sweeps; GMRES needs far fewer
but still more as the optical thickness grows.  The 2D oracle refuses eps
below ``FDM_MIN_EPSILON_2D`` (1e-2); the exact-solution benchmarks carry
the deep-diffusive checks instead.

The internal mesh resolution is independent of the error-measurement grid;
results are interpolated onto the evaluation grid.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import LinearOperator, gmres

from . import collocation
from .collocation import _phase, _tensor
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
    """Values attached to a fixed list of grid points."""

    points: np.ndarray
    values: np.ndarray

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


def phase_field(x, v, values):
    """GridField over phase points given X (I, d) and V (I,)."""
    return GridField(points=_phase(x, v), values=values)


def exact_field(spec, grid):
    """Exact solution sampled on a phase grid (X, V)."""
    if spec.exact_f is None:
        raise UnsupportedProblemError(f"{spec.id} has no exact solution")
    x, v = grid
    return phase_field(x, v, spec.exact_f(x, v))


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
    eval_x = collocation.evaluation_spatial_grid(spec)
    _, n_velocity = collocation.evaluation_counts(spec)
    eval_v = collocation.velocity_cells(spec, n_velocity)
    x, _, f = _solve_1d(spec, resolution or FDM_RESOLUTION_1D,
                        angular_rule(1, 16), eval_v)
    f_eval = np.stack([np.interp(eval_x[:, 0], x, row) for row in f])
    return phase_field(*_tensor(eval_x, eval_v), f_eval.T.ravel())


def fdm_density(spec, resolution=None, max_iters=FDM_MAX_ITERS):
    """Upwind discrete-ordinates density of a 2D problem on its spatial
    evaluation grid; ``resolution`` sets the internal mesh (cells per
    axis) and ``max_iters`` limits the transport sweeps.

    Raises :class:`NoConvergenceError` when GMRES does not reach
    ``FDM_SWEEP_TOL`` within ``max_iters`` sweeps, and
    :class:`UnsupportedProblemError` for a 1D problem (see
    :func:`fdm_reference`) or for eps below ``FDM_MIN_EPSILON_2D``
    anywhere in the domain.
    """
    if spec.spatial_dim != 2:
        raise UnsupportedProblemError(
            f"{spec.id}: the density oracle is 2D only, use fdm_reference")
    out = _solve_2d(spec, resolution or FDM_RESOLUTION_2D, max_iters,
                    angular_rule(2, 16))
    rho = out["rho"]
    if spec.geometry == "annulus":
        rho = _fill_holes(out["mask"], rho)
    interp = RegularGridInterpolator((out["c1"], out["c2"]), rho,
                                     method="linear", bounds_error=False,
                                     fill_value=None)
    eval_x = collocation.evaluation_spatial_grid(spec)
    return GridField(points=eval_x, values=interp(eval_x))


def _fdm_meta(spec):
    """The ``reference`` entry of a run report scored against the oracle
    at its defaults."""
    if spec.spatial_dim == 1:
        return {"kind": "fdm", "resolution": (FDM_RESOLUTION_1D,),
                "solver": "direct"}
    return {"kind": "fdm", "resolution": FDM_RESOLUTION_2D,
            "solver": "gmres", "sweep_tol": FDM_SWEEP_TOL}


def _native_fields(spec, x):
    eps = spec.epsilon_at(x)
    sig_s = spec.sigma_s(x)
    removal = sig_s + eps * eps * spec.sigma_a(x)
    return eps, sig_s, removal


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
    """Cell centers (n,), the density on them from one dense solve over
    the ``rule`` ordinates, and the angular flux at ``velocities`` (L, n)
    from one sweep each with that density's scattering source."""
    lo, hi = spec.x_lo[0], spec.x_hi[0]
    n = int(n_cells)
    h = (hi - lo) / n
    x = collocation.cell_centers(lo, hi, n)
    eps, sig_s, removal = _native_fields(spec, x[:, None])

    def sweep_terms(vs, scattering):
        """Per ordinate: its cells in crossing order, the upwind ratio and
        diagonal, and the recurrence source q for the scattering source
        ``scattering`` (n,) with the inflow folded into q_0, all (K, n) in
        crossing order.  The order, the identity or a reversal, is its own
        inverse, so indexing by it also maps back."""
        order = np.where(vs[:, None] < 0, np.arange(n)[::-1], np.arange(n))
        a = eps[order] * np.abs(vs)[:, None] / h
        den = a + removal[order]
        ratio = a / den
        src = np.stack([spec.rfm_source(x[:, None], np.full(n, v))
                        for v in vs])
        q = (np.take_along_axis(src, order, axis=1) + scattering[order]) / den
        faces = np.where(vs < 0, hi, lo)[:, None]
        q[:, 0] += ratio[:, 0] * spec.boundary_value(faces, vs)
        return order, den, ratio, q

    # the recurrence applied to the identity gives each ordinate's dense
    # lower-triangular propagator P_m; eliminating the angular flux leaves
    # rho = K rho + b, with K = sum_m w_m O_m P_m diag(1/den_m) O_m
    # diag(sig_s) and b = sum_m w_m O_m P_m q_m, O_m the crossing order
    order, den, ratio, q = sweep_terms(rule.nodes, np.zeros(n))
    prop = _upwind(ratio, np.broadcast_to(np.eye(n), (rule.n_nodes, n, n)))
    kernel = np.zeros((n, n))
    rhs = np.zeros(n)
    for m, weight in enumerate(rule.weights):
        block = prop[m] / den[m][None, :]
        kernel += weight * block[np.ix_(order[m], order[m])]
        rhs += weight * (prop[m] @ q[m])[order[m]]
    kernel *= sig_s[None, :]
    rho = np.linalg.solve(np.eye(n) - kernel, rhs)
    if not np.all(np.isfinite(rho)):
        raise NoConvergenceError("1D direct solve gave a non-finite density",
                                 np.inf)
    # one dense operator solve; the message format is what log readers parse
    logger.info("%s: 1D source iteration converged in %d sweeps (n=%d)",
                spec.id, 1, n)

    order, _, ratio, q = sweep_terms(velocities, sig_s * rho)
    f = np.take_along_axis(_upwind(ratio, q), order, axis=1)
    return x, rho, f


class _Sweep:
    """Wavefront data of every 2D ordinate.  In its own frame, the grid
    flipped along each axis it travels down, an ordinate crosses the cells
    in fronts i + j = d, each front needing only the one before it.  The
    sweep data of all ordinates is held cell by cell in that front order,
    (cells, K), so one loop over the fronts sweeps every ordinate at once
    and a front is one slice of rows.

    Cells outside the domain are swept too, with zero coefficients, a unit
    diagonal and a zero source, so they stay exactly zero; no domain cell
    reads them, because an upwind neighbour outside the domain counts as
    missing and gives the inflow value instead."""

    def __init__(self, spec, grid, angles):
        c1, c2, h1, h2, mask, removal_f, eps_f = grid
        angles = np.asarray(angles, dtype=float)
        n1, n2 = mask.shape
        flip1 = np.cos(angles) < 0
        flip2 = np.sin(angles) < 0
        self.mask = mask

        # front order in the ordinates' own frame, and each front cell's
        # flat index in the grid for every ordinate
        ii, jj = np.divmod(np.argsort(np.add.outer(np.arange(n1),
                                                   np.arange(n2)).ravel(),
                                      kind="stable"), n2)
        self.bounds = np.searchsorted(ii + jj, np.arange(n1 + n2)).tolist()
        self.cells = (np.where(flip1[:, None], n1 - 1 - ii, ii) * n2
                      + np.where(flip2[:, None], n2 - 1 - jj, jj))
        # front positions of the upwind neighbours (any cell on the first
        # row or column, where the inflow value is used instead)
        position = np.empty(n1 * n2, dtype=int)
        position[ii * n2 + jj] = np.arange(n1 * n2)
        self.up1 = position[np.maximum(ii - 1, 0) * n2 + jj]
        self.up2 = position[ii * n2 + np.maximum(jj - 1, 0)]

        v1 = np.abs(np.cos(angles))
        v2 = np.abs(np.sin(angles))
        eps = self.frontal(eps_f)
        a1 = eps * v1 / h1
        a2 = eps * v2 / h2
        den = a1 + a2 + self.frontal(removal_f)
        inside = self.frontal(mask)
        self.a1 = np.where(inside, a1, 0.0)
        self.a2 = np.where(inside, a2, 0.0)
        self.den = np.where(inside, den, 1.0)

        # upwind-value overrides where the upwind neighbour leaves the
        # domain, and the inflow on the face towards it
        self.b1 = inside & ((ii == 0)[:, None] | ~inside[self.up1])
        self.b2 = inside & ((jj == 0)[:, None] | ~inside[self.up2])
        self.v1 = np.zeros(inside.shape)
        self.v2 = np.zeros(inside.shape)
        i, j = np.divmod(self.cells.T, n2)
        faces = ((self.b1, self.v1, c1[i] - np.where(flip1, -h1, h1) / 2.0,
                  c2[j]),
                 (self.b2, self.v2, c1[i],
                  c2[j] - np.where(flip2, -h2, h2) / 2.0))
        for missing, inflow, x1, x2 in faces:
            for m, angle in enumerate(angles):
                rows = missing[:, m]
                if rows.any():
                    inflow[rows, m] = spec.boundary_value(
                        np.stack([x1[rows, m], x2[rows, m]], axis=-1),
                        np.full(np.count_nonzero(rows), angle))

    def frontal(self, field):
        """``field`` ((n1, n2), or (K, n1, n2) per ordinate) in front
        order, (cells, K)."""
        n_ord = self.cells.shape[0]
        flat = np.broadcast_to(field, (n_ord,) + self.mask.shape)
        return np.ascontiguousarray(np.take_along_axis(
            flat.reshape(n_ord, -1), self.cells, axis=1).T)

    def sweep(self, sources):
        """The angular flux (K, n1, n2) of one transport sweep of every
        ordinate with the sources (K, n1, n2)."""
        src = self.frontal(np.where(self.mask, sources, 0.0))
        f = np.zeros_like(src)
        a1, a2, den, b1, b2, v1, v2, up1, up2 = (
            self.a1, self.a2, self.den, self.b1, self.b2, self.v1, self.v2,
            self.up1, self.up2)
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            u1 = np.where(b1[lo:hi], v1[lo:hi], f.take(up1[lo:hi], axis=0))
            u2 = np.where(b2[lo:hi], v2[lo:hi], f.take(up2[lo:hi], axis=0))
            f[lo:hi] = (a1[lo:hi] * u1 + a2[lo:hi] * u2
                        + src[lo:hi]) / den[lo:hi]
        out = np.empty(self.cells.shape)
        np.put_along_axis(out, self.cells, f.T, axis=1)
        return out.reshape(sources.shape)


def _solve_2d(spec, n_cells, max_iters, rule):
    """The cell centers per axis, the domain mask, the density on the cell
    grid (zero in a hole) and the sweep count of one GMRES solve over the
    ``rule`` ordinates."""
    n1, n2 = (int(n) for n in n_cells)
    (lo1, lo2), (hi1, hi2) = spec.x_lo, spec.x_hi
    h1, h2 = (hi1 - lo1) / n1, (hi2 - lo2) / n2
    c1 = collocation.cell_centers(lo1, hi1, n1)
    c2 = collocation.cell_centers(lo2, hi2, n2)
    pts = np.stack(np.meshgrid(c1, c2, indexing="ij"), axis=-1)
    mask = spec.in_domain(pts)
    eps_f, sig_s_f, removal_f = (arr.reshape(n1, n2) for arr in
                                 _native_fields(spec, pts.reshape(-1, 2)))
    if eps_f[mask].min() < FDM_MIN_EPSILON_2D:
        raise UnsupportedProblemError(
            f"{spec.id}: the 2D oracle is validated for eps down to "
            f"{FDM_MIN_EPSILON_2D:g}, not {eps_f[mask].min():g}")
    sweep = _Sweep(spec, (c1, c2, h1, h2, mask, removal_f, eps_f),
                   rule.nodes)
    sources = np.stack([np.asarray(spec.rfm_source(
        pts.reshape(-1, 2), np.full(n1 * n2, angle))).reshape(n1, n2)
        for angle in rule.nodes])

    # GMRES on rho - (S(rho) - S(0)) = S(0), where S(rho) averages one
    # transport sweep of every ordinate with scattering source sig_s rho;
    # the application count includes the sweep that gives S(0)
    applications = 0
    residual = 1.0

    def sweep_average(rho):
        nonlocal applications
        if applications >= max_iters:
            raise NoConvergenceError("GMRES stalled", residual)
        applications += 1
        f_all = sweep.sweep(sources + sig_s_f * rho)
        return np.einsum("q,qij->ij", rule.weights, f_all)

    def matvec(x):
        rho = x.reshape(n1, n2)
        return (rho - (sweep_average(rho) - b)).ravel()

    def record(relative_residual):
        nonlocal residual
        residual = relative_residual

    b = sweep_average(np.zeros((n1, n2)))
    op = LinearOperator((n1 * n2, n1 * n2), matvec=matvec, dtype=float)
    x, info = gmres(op, b.ravel(), rtol=FDM_SWEEP_TOL, atol=0.0,
                    restart=_GMRES_RESTART, maxiter=int(max_iters),
                    callback=record,
                    callback_type="pr_norm")
    if info != 0:
        raise NoConvergenceError("GMRES stalled", residual)
    rho = x.reshape(n1, n2)
    logger.info("%s: 2D source iteration converged in %d sweeps (%dx%d)",
                spec.id, applications, n1, n2)
    return {"c1": c1, "c2": c2, "mask": mask, "rho": rho,
            "iterations": applications}


def _fill_holes(mask, field):
    """Propagate values into masked-out cells so interpolation stays local."""
    filled = np.where(mask, field, 0.0)
    known = mask.copy()
    while not known.all():
        acc = np.zeros_like(filled)
        cnt = np.zeros_like(filled)
        for src, dst in (((slice(None, -1), slice(None)),
                          (slice(1, None), slice(None))),
                         ((slice(1, None), slice(None)),
                          (slice(None, -1), slice(None))),
                         ((slice(None), slice(None, -1)),
                          (slice(None), slice(1, None))),
                         ((slice(None), slice(1, None)),
                          (slice(None), slice(None, -1)))):
            acc[dst] += np.where(known[src], filled[src], 0.0)
            cnt[dst] += known[src]
        newly = ~known & (cnt > 0)
        filled[newly] = acc[newly] / cnt[newly]
        known |= newly
    return filled

"""Ground truth: exact fields, a finite-difference transport oracle, and
the relative l2 error metric.

The oracle discretizes the native form of each benchmark,

    eps(x) v . grad_x f + (sigma_s + eps(x)^2 sigma_a) f
        = sigma_s <f> + rfm_source,

with first-order upwind differences on cell-centered grids over the same
Gauss-Legendre ordinates the solvers use.  Inflow values are injected as
ghost values on the upwind side of boundary faces.  Eliminating f leaves a
linear system (I - K) rho = b for the angular average rho = <f>, where K
is one transport sweep of the scattering source:

- in 1D, K is formed densely from the per-ordinate upwind propagators and
  the system is solved directly;
- in 2D, K is applied by the wavefront sweep and the system is solved by
  GMRES (Krylov-accelerated source iteration, Adams & Larsen 2002).

Plain source iteration needs about 1/eps^2 sweeps; GMRES needs far fewer
but still more as the optical thickness grows.  The oracle is meant for eps
down to about 1e-2; the exact-solution benchmarks carry the deep-diffusive
checks instead.

The internal mesh resolution is independent of the error-measurement grid;
results are interpolated onto the evaluation grid.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import LinearOperator, gmres

from . import collocation
from .errors import (NoConvergenceError, UndefinedMetricError,
                     UnsupportedProblemError)
from .quadrature import angular_rule

FDM_RESOLUTION_1D = 512
FDM_RESOLUTION_2D = (128, 128)

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
            raise ValueError("field values must be finite")


def phase_field(x, v, values):
    """GridField over phase points given X (I, d) and V (I,)."""
    return GridField(points=np.concatenate([x, np.asarray(v)[:, None]], axis=1),
                     values=values)


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

def fdm_reference(spec, resolution=None, sweep_tol=1e-10, max_iters=200_000,
                  rule=None, velocity_nodes=None):
    """Upwind discrete-ordinates reference f on the evaluation grid.

    ``resolution`` sets the internal spatial mesh (cells per axis); the
    returned field lives on the problem's evaluation phase grid, except
    that ``velocity_nodes`` overrides the velocity axis when given.

    In 2D, ``sweep_tol`` is the GMRES relative-residual tolerance and
    ``max_iters`` the limit on transport-operator applications; the 1D
    direct solve ignores both.  Raises :class:`NoConvergenceError` when
    GMRES does not reach ``sweep_tol`` within ``max_iters`` applications,
    or when the 1D solve gives a non-finite density.
    """
    rule = rule or angular_rule(spec.spatial_dim, 16)
    if velocity_nodes is None:
        _, n_velocity = collocation.evaluation_counts(spec)
        velocity_nodes = collocation.velocity_cells(spec, n_velocity)
    velocity_nodes = np.asarray(velocity_nodes, dtype=float)
    eval_x = collocation.evaluation_spatial_grid(spec)
    if spec.spatial_dim == 1:
        out = _solve_1d(spec, resolution or FDM_RESOLUTION_1D, rule,
                        velocity_nodes)
        f_eval = _interp_1d(spec, out["x"], out["f_out"], eval_x[:, 0])
    else:
        out = _solve_2d(spec, resolution or FDM_RESOLUTION_2D, sweep_tol,
                        max_iters, rule, velocity_nodes)
        f_eval = _interp_2d(spec, out, out["f_out"], eval_x)
    n_x, n_v = eval_x.shape[0], velocity_nodes.size
    x_rep = np.repeat(eval_x, n_v, axis=0)
    v_rep = np.tile(velocity_nodes, n_x)
    return phase_field(x_rep, v_rep, f_eval.T.reshape(n_x * n_v))


def fdm_density(spec, resolution=None, sweep_tol=1e-10, max_iters=200_000,
                rule=None):
    """Angular average of the oracle on the spatial eval grid; the
    arguments are those of :func:`fdm_reference`."""
    rule = rule or angular_rule(spec.spatial_dim, 16)
    eval_x = collocation.evaluation_spatial_grid(spec)
    if spec.spatial_dim == 1:
        out = _solve_1d(spec, resolution or FDM_RESOLUTION_1D, rule,
                        velocity_nodes=None)
        rho = np.interp(eval_x[:, 0], out["x"], out["rho"])
    else:
        out = _solve_2d(spec, resolution or FDM_RESOLUTION_2D, sweep_tol,
                        max_iters, rule, velocity_nodes=None)
        rho = _interp_2d(spec, out, out["rho"][None, :, :], eval_x)[0]
    return GridField(points=eval_x, values=rho)


def _native_fields(spec, x):
    eps = spec.epsilon_at(x)
    sig_s = spec.sigma_s(x)
    removal = sig_s + eps * eps * spec.sigma_a(x)
    return eps, sig_s, removal


def _solve_1d(spec, n_cells, rule, velocity_nodes):
    lo, hi = spec.x_lo[0], spec.x_hi[0]
    n = int(n_cells)
    h = (hi - lo) / n
    x = collocation.cell_centers(lo, hi, n)
    eps, sig_s, removal = _native_fields(spec, x[:, None])

    def oriented(arr, negative):
        return arr[::-1] if negative else arr

    def sweep_setup(v):
        neg = v < 0
        a = oriented(eps, neg) * abs(v) / h
        den = a + oriented(removal, neg)
        r = a / den
        face = np.array([[hi if neg else lo]])
        inflow = float(spec.boundary_value(face, np.array([v]))[0])
        src = oriented(np.asarray(spec.rfm_source(x[:, None], np.full(n, v))),
                       neg)
        return neg, den, r, inflow, src

    # dense lower-triangular propagators for the quadrature ordinates
    n_q = rule.n_nodes
    setups = [sweep_setup(v) for v in rule.nodes]
    prop = np.zeros((n_q, n, n))
    prop[:, 0, 0] = 1.0
    r_all = np.stack([s[2] for s in setups])
    for i in range(1, n):
        prop[:, i, :i] = r_all[:, i, None] * prop[:, i - 1, :i]
        prop[:, i, i] = 1.0

    # eliminate the angular flux: rho = K rho + b, with
    # K = sum_m w_m O_m P_m diag(1/den_m) O_m diag(sig_s) and
    # b = sum_m w_m O_m P_m q_m, where O_m reverses the order for v < 0
    kernel = np.zeros((n, n))
    rhs = np.zeros(n)
    for m, (neg, den, r, inflow, src) in enumerate(setups):
        q = src / den
        q[0] += r[0] * inflow
        block = prop[m] / den[None, :]
        kernel += rule.weights[m] * (block[::-1, ::-1] if neg else block)
        rhs += rule.weights[m] * oriented(prop[m] @ q, neg)
    kernel *= sig_s[None, :]
    rho = np.linalg.solve(np.eye(n) - kernel, rhs)
    if not np.all(np.isfinite(rho)):
        raise NoConvergenceError("1D direct solve gave a non-finite density",
                                 np.inf)
    # one dense operator solve; the message format is what log readers parse
    logger.info("%s: 1D source iteration converged in %d sweeps (n=%d)",
                spec.id, 1, n)

    result = {"x": x, "rho": rho, "iterations": 1}
    if velocity_nodes is not None:
        f_out = np.empty((velocity_nodes.size, n))
        for m, v in enumerate(velocity_nodes):
            neg, den, r, inflow, src = sweep_setup(v)
            scat = oriented(sig_s * rho, neg)
            q = (scat + src) / den
            q[0] += r[0] * inflow
            f = np.empty(n)
            f[0] = q[0]
            for i in range(1, n):
                f[i] = r[i] * f[i - 1] + q[i]
            f_out[m] = oriented(f, neg)
        result["f_out"] = f_out
    return result


def _interp_1d(spec, x_fine, f_out, x_eval):
    return np.stack([np.interp(x_eval, x_fine, row) for row in f_out])


class _SweepGroup:
    """Oriented wavefront data for one quadrant of 2D ordinates."""

    def __init__(self, spec, grid, angles):
        c1, c2, h1, h2, mask, removal_f, sig_s_f, eps_f = grid
        self.angles = np.asarray(angles, dtype=float)
        self.flip1 = np.cos(self.angles[0]) < 0
        self.flip2 = np.sin(self.angles[0]) < 0
        n1, n2 = mask.shape

        def orient(arr):
            out = arr
            if self.flip1:
                out = np.flip(out, axis=-2)
            if self.flip2:
                out = np.flip(out, axis=-1)
            return np.ascontiguousarray(out)

        self.orient = orient
        p1 = -1 if self.flip1 else 1
        p2 = -1 if self.flip2 else 1
        v1 = np.abs(np.cos(self.angles))
        v2 = np.abs(np.sin(self.angles))
        a1 = orient(eps_f)[None] * v1[:, None, None] / h1
        a2 = orient(eps_f)[None] * v2[:, None, None] / h2
        self.den = a1 + a2 + orient(removal_f)[None]

        # upwind-value overrides where the upwind neighbour leaves the domain
        idx1 = np.arange(n1)[:, None] - p1
        idx2 = np.arange(n2)[None, :] - p2
        missing1 = ((idx1 < 0) | (idx1 >= n1)
                    | ~mask[np.clip(idx1, 0, n1 - 1),
                            np.arange(n2)[None, :]]) & mask
        missing2 = ((idx2 < 0) | (idx2 >= n2)
                    | ~mask[np.arange(n1)[:, None],
                            np.clip(idx2, 0, n2 - 1)]) & mask
        face1 = np.stack(np.broadcast_arrays(c1[:, None] - p1 * h1 / 2.0,
                                             c2[None, :]), axis=-1)
        face2 = np.stack(np.broadcast_arrays(c1[:, None],
                                             c2[None, :] - p2 * h2 / 2.0),
                         axis=-1)
        inflow1 = np.zeros((len(angles), n1, n2))
        inflow2 = np.zeros((len(angles), n1, n2))
        pts1 = face1[missing1]
        pts2 = face2[missing2]
        for m, angle in enumerate(self.angles):
            if pts1.size:
                inflow1[m][missing1] = spec.boundary_value(
                    pts1, np.full(pts1.shape[0], angle))
            if pts2.size:
                inflow2[m][missing2] = spec.boundary_value(
                    pts2, np.full(pts2.shape[0], angle))

        mask_or = orient(mask)
        self.b1 = orient(missing1)
        self.b2 = orient(missing2)
        self.v1 = orient(inflow1)
        self.v2 = orient(inflow2)
        self.a1 = a1
        self.a2 = a2

        # wavefronts over oriented domain cells: i + j ascending
        ii, jj = np.nonzero(mask_or)
        order = np.argsort(ii + jj, kind="stable")
        ii, jj = ii[order], jj[order]
        fronts = []
        for d in range(n1 + n2 - 1):
            sel = (ii + jj) == d
            if np.any(sel):
                fronts.append((ii[sel], jj[sel]))
        self.fronts = fronts

    def sweep(self, source_fields):
        """Solve the oriented transport sweep; sources in original frame."""
        src = np.stack([self.orient(s) for s in source_fields])
        f = np.zeros_like(src)
        for ii, jj in self.fronts:
            u1 = np.where(self.b1[ii, jj][None],
                          self.v1[:, ii, jj], f[:, ii - 1, jj])
            u2 = np.where(self.b2[ii, jj][None],
                          self.v2[:, ii, jj], f[:, ii, jj - 1])
            f[:, ii, jj] = (self.a1[:, ii, jj] * u1 + self.a2[:, ii, jj] * u2
                            + src[:, ii, jj]) / self.den[:, ii, jj]
        return np.stack([self.orient(fm) for fm in f])


def _group_angles(angles):
    """Split ordinates into the four sign quadrants of (cos, sin)."""
    angles = np.asarray(angles, dtype=float)
    groups = {}
    for m, angle in enumerate(angles):
        key = (np.cos(angle) < 0, np.sin(angle) < 0)
        groups.setdefault(key, []).append(m)
    return [(np.array(idx), angles[np.array(idx)]) for idx in
            (groups[k] for k in sorted(groups))]


def _solve_2d(spec, n_cells, sweep_tol, max_iters, rule, velocity_nodes):
    n1, n2 = (int(n) for n in n_cells)
    (lo1, lo2), (hi1, hi2) = spec.x_lo, spec.x_hi
    h1, h2 = (hi1 - lo1) / n1, (hi2 - lo2) / n2
    c1 = collocation.cell_centers(lo1, hi1, n1)
    c2 = collocation.cell_centers(lo2, hi2, n2)
    pts = np.stack(np.meshgrid(c1, c2, indexing="ij"), axis=-1)
    mask = spec.in_domain(pts)
    eps_f, sig_s_f, removal_f = (arr.reshape(n1, n2) for arr in
                                 _native_fields(spec, pts.reshape(-1, 2)))
    grid = (c1, c2, h1, h2, mask, removal_f, sig_s_f, eps_f)

    def sources_for(angles):
        return [np.asarray(spec.rfm_source(pts.reshape(-1, 2),
                                           np.full(n1 * n2, angle))
                           ).reshape(n1, n2) for angle in angles]

    gl_groups = [(idx, _SweepGroup(spec, grid, ang), sources_for(ang))
                 for idx, ang in _group_angles(rule.nodes)]

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
        f_all = np.empty((rule.n_nodes, n1, n2))
        for idx, group, src in gl_groups:
            f_all[idx] = group.sweep([s + sig_s_f * rho for s in src])
        return np.einsum("q,qij->ij", rule.weights, f_all)

    def matvec(x):
        rho = x.reshape(n1, n2)
        return (rho - (sweep_average(rho) - b)).ravel()

    def record(relative_residual):
        nonlocal residual
        residual = relative_residual

    b = sweep_average(np.zeros((n1, n2)))
    op = LinearOperator((n1 * n2, n1 * n2), matvec=matvec, dtype=float)
    x, info = gmres(op, b.ravel(), rtol=sweep_tol, atol=0.0,
                    maxiter=int(max_iters), callback=record,
                    callback_type="pr_norm")
    if info != 0:
        raise NoConvergenceError("GMRES stalled", residual)
    rho = x.reshape(n1, n2)
    logger.info("%s: 2D source iteration converged in %d sweeps (%dx%d)",
                spec.id, applications, n1, n2)

    result = {"c1": c1, "c2": c2, "mask": mask, "rho": rho,
              "iterations": applications}
    if velocity_nodes is not None:
        f_out = np.empty((velocity_nodes.size, n1, n2))
        for idx, ang in _group_angles(velocity_nodes):
            group = _SweepGroup(spec, grid, ang)
            fields = [s + sig_s_f * rho for s in sources_for(ang)]
            f_out[idx] = group.sweep(fields)
        result["f_out"] = f_out
    return result


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


def _interp_2d(spec, out, fields, eval_x):
    values = np.empty((fields.shape[0], eval_x.shape[0]))
    for m, field in enumerate(fields):
        if spec.geometry == "annulus":
            field = _fill_holes(out["mask"], field)
        interp = RegularGridInterpolator((out["c1"], out["c2"]), field,
                                         method="linear", bounds_error=False,
                                         fill_value=None)
        values[m] = interp(eval_x)
    return values

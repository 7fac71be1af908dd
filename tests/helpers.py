"""Shared pipeline helpers for the test suite.

The solver helpers map their arguments onto a ``cli.RunConfig`` and solve
through ``aprfm.method``, the path the CLI ships."""

import numpy as np

from aprfm import cli, collocation, reference
from aprfm.method import Method, solve


def run_config(spec, method, n_spatial=(2, 2), n_velocity=2, m_spatial=(1,),
               m_velocity=1, seed=0, n_quad=16, activation="tanh",
               pou_kind="phi_b", **features):
    """The resolved ``cli.RunConfig`` of a run on ``spec``; ``features``
    gives ``j`` or ``jrho`` and ``jg``.  A one-entry ``m_spatial`` means one box per
    axis in 2D; the grid defaults suit callers that only build models."""
    if spec.spatial_dim == 1:
        counts = dict(mx=m_spatial[0], nx=n_spatial[0])
    else:
        mx1, mx2 = (1, 1) if len(m_spatial) == 1 else m_spatial
        counts = dict(mx1=mx1, mx2=mx2, nx1=n_spatial[0], nx2=n_spatial[1])
    epsilon = spec.epsilon if spec.epsilon_is_constant else "profile"
    return cli.RunConfig(problem=spec.id, method=method, epsilon=epsilon,
                         mv=m_velocity, nv=n_velocity, nq=n_quad, seed=seed,
                         activation=activation, pou=pou_kind, **counts,
                         **features).validate().resolved()


def build_models(spec, j_rho, j_g, m_spatial, m_velocity, seed,
                 activation="tanh", pou_kind="phi_b"):
    config = run_config(spec, "aprfm", m_spatial=m_spatial,
                        m_velocity=m_velocity, seed=seed,
                        activation=activation, pou_kind=pou_kind,
                        jrho=j_rho, jg=j_g)
    return Method.build(spec, config).models


def build_f_model(spec, j, m_spatial, m_velocity, seed, activation="tanh",
                  pou_kind="phi_b"):
    config = run_config(spec, "rfm", m_spatial=m_spatial,
                        m_velocity=m_velocity, seed=seed,
                        activation=activation, pou_kind=pou_kind, j=j)
    return Method.build(spec, config).models[0]


def solve_aprfm(spec, j_rho, j_g, n_spatial, n_velocity, m_spatial=(1,),
                m_velocity=1, seed=0, n_quad=16, activation="tanh"):
    """Assemble + rescale + solve; returns (models, solve report, system)."""
    solution = solve(spec, run_config(
        spec, "aprfm", n_spatial, n_velocity, m_spatial, m_velocity, seed,
        n_quad, activation, jrho=j_rho, jg=j_g))
    return solution.method.models, solution.report, solution.system


def _f_error(solution, reference_field):
    eval_x, eval_v = collocation.evaluation_grid(solution.method.spec)
    values = solution.method.f_values(solution.report.coeffs, eval_x, eval_v)
    approx = reference.phase_field(eval_x, eval_v, values)
    return reference.relative_l2(approx, reference_field)


def aprfm_f_error(spec, j_rho, j_g, n_spatial, n_velocity, reference_field,
                  **kwargs):
    """Relative l2 error of the rebuilt f on the evaluation phase grid."""
    return _f_error(solve(spec, run_config(spec, "aprfm", n_spatial,
                                           n_velocity, jrho=j_rho, jg=j_g,
                                           **kwargs)), reference_field)


def aprfm_rho_error(spec, j_rho, j_g, n_spatial, n_velocity, reference_field,
                    n_quad=16, **kwargs):
    """Relative l2 density error on the spatial evaluation grid."""
    solution = solve(spec, run_config(spec, "aprfm", n_spatial, n_velocity,
                                      n_quad=n_quad, jrho=j_rho, jg=j_g,
                                      **kwargs))
    xs = collocation.evaluation_spatial_grid(spec)
    values = solution.method.rho_values(solution.report.coeffs,
                                        solution.rule, xs)
    return reference.relative_l2(reference.GridField(points=xs, values=values),
                                 reference_field)


def rfm_f_error(spec, j, n_spatial, n_velocity, m_spatial=(1,),
                m_velocity=1, seed=0, n_quad=16):
    """Vanilla one-shot solve; error of f on the evaluation phase grid."""
    solution = solve(spec, run_config(spec, "rfm", n_spatial, n_velocity,
                                      m_spatial, m_velocity, seed, n_quad,
                                      j=j))
    return _f_error(solution, exact_field_for(spec))


def exact_field_for(spec):
    return reference.exact_field(spec, collocation.evaluation_grid(spec))


def exact_rho_field(spec):
    xs = collocation.evaluation_spatial_grid(spec)
    return reference.GridField(points=xs, values=spec.exact_rho(xs))


# -- plain source iteration, the reference for the oracle's fast solves ------

def source_iteration_1d(spec, n_cells, rule, sweep_tol, max_iters=100_000):
    """Density on the 1D oracle's cell centers by unaccelerated source
    iteration: sweep every ordinate with the lagged scattering source until
    the angular flux changes by less than ``sweep_tol``."""
    lo, hi = spec.x_lo[0], spec.x_hi[0]
    n = int(n_cells)
    x = collocation.cell_centers(lo, hi, n)[:, None]
    eps, sig_s, removal = reference._native_fields(spec, x)
    # each ordinate's cells in the order it crosses them
    order = np.array([np.arange(n)[::-1] if v < 0 else np.arange(n)
                      for v in rule.nodes])
    a = eps[order] * np.abs(rule.nodes)[:, None] * n / (hi - lo)
    den = a + removal[order]
    ratio = a / den
    src = np.take_along_axis(
        np.stack([spec.rfm_source(x, np.full(n, v)) for v in rule.nodes]),
        order, axis=1)
    faces = np.where(rule.nodes < 0, hi, lo)[:, None]
    inflow = ratio[:, 0] * spec.boundary_value(faces, rule.nodes)
    # upwind recurrence f_i = ratio_i f_(i-1) + q_i as a lower-triangular
    # propagator per ordinate
    prop = np.zeros((rule.n_nodes, n, n))
    prop[:, 0, 0] = 1.0
    for i in range(1, n):
        prop[:, i, :i] = ratio[:, i, None] * prop[:, i - 1, :i]
        prop[:, i, i] = 1.0
    rho = np.zeros(n)
    f = np.zeros((rule.n_nodes, n))
    for _ in range(max_iters):
        q = (sig_s[order] * rho[order] + src) / den
        q[:, 0] += inflow
        f_new = np.matmul(prop, q[:, :, None])[:, :, 0]
        change = np.max(np.abs(f_new - f))
        f = f_new
        rho = rule.weights @ np.take_along_axis(f, order, axis=1)
        if change < sweep_tol:
            return rho
    raise AssertionError(f"source iteration stalled at change {change:.3e}")


def source_iteration_2d(spec, n_cells, rule, sweep_tol, max_iters=10_000):
    """Density on the 2D oracle's cell grid (zero in a hole) by
    unaccelerated source iteration over the oracle's wavefront sweeps."""
    n1, n2 = n_cells
    (lo1, lo2), (hi1, hi2) = spec.x_lo, spec.x_hi
    c1 = collocation.cell_centers(lo1, hi1, n1)
    c2 = collocation.cell_centers(lo2, hi2, n2)
    pts = np.stack(np.meshgrid(c1, c2, indexing="ij"), axis=-1)
    mask = spec.in_domain(pts)
    eps, sig_s, removal = (arr.reshape(n1, n2) for arr in
                           reference._native_fields(spec, pts.reshape(-1, 2)))
    grid = (c1, c2, (hi1 - lo1) / n1, (hi2 - lo2) / n2, mask, removal, sig_s,
            eps)
    groups = [(idx, reference._SweepGroup(spec, grid, angles),
               [spec.rfm_source(pts.reshape(-1, 2), np.full(n1 * n2, angle)
                                ).reshape(n1, n2) for angle in angles])
              for idx, angles in reference._group_angles(rule.nodes)]
    rho = np.zeros((n1, n2))
    f = np.zeros((rule.n_nodes, n1, n2))
    for _ in range(max_iters):
        f_new = np.empty_like(f)
        for idx, group, src in groups:
            f_new[idx] = group.sweep([s + sig_s * rho for s in src])
        change = np.max(np.abs(f_new - f))
        f = f_new
        rho = np.einsum("q,qij->ij", rule.weights, f)
        if change < sweep_tol:
            return rho
    raise AssertionError(f"source iteration stalled at change {change:.3e}")

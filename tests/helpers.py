"""Shared pipeline helpers for the test suite."""

import numpy as np

from aprfm import assemble, basis, collocation, problems, quadrature, \
    reference, solve

TWO_PI = 2.0 * np.pi


def spatial_bounds(spec):
    return list(zip(spec.x_lo, spec.x_hi))


def velocity_bounds(spec):
    return (-1.0, 1.0) if spec.spatial_dim == 1 else (0.0, TWO_PI)


def build_models(spec, j_rho, j_g, m_spatial, m_velocity, seed,
                 activation="tanh", pou_kind="phi_b"):
    sb = spatial_bounds(spec)
    rho_part = basis.uniform_partition(sb, m_spatial)
    g_part = basis.uniform_partition(sb + [velocity_bounds(spec)],
                                     list(m_spatial) + [m_velocity])
    rho_model = basis.make_model(rho_part, j_rho, seed=2 * seed,
                                 activation=activation, pou_kind=pou_kind)
    g_model = basis.make_model(g_part, j_g, seed=2 * seed + 1,
                               activation=activation, pou_kind=pou_kind)
    return rho_model, g_model


def build_f_model(spec, j, m_spatial, m_velocity, seed, activation="tanh",
                  pou_kind="phi_b"):
    part = basis.uniform_partition(
        spatial_bounds(spec) + [velocity_bounds(spec)],
        list(m_spatial) + [m_velocity])
    return basis.make_model(part, j, seed=seed, activation=activation,
                            pou_kind=pou_kind)


def solve_aprfm(spec, j_rho, j_g, n_spatial, n_velocity, m_spatial=(1,),
                m_velocity=1, seed=0, n_quad=16, activation="tanh"):
    """Assemble + rescale + solve; returns (models, solve report, system)."""
    if spec.spatial_dim == 2 and len(m_spatial) == 1:
        m_spatial = (1, 1)
    rule = quadrature.angular_rule(spec.spatial_dim, n_quad)
    colloc = collocation.build_collocation(spec, n_spatial, n_velocity)
    rho_model, g_model = build_models(spec, j_rho, j_g, m_spatial,
                                      m_velocity, seed, activation=activation)
    system = assemble.rescale_rows(
        assemble.assemble_aprfm(spec, rho_model, g_model, colloc, rule))
    report = solve.lstsq(system)
    return (rho_model, g_model), report, system


def aprfm_f_error(spec, j_rho, j_g, n_spatial, n_velocity, reference_field,
                  **kwargs):
    """Relative l2 error of the rebuilt f on the evaluation phase grid."""
    models, report, _ = solve_aprfm(spec, j_rho, j_g, n_spatial, n_velocity,
                                    **kwargs)
    eval_x, eval_v = collocation.evaluation_grid(spec)
    values = assemble.reconstruct_f(spec, models[0], models[1],
                                    report.coeffs, eval_x, eval_v)
    approx = reference.phase_field(eval_x, eval_v, values)
    return reference.relative_l2(approx, reference_field)


def aprfm_rho_error(spec, j_rho, j_g, n_spatial, n_velocity, reference_field,
                    n_quad=16, **kwargs):
    """Relative l2 density error on the spatial evaluation grid."""
    models, report, _ = solve_aprfm(spec, j_rho, j_g, n_spatial, n_velocity,
                                    n_quad=n_quad, **kwargs)
    rule = quadrature.angular_rule(spec.spatial_dim, n_quad)
    xs = collocation.evaluation_spatial_grid(spec)
    approx = reference.density_field(spec, rule, xs, rho_model=models[0],
                                     g_model=models[1], coeffs=report.coeffs)
    return reference.relative_l2(approx, reference_field)


def rfm_f_error(spec, j, n_spatial, n_velocity, m_spatial=(1,),
                m_velocity=1, seed=0, n_quad=16):
    """Vanilla one-shot solve; error of f on the evaluation phase grid."""
    rule = quadrature.angular_rule(spec.spatial_dim, n_quad)
    colloc = collocation.build_collocation(spec, n_spatial, n_velocity)
    model = build_f_model(spec, j, m_spatial, m_velocity, seed)
    system = assemble.rescale_rows(
        assemble.assemble_rfm(spec, model, colloc, rule))
    report = solve.lstsq(system)
    eval_x, eval_v = collocation.evaluation_grid(spec)
    phase = np.concatenate([eval_x, eval_v[:, None]], axis=1)
    values = basis.model_values(model, report.coeffs, phase)
    approx = reference.phase_field(eval_x, eval_v, values)
    ref = reference.exact_field(spec, (eval_x, eval_v))
    return reference.relative_l2(approx, ref)


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
    mask = np.ones((n1, n2), dtype=bool)
    if spec.geometry == "annulus":
        mask = np.max(np.abs(pts), axis=-1) >= problems.HOLE_HALF_WIDTH
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

"""Shared pipeline helpers for the test suite.

The solver helpers map their arguments onto a ``cli.RunConfig`` and solve
through ``aprfm.method``, the path the CLI ships.  ``stack_blocks`` and
``dense_lstsq`` rebuild the whole matrix and solve it the pre-streaming
way, as references for the streamed solve, and ``single_factor_lstsq``
folds every row into one full-width factor, as the reference for the
factors per signature; ``repeated_macro_blocks``
writes each macro row once per velocity, unweighted, as the reference for
the weighted single macro row; ``dense_column_batch``,
``dense_model_values`` and ``dense_assembly`` evaluate every box at every
point with full gradients, as references for the support-restricted
directional kernel; ``micro_macro_residuals`` and
``exact_micro_macro_pair`` state the micro-macro equations pointwise, as
references for the problem sources."""

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtpqrt

from aprfm import assemble, basis, cli, collocation, reference
from aprfm.collocation import _phase, _tensor
from aprfm.errors import UnsupportedProblemError
from aprfm.method import Method, solve
from aprfm.problems import direction, v_dot
from aprfm.solve import SolveReport


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


def stack_blocks(blocks):
    """One ``LinearSystem`` from consecutive row blocks."""
    blocks = list(blocks)
    return assemble.LinearSystem(
        matrix=np.concatenate([b.matrix for b in blocks]),
        rhs=np.concatenate([b.rhs for b in blocks]),
        row_kind=np.concatenate([b.row_kind for b in blocks]),
        lam=np.concatenate([b.lam for b in blocks]))


def weighted(system):
    """The rows the solve sees, diag(lam) A and diag(lam) b."""
    return system.matrix * system.lam[:, None], system.rhs * system.lam


def repeated_macro_blocks(meth, colloc, rule):
    """The row blocks of an aprfm ``meth.blocks`` in the layout before the
    macro rows were compressed: every interior point carries its node's
    macro row next to its micro row, (macro, micro) pairs in point order,
    and the rows are rescaled with no macro weight."""
    n_v = colloc.velocity_nodes.size
    for block in meth.blocks(colloc, rule):
        n_x = np.count_nonzero(block.row_kind == assemble.ROW_MACRO)
        n_int = np.count_nonzero(block.row_kind == assemble.ROW_MICRO)
        order = np.empty(2 * n_int, dtype=int)
        order[0::2] = np.repeat(np.arange(n_x), n_v)
        order[1::2] = n_x + np.arange(n_int)
        order = np.concatenate([order, np.arange(n_x + n_int, block.n_rows)])
        yield assemble.rescale_rows(assemble.LinearSystem(
            matrix=block.matrix[order], rhs=block.rhs[order],
            row_kind=block.row_kind[order], lam=np.ones(order.size)))


def single_factor_lstsq(blocks, rank_tol=1e-12):
    """The streamed solve before factors per signature: every block's
    weighted rows folded at full width into one factor of [A | b], then
    gelsd on it, with rank, condition estimate and residual taken the same
    way as ``lstsq``."""
    r = None
    for block in blocks:
        z = block.n_columns
        if r is None:
            r = np.zeros((z + 1, z + 1), order="F")
        rows = np.empty((block.n_rows, z + 1), order="F")
        rows[:, :z] = block.matrix
        rows[:, :z] *= block.lam[:, None]
        np.multiply(block.rhs, block.lam, out=rows[:, z])
        r, _, _, info = dtpqrt(0, min(16, z + 1), r, rows, overwrite_a=1,
                               overwrite_b=1)
        assert info == 0
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        r[:z, :z], r[:z, z], cond=rank_tol, lapack_driver="gelsd",
        check_finite=False)
    residual = float(np.hypot(np.linalg.norm(r[:z, :z] @ coeffs - r[:z, z]),
                              r[z, z]))
    retained = sing[sing > rank_tol * sing[0]]
    return SolveReport(coeffs=coeffs, residual_norm=residual, rank=int(rank),
                       condition_estimate=float(sing[0] / retained[-1]),
                       singular_tail=tuple(map(float, retained[-8:])),
                       wall_time=0.0)


def dense_lstsq(system, rank_tol=1e-12):
    """The solve before streaming: gelsd on the whole matrix, with rank,
    condition estimate and residual taken the same way as ``lstsq``."""
    matrix, rhs = weighted(system)
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        matrix, rhs, cond=rank_tol, lapack_driver="gelsd")
    retained = sing[sing > rank_tol * sing[0]]
    return SolveReport(coeffs=coeffs,
                       residual_norm=float(np.linalg.norm(matrix @ coeffs
                                                          - rhs)),
                       rank=int(rank),
                       condition_estimate=float(sing[0] / retained[-1]),
                       singular_tail=tuple(retained[-8:]), wall_time=0.0)


def solve_aprfm(spec, j_rho, j_g, n_spatial, n_velocity, m_spatial=(1,),
                m_velocity=1, seed=0, n_quad=16, activation="tanh"):
    """Assemble + rescale + solve; returns (models, solve report, the
    system restacked from its row blocks, with their weights)."""
    solution = solve(spec, run_config(
        spec, "aprfm", n_spatial, n_velocity, m_spatial, m_velocity, seed,
        n_quad, activation, jrho=j_rho, jg=j_g))
    system = stack_blocks(solution.method.blocks(solution.colloc,
                                                 solution.rule))
    return solution.method.models, solution.report, system


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


# -- every box at every point, full gradients: the kernel's reference -------

def _dense_windows(partition, kind, points):
    """Normalized bump values (n, M) and gradients (n, M, d)."""
    z = (points[:, None, :] - partition.centers) / partition.radii
    u, du_dz = basis._axis_pou(kind, z)
    du = du_dz / partition.radii
    psi = np.prod(u, axis=2)
    dpsi = np.empty(u.shape)
    for axis in range(partition.dim):
        dpsi[:, :, axis] = du[:, :, axis] * np.prod(
            np.delete(u, axis, axis=2), axis=2)
    total = psi.sum(axis=1)
    psi_t = psi / total[:, None]
    dpsi_t = (dpsi - psi_t[:, :, None] * dpsi.sum(axis=1)[:, None, :]) \
        / total[:, None, None]
    return psi_t, dpsi_t


def _dense_features(model, points):
    """Neuron values (n, M, J) and gradients (n, M, J, d)."""
    partition = model.partition
    z = (points[:, None, :] - partition.centers) / partition.radii
    t = np.einsum("nmd,mjd->nmj", z, model.weights.w) + model.weights.b
    phi, dact = basis._activation(model.activation, t)
    return phi, dact[..., None] * (model.weights.w
                                   / partition.radii[:, None, :])


def dense_column_batch(model, points):
    """Columns chi (n, Z) and full gradients (n, Z, d), every box at
    every point."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    psi_t, dpsi_t = _dense_windows(model.partition, model.pou_kind, points)
    phi, dphi = _dense_features(model, points)
    chi = (psi_t[:, :, None] * phi).reshape(n, model.n_columns)
    dchi = (dpsi_t[:, :, None, :] * phi[..., None]
            + psi_t[:, :, None, None] * dphi)
    return chi, dchi.reshape(n, model.n_columns, model.dim)


def dense_model_values(model, coeffs, points):
    points = np.asarray(points, dtype=float)
    psi_t, _ = _dense_windows(model.partition, model.pou_kind, points)
    phi, _ = _dense_features(model, points)
    return np.einsum("nm,nmj,mj->n", psi_t, phi,
                     np.reshape(coeffs, (model.n_boxes, model.n_features)))


def dense_assembly(meth, colloc, rule):
    """The unscaled matrix of ``meth`` on a tensor-grid ``colloc`` from
    dense columns and gradients, with the transport direction contracted
    afterwards."""
    spec = meth.spec
    dim = spec.spatial_dim
    xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
    n_x = xs.shape[0]
    phase = meth.models[-1]

    def node_columns(nodes):
        chi, dchi = dense_column_batch(phase, _phase(*_tensor(xs, nodes)))
        return (chi.reshape(n_x, nodes.size, -1),
                dchi.reshape(n_x, nodes.size, phase.n_columns, dim + 1))

    def transport(nodes, dchi):
        return np.einsum("la,slza->slz", direction(dim, nodes),
                         dchi[..., :dim])

    chi, dchi = node_columns(vs)
    chi_q, dchi_q = node_columns(rule.nodes)
    avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)
    eps = spec.epsilon_at(xs)[:, None, None]
    chi_b, _ = dense_column_batch(phase, np.column_stack(
        [colloc.boundary_x, colloc.boundary_v]))
    if meth.name == "rfm":
        rows = eps * transport(vs, dchi) - avg_chi[:, None, :] + chi
        return np.concatenate([rows.reshape(-1, phase.n_columns), chi_b])
    rho_model = meth.models[0]
    sig_s = spec.sigma_s(xs)[:, None, None]
    sig_a = spec.sigma_a(xs)
    if spec.mixed_scale:
        eps_p = spec.epsilon_prime_at(xs)[:, None, None]
        trans_q = rule.nodes[None, :, None] * (eps_p * chi_q
                                               + eps * dchi_q[..., 0])
        trans_c = vs[None, :, None] * (eps_p * chi + eps * dchi[..., 0])
    else:
        trans_q, trans_c = transport(rule.nodes, dchi_q), transport(vs, dchi)
    avg_trans = np.einsum("q,sqz->sz", rule.weights, trans_q)
    if spec.mixed_scale:
        micro_g = trans_c - avg_trans[:, None, :] + chi
    else:
        micro_g = (eps * (trans_c - avg_trans[:, None, :])
                   + sig_s * (chi - avg_chi[:, None, :])
                   + eps * eps * sig_a[:, None, None] * chi)
    chi_r, dchi_r = dense_column_batch(rho_model, xs)
    macro = np.concatenate([sig_a[:, None] * chi_r, avg_trans], axis=1)
    micro = np.concatenate(
        [np.einsum("la,sza->slz", direction(dim, vs), dchi_r), micro_g],
        axis=2)
    boundary = np.concatenate(
        [dense_column_batch(rho_model, colloc.boundary_x)[0],
         spec.epsilon_at(colloc.boundary_x)[:, None] * chi_b], axis=1)
    return np.concatenate([macro, micro.reshape(-1, micro.shape[-1]),
                           boundary])


# -- the micro-macro equations pointwise: the sources' reference ------------

def micro_macro_residuals(spec, x, v, rho_val, rho_grad, g_val, g_grad,
                          avg_v_grad_g, g_collision):
    """Residuals of the macro and micro equations at phase points (x, v).

    The caller supplies the angular pieces evaluated at (x, v):
    ``avg_v_grad_g`` is the angular average of v . grad_x g at x, and
    ``g_collision`` is the scattering operator applied to g.  For the
    mixed-scale problem ``g_grad`` and ``avg_v_grad_g`` must already refer
    to the product eps(x) g (expanded via the product rule), and
    ``g_collision`` is unused.
    """
    x = np.asarray(x, dtype=float)
    sig_a = spec.sigma_a(x)
    transport = v_dot(spec.spatial_dim, v, g_grad)
    macro = avg_v_grad_g + sig_a * rho_val - spec.macro_source(x)
    if spec.mixed_scale:
        micro = (v_dot(spec.spatial_dim, v, rho_grad)
                 + (transport - avg_v_grad_g) + g_val)
        return macro, micro
    eps = spec.epsilon_at(x)
    micro = (v_dot(spec.spatial_dim, v, rho_grad)
             + eps * (transport - avg_v_grad_g)
             - spec.sigma_s(x) * g_collision
             + eps * eps * sig_a * g_val
             - spec.micro_source(x, v))
    return macro, micro


def exact_micro_macro_pair(spec, rule):
    """Exact (rho, g) derived from the exact solution: rho is the angular
    average of the exact f by ``rule`` and g = (f - rho) / eps.  Needs an
    exact solution and a constant eps."""
    if spec.exact_f is None:
        raise UnsupportedProblemError(f"{spec.id} has no exact solution")
    if not spec.epsilon_is_constant:
        raise UnsupportedProblemError("exact pair needs a constant epsilon")
    eps = float(spec.epsilon)

    def rho(x):
        x = np.asarray(x, dtype=float)
        samples = np.stack([spec.exact_f(x, np.full(x.shape[:-1], node))
                            for node in rule.nodes], axis=-1)
        return samples @ rule.weights

    def g(x, v):
        return (spec.exact_f(x, v) - rho(x)) / eps

    return rho, g


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
    sweep = reference._Sweep(spec, (c1, c2, (hi1 - lo1) / n1,
                                    (hi2 - lo2) / n2, mask, removal, eps),
                             rule.nodes)
    src = np.stack([spec.rfm_source(pts.reshape(-1, 2),
                                    np.full(n1 * n2, angle)).reshape(n1, n2)
                    for angle in rule.nodes])
    rho = np.zeros((n1, n2))
    f = np.zeros((rule.n_nodes, n1, n2))
    for _ in range(max_iters):
        f_new = sweep.sweep(src + sig_s * rho)
        change = np.max(np.abs(f_new - f))
        f = f_new
        rho = np.einsum("q,qij->ij", rule.weights, f)
        if change < sweep_tol:
            return rho
    raise AssertionError(f"source iteration stalled at change {change:.3e}")
